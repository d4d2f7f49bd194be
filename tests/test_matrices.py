"""Exact matrix arithmetic, the hexagon/commutator identities, finite quotients.

Expected values come from the naive oracles in oracles.py (cofactor
determinants, nested-list products, exhaustive determinant-filter
enumeration), never from the code under test.
"""

import functools
import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from treeact import matrices
from treeact.matrices import (
    CapExceeded,
    GroupMatrix,
    MatrixError,
    _left_mul,
    _left_plan,
    commutator,
    congruence_membership,
    elementary,
    enumerate_group,
    matrix_from_json,
    matrix_to_json,
    normal_core,
    six_generators,
    six_generators_embedded,
    sl_order,
    transvection_generators,
    verify_hexagon_relations,
    verify_ll_identity,
)


def to_rows(m: GroupMatrix):
    return m.rows()


def from_rows(rows, mod=None):
    return GroupMatrix.from_rows(rows, mod)


@st.composite
def unipotent_products(draw, n=3, length=4):
    """Random products of elementary matrices: always determinant 1."""
    m = GroupMatrix.identity(n)
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(1, n), st.integers(1, n), st.integers(-3, 3)
            ).filter(lambda s: s[0] != s[1]),
            max_size=length,
        )
    )
    for i, j, v in steps:
        m = m * elementary(n, i, j, v)
    return m


class TestElementary:
    def test_zero_is_identity(self):
        assert elementary(3, 1, 2, 0) == GroupMatrix.identity(3)

    def test_inverse_pair(self):
        assert elementary(3, 1, 2, 1) * elementary(3, 1, 2, -1) == GroupMatrix.identity(3)

    def test_power_matches_repeated_multiplication(self):
        expected = oracles.mat_identity(3)
        for _ in range(3):
            expected = oracles.mat_mul(expected, oracles.unipotent(3, 1, 2, 1))
        assert to_rows(elementary(3, 1, 2, 3)) == expected

    def test_sum_rule(self):
        assert elementary(4, 2, 4, 5) * elementary(4, 2, 4, -3) == elementary(4, 2, 4, 2)

    def test_diagonal_rejected(self):
        with pytest.raises(MatrixError):
            elementary(3, 2, 2, 1)

    @given(unipotent_products())
    def test_det_one_and_adjugate_inverse(self, m):
        assert oracles.mat_det(to_rows(m)) == 1
        assert m.det() == 1
        assert oracles.mat_mul(to_rows(m), to_rows(m.inverse())) == oracles.mat_identity(3)


@st.composite
def square_matrices(draw):
    """Small integer or modular matrices, of any determinant."""
    n = draw(st.integers(1, 4))
    mod = draw(st.one_of(st.none(), st.integers(2, 7)))
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    return GroupMatrix(n, tuple(entries), mod)


class TestInverseTwin:
    # Gauss-Jordan against the cofactor adjugate: the zero-pivot examples
    # swap rows, and 3 I mod 8 has integer determinant 9
    @given(st.one_of(square_matrices(), unipotent_products(n=4, length=6)))
    @example(GroupMatrix(2, (0, 1, -1, 0)))
    @example(GroupMatrix(3, (0, 0, 1, 1, 0, 0, 0, 1, 0)))
    @example(GroupMatrix(4, (1, 2, 0, 0, 1, 2, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0)))
    @example(GroupMatrix(2, (0, 2, 2, 0), 5))
    @example(GroupMatrix(2, (3, 0, 0, 3), 8))
    @example(GroupMatrix(2, (2, 0, 0, 1)))
    @example(GroupMatrix(2, (1, 2, 2, 4)))
    @example(GroupMatrix(2, (2, 0, 0, 1), 4))
    def test_matches_adjugate(self, m):
        n, mod = m.n, m.mod
        if m.det() != 1:
            with pytest.raises(MatrixError, match="^only determinant-1 matrices are invertible here$"):
                m.inverse()
            return
        adj = [[x % mod if mod else x for x in row] for row in oracles.mat_adj(to_rows(m))]
        assert to_rows(m.inverse()) == adj
        assert m * m.inverse() == GroupMatrix.identity(n, mod)


class TestDetTwin:
    # the determinant comes from the elimination inverse() runs, on [A] alone
    @given(square_matrices())
    @example(GroupMatrix(2, (0, 1, 1, 0)))
    @example(GroupMatrix(3, (0, 0, 1, 1, 0, 0, 0, 1, 0)))
    @example(GroupMatrix(2, (1, 2, 2, 4)))
    @example(GroupMatrix(2, (0, 0, 0, 0), 3))
    @example(GroupMatrix(1, (0,)))
    def test_matches_cofactor_expansion(self, m):
        d = oracles.mat_det(to_rows(m))
        assert m.det() == (d % m.mod if m.mod else d)


class TestPowerProducts:
    def test_square_only_while_bits_remain(self, monkeypatch):
        # g ** k makes one product per set bit of |k| and one squaring per
        # bit after the first; g ** 0 makes none
        g = elementary(3, 1, 2, 1) * elementary(3, 2, 3, 1)
        flat, calls = matrices._mul_flat, []

        def counted(a, b, n):
            calls.append(n)
            return flat(a, b, n)

        monkeypatch.setattr(matrices, "_mul_flat", counted)
        for k in range(-64, 65):
            calls.clear()
            power = g ** k
            assert len(calls) == (bin(abs(k)).count("1") + abs(k).bit_length() - 1 if k else 0), k
            want = oracles.mat_identity(3)
            step = to_rows(g if k >= 0 else g.inverse())
            for _ in range(abs(k)):
                want = oracles.mat_mul(want, step)
            assert to_rows(power) == want


class TestCommutator:
    def test_identity_left(self):
        b = elementary(3, 2, 3, 2)
        assert commutator(GroupMatrix.identity(3), b) == GroupMatrix.identity(3)

    def test_heisenberg(self):
        # oracle: a^-1 b^-1 a b with nested lists
        a = oracles.unipotent(3, 1, 2, 1)
        b = oracles.unipotent(3, 2, 3, 1)
        expected = oracles.mat_mul(
            oracles.mat_mul(oracles.mat_inv(a), oracles.mat_inv(b)),
            oracles.mat_mul(a, b),
        )
        assert expected == oracles.unipotent(3, 1, 3, 1)
        got = commutator(elementary(3, 1, 2, 1), elementary(3, 2, 3, 1))
        assert to_rows(got) == expected

    def test_squares_give_fourth_power(self):
        got = commutator(elementary(3, 1, 2, 2), elementary(3, 2, 3, 2))
        assert got == elementary(3, 1, 3, 4)

    def test_exponent_product_rule_exhaustive(self):
        # [u_ij^r, u_jk^r] = u_ik^(r^2) for all distinct i,j,k and r in 1..3
        for r in (1, 2, 3):
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    for k in (1, 2, 3):
                        if len({i, j, k}) != 3:
                            continue
                        got = commutator(elementary(3, i, j, r), elementary(3, j, k, r))
                        assert got == elementary(3, i, k, r * r)

    @given(unipotent_products(), unipotent_products())
    def test_inverse_swaps_arguments(self, a, b):
        assert commutator(a, b).inverse() == commutator(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixError):
            commutator(elementary(2, 1, 2, 1), elementary(3, 1, 2, 1))


class TestSixGenerators:
    def test_first_matrix_r1(self):
        a = six_generators(1)[0]
        assert to_rows(a) == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]

    def test_a4_entry_r2(self):
        a4 = six_generators(2)[3]
        assert to_rows(a4)[1][0] == 2

    def test_all_determinant_one(self):
        for g in six_generators(3):
            assert oracles.mat_det(to_rows(g)) == 1

    def test_embedded_matches_at_base_case(self):
        assert six_generators_embedded(3, 1, 2, 1) == six_generators(1)

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_entries_for_each_parameter(self, r):
        assert [to_rows(g) for g in six_generators(r)] == [
            [[1, r, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, r], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, r], [0, 0, 1]], [[1, 0, 0], [r, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [r, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, r, 1]]]

    def test_embedded_a2_position(self):
        a2 = six_generators_embedded(4, 1, 2, 1)[1]
        assert a2 == elementary(4, 1, 3, 1)

    def test_embedded_index_validation(self):
        with pytest.raises(MatrixError):
            six_generators_embedded(3, 2, 2, 1)
        with pytest.raises(MatrixError):
            six_generators_embedded(3, 1, 3, 1)  # j must stay below n

    def test_embedded_reduce_to_identity_mod_power(self):
        for g in six_generators_embedded(4, 1, 2, 2):
            assert g.reduce_mod(2).is_identity()

    def test_elementary_inverse_negates_parameter(self):
        assert elementary(3, 2, 3, 5).inverse() == elementary(3, 2, 3, -5)


class TestHexagon:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_base_family_passes(self, r):
        rep = verify_hexagon_relations(six_generators(r), r)
        assert rep.passed
        assert all(c.sign in (-1, 1) for c in rep.checks)

    def test_embedded_families_pass(self):
        for n in (3, 4, 5):
            for i in range(1, n - 1):
                for j in range(i + 1, n):
                    if j > n - 1:
                        continue
                    for l in (1, 2):
                        rep = verify_hexagon_relations(
                            six_generators_embedded(n, i, j, l), l
                        )
                        assert rep.passed, (n, i, j, l)

    def test_tampered_fails_at_one(self):
        gens = six_generators(1)
        gens[0] = GroupMatrix.identity(3)
        rep = verify_hexagon_relations(gens, 1)
        assert not rep.passed
        assert 1 in rep.failures()

    def test_oracle_cross_check_r2(self):
        # recompute both relations at one index with the naive oracle
        gens = [to_rows(g) for g in six_generators(2)]
        a6, a1, a2 = gens[5], gens[0], gens[1]
        comm = oracles.mat_mul(
            oracles.mat_mul(oracles.mat_inv(a1), oracles.mat_inv(a2)),
            oracles.mat_mul(a1, a2),
        )
        assert comm == oracles.mat_identity(3)
        cross = oracles.mat_mul(
            oracles.mat_mul(oracles.mat_inv(a6), oracles.mat_inv(a2)),
            oracles.mat_mul(a6, a2),
        )
        assert cross in (oracles.mat_pow(a1, 2), oracles.mat_pow(a1, -2))


class TestCentralCommutatorIdentity:
    def test_heisenberg_unit_case(self):
        a, b, c = elementary(3, 1, 2, 1), elementary(3, 2, 3, 1), elementary(3, 1, 3, 1)
        assert verify_ll_identity(a, b, c, 1, [1], [1], [1]) == []

    def test_larger_exponents(self):
        a, b, c = elementary(3, 1, 2, 1), elementary(3, 2, 3, 1), elementary(3, 1, 3, 1)
        assert verify_ll_identity(a, b, c, 1, [5], [2], [3]) == []

    def test_identity_triple(self):
        e = GroupMatrix.identity(3)
        assert verify_ll_identity(e, e, e, 7, [1], [1], [1]) == []

    def test_oracle_recomputation(self):
        # independently recompute both sides for one nontrivial case
        r, p, q, m = 2, 3, 2, 4
        a = oracles.unipotent(3, 1, 2, r)
        b = oracles.unipotent(3, 2, 3, 1)
        c = oracles.unipotent(3, 1, 3, 1)
        binv_cq = oracles.mat_mul(oracles.mat_inv(b), oracles.mat_pow(c, q))
        ainv_cp = oracles.mat_mul(oracles.mat_inv(a), oracles.mat_pow(c, p))
        lhs = oracles.mat_mul(
            oracles.mat_mul(oracles.mat_pow(binv_cq, m), oracles.mat_pow(ainv_cp, m)),
            oracles.mat_mul(oracles.mat_pow(b, m), oracles.mat_pow(a, m)),
        )
        rhs = oracles.mat_pow(c, -m * m * r + m * (p + q))
        assert lhs == rhs
        assert verify_ll_identity(
            elementary(3, 1, 2, r), elementary(3, 2, 3, 1), elementary(3, 1, 3, 1),
            r, [m], [p], [q],
        ) == []

    def test_precondition_rejected(self):
        a, b = elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)
        with pytest.raises(MatrixError, match="preconditions"):
            verify_ll_identity(a, b, elementary(3, 1, 3, 1), 2, [1], [1], [1])
        with pytest.raises(MatrixError, match="preconditions"):
            # c does not commute with the others
            verify_ll_identity(a, b, b, 1, [1], [1], [1])


class TestEnumerateGroup:
    def test_sl2_mod2_order_six(self):
        count, _ = oracles.sl_by_det_filter(2, 2)
        assert count == 6
        g = enumerate_group(2, 2, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])
        assert len(g) == 6

    def test_sl3_mod2_order_168(self):
        count, _ = oracles.sl_by_det_filter(3, 2)
        assert count == 168
        g = enumerate_group(3, 2, list(transvection_generators(3, 2).values()))
        assert len(g) == 168

    def test_identity_generators(self):
        g = enumerate_group(3, 5, [GroupMatrix.identity(3, 5)])
        assert len(g) == 1

    def test_closure(self):
        g = enumerate_group(2, 3, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])
        assert len(g) == 24
        for x in g.elements:
            for s in g.generators:
                assert (x * s) in g
        # a proper subgroup of SL_3(Z/4) whose generators have order 4: the
        # closure under the generators alone is the two-sided closure
        u12, u23 = elementary(3, 1, 2, 1, mod=4), elementary(3, 2, 3, 1, mod=4)
        two_sided = oracles.words_up_to(
            [oracles.unipotent(3, 1, 2, 1), oracles.unipotent(3, 2, 3, 1)], 64, mod=4)
        want = sorted(tuple(x for row in m for x in row) for m in two_sided)
        h = enumerate_group(3, 4, [u12, u23])
        assert len(want) == 64 and [x.entries for x in h.elements] == want
        assert [h.entries[i] for i in h._close([h._find(u12), h._find(u23)])] == want

    def test_cap(self):
        with pytest.raises(CapExceeded, match="group too large for cap"):
            enumerate_group(3, 2, list(transvection_generators(3, 2).values()), cap=10)

    def test_order_formula_matches_enumeration(self):
        assert sl_order(2, 2, 1) == 6
        assert sl_order(3, 2, 1) == 168
        assert sl_order(3, 2, 2) == 43008
        assert sl_order(2, 3, 1) == 24

    @pytest.mark.parametrize("n, m, order", [(2, 8, 384), (3, 2, 168)])
    def test_elements_are_made_on_first_read(self, n, m, order):
        g = enumerate_group(n, m, list(transvection_generators(n, m).values()))
        assert len(g) == order
        x = g.generators[-1]
        assert x in g and GroupMatrix.identity(n, m) in g
        # membership compares dimension and modulus, not entries alone
        assert GroupMatrix(n, x.entries, m + 1) not in g and GroupMatrix(n, x.entries) not in g
        assert g.entries[g.entries.index(x.entries)] == x.entries
        assert "elements" not in vars(g)
        assert [h.entries for h in g.elements] == list(g.entries)
        assert g.elements is g.elements


@st.composite
def left_factors(draw):
    """(n, m, s, x): s the identity, a transvection or dense, x any, both mod m."""
    n = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(2, 27))
    entries = st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n)
    kind = draw(st.sampled_from(["identity", "transvection", "dense"]))
    if kind == "dense":
        s = draw(entries)
    else:
        rows = oracles.mat_identity(n)
        if kind == "transvection":
            i, j = draw(st.sampled_from(
                [(i, j) for i in range(n) for j in range(n) if i != j]))
            rows[i][j] = draw(st.integers(1, m - 1))
        s = [e for row in rows for e in row]
    return n, m, s, tuple(draw(entries))


def naive_left_mul(s, x, n, m):
    rows = lambda flat: [list(flat[i * n:(i + 1) * n]) for i in range(n)]
    return tuple(e for row in oracles.mat_mul(rows(s), rows(x), m) for e in row)


class TestLeftMulKernel:
    """The sparse left product against the nested-list product of oracles.py."""

    @given(left_factors())
    def test_matches_naive_product(self, case):
        n, m, s, x = case
        assert _left_mul(s, n, m)(x) == naive_left_mul(s, x, n, m)

    def test_identity_and_every_transvection(self):
        for n in (2, 3, 4):
            for m in range(2, 28):
                x = tuple((7 * k + 3) % m for k in range(n * n))
                for s in [GroupMatrix.identity(n, m), *transvection_generators(n, m).values()]:
                    assert _left_mul(s.entries, n, m)(x) == naive_left_mul(s.entries, x, n, m)

    def test_field_headroom(self):
        # every entry m - 1: each entry's sum reaches n (m - 1)^2 before reduction
        n, m = 4, 27
        s = x = (m - 1,) * (n * n)
        assert _left_mul(s, n, m)(x) == naive_left_mul(s, x, n, m)

    def test_plan_lists_only_changed_rows(self):
        assert _left_plan(GroupMatrix.identity(4, 5).entries, 4) == []
        for name, u in transvection_generators(4, 5).items():
            i, j = int(name[1]) - 1, int(name[2]) - 1
            assert _left_plan(u.entries, 4) == [(i, [(min(i, j), 1), (max(i, j), 1)])]


@st.composite
def factor_pairs(draw):
    """Two n x n factors over Z or Z/m with small entries, not necessarily det 1."""
    n = draw(st.integers(1, 4))
    mod = draw(st.one_of(st.none(), st.integers(2, 7)))
    entries = st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n)
    return GroupMatrix(n, tuple(draw(entries)), mod), GroupMatrix(n, tuple(draw(entries)), mod)


class TestProductKernel:
    """``GroupMatrix.__mul__`` (the column-slice kernel) against oracles.mat_mul."""

    @given(factor_pairs())
    def test_matches_naive_product(self, pair):
        a, b = pair
        assert (a * b).rows() == oracles.mat_mul(a.rows(), b.rows(), a.mod)


class TestEnumerationOracle:
    """enumerate_group against the exhaustive determinant filter."""

    @pytest.mark.parametrize("n, m", [(2, 8), (2, 9), (3, 2)])
    def test_elements_and_cap_boundary(self, n, m):
        count, want = oracles.sl_by_det_filter(n, m)
        gens = list(transvection_generators(n, m).values())
        g = enumerate_group(n, m, gens, cap=count)
        assert [x.entries for x in g.elements] == sorted(want)
        assert len(g) == count
        with pytest.raises(CapExceeded):
            enumerate_group(n, m, gens, cap=count - 1)

    def test_sl3_mod4_elements_pinned(self):
        # recorded before enumerate_group kept its Cayley table
        g = enumerate_group(3, 4, list(transvection_generators(3, 4).values()))
        text = json.dumps([list(x.entries) for x in g.elements])
        assert (len(g), hashlib.sha256(text.encode()).hexdigest()) == (
            43008, "d6b45bdddc678efb6599429b3396d57512bf6727f3bba6e40277034ef262f87e")


@st.composite
def generator_sets(draw):
    """(n, m, gens): one to three nested-list generators mod m, each the
    identity, a transvection, or a product of random transvections."""
    n = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(2, 27))
    pairs = st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = oracles.mat_identity(n)
        for _ in range(draw(st.sampled_from([0, 1, 4]))):
            i, j = draw(pairs)
            g = oracles.mat_mul(oracles.unipotent(n, i, j, draw(st.integers(1, m - 1))), g, m)
        gens.append(g)
    return n, m, gens


class TestEnumerationTwin:
    """enumerate_group against the naive breadth-first closure of oracles.py."""

    LIMIT = 5000

    @settings(max_examples=60, deadline=None)
    @given(generator_sets())
    @example((3, 5, [oracles.mat_identity(3)]))   # the trivial group, |G| = 1
    def test_matches_naive_closure(self, case):
        n, m, rows = case
        gens = [GroupMatrix(n, tuple(x for row in g for x in row), m) for g in rows]
        want = oracles.group_closure(rows, m, self.LIMIT)
        if want is None:
            with pytest.raises(CapExceeded, match="group too large for cap"):
                enumerate_group(n, m, gens, cap=self.LIMIT)
            return
        elements, table = want
        g = enumerate_group(n, m, gens, cap=len(elements))
        assert list(g.entries) == elements
        assert [list(c) for c in g.cayley] == table
        assert g.generators == tuple(gens)
        with pytest.raises(CapExceeded, match="group too large for cap"):
            enumerate_group(n, m, gens, cap=len(elements) - 1)


class TestCayleyTable:
    """cayley[k][i] is the index of generators[k] * elements[i], by the naive product."""

    @pytest.mark.parametrize("n, m", [(2, 8), (2, 9), (3, 2), (3, 4)])
    def test_every_entry(self, n, m):
        g = enumerate_group(n, m, list(transvection_generators(n, m).values()))
        assert len(g.cayley) == len(g.generators)
        for s, row in zip(g.generators, g.cayley):
            assert len(row) == len(g)
            for x, k in zip(g.elements, row):
                sx = oracles.mat_mul(s.rows(), x.rows(), m)
                assert list(g.elements[k].entries) == [e for r in sx for e in r]


class TestNormalCore:
    def _sl2z2(self):
        return enumerate_group(2, 2, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])

    def test_whole_group(self):
        g = self._sl2z2()
        assert len(normal_core(g, g.elements)) == 6

    def test_trivial_subgroup(self):
        g = self._sl2z2()
        e = GroupMatrix.identity(g.n, g.mod)
        assert normal_core(g, [e]) == (e,)

    def test_order_two_subgroup_has_trivial_core(self):
        g = self._sl2z2()
        mul, inv = (lambda x, y: x * y), (lambda x: x.inverse())
        e = GroupMatrix.identity(g.n, g.mod)
        h = oracles.subgroup_closure([elementary(2, 1, 2, 1, mod=2)], mul, inv, e)
        assert len(h) == 2
        core = normal_core(g, iter(h))   # read once: an iterator will do
        assert len(core) == 1
        # brute force: no nontrivial normal subgroup sits inside h
        elements = list(g.elements)
        lattice = oracles.subgroup_lattice(elements, mul, inv, e)
        best = oracles.max_normal_subgroup_inside(lattice, elements, mul, inv, frozenset(h))
        assert frozenset(core) == best

    def test_rejects_non_subgroup(self):
        g = self._sl2z2()
        with pytest.raises(MatrixError, match="not a subgroup"):
            normal_core(g, [elementary(2, 1, 2, 1, mod=2)])

    @pytest.mark.parametrize("case", ["outside", "other modulus", "no identity", "not closed"])
    def test_rejects_each_kind_of_non_subgroup(self, case):
        g = self._sl2z2()
        e = GroupMatrix.identity(g.n, g.mod)
        u, v = elementary(2, 1, 2, 1, mod=2), elementary(2, 2, 1, 1, mod=2)
        h = {
            "outside": [e, elementary(2, 1, 2, 3, mod=4)],
            # its entries are u's, reduced mod 3 rather than mod 2
            "other modulus": [e, elementary(2, 1, 2, 1, mod=3)],
            "no identity": [],                     # closed, but empty
            "not closed": [e, u, v],   # u and v are inverse to themselves
        }[case]
        with pytest.raises(MatrixError, match="not a subgroup"):
            normal_core(g, iter(h))


@functools.cache
def sl2(m):
    return enumerate_group(2, m, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])


class TestSubgroupTable:
    """The product table and the closure on it, against matrix products."""

    @pytest.mark.parametrize("m", [3, 4])
    def test_product_table(self, m):
        g = sl2(m)
        for x, row in zip(g.elements, g._mul):
            for y, k in zip(g.elements, row):
                xy = oracles.mat_mul(x.rows(), y.rows(), m)
                assert list(g.entries[k]) == [e for r in xy for e in r]

    @given(st.sampled_from([3, 4]), st.lists(st.integers(0, 47), max_size=3))
    def test_closure_matches_breadth_first_closure(self, m, picks):
        g = sl2(m)
        seed = [i % len(g) for i in picks]
        e = GroupMatrix.identity(g.n, g.mod)
        want = oracles.subgroup_closure([g.elements[i] for i in seed],
                                        lambda x, y: x * y, lambda x: x.inverse(), e)
        got = [g.elements[i] for i in g._close(seed)]
        assert got == sorted(want, key=lambda x: x.entries)

    def test_an_element_outside_the_group_has_no_index(self):
        # the closure runs on indices: an element without one never reaches it
        u12, u23 = elementary(3, 1, 2, 1, mod=4), elementary(3, 2, 3, 1, mod=4)
        h = enumerate_group(3, 4, [u12, u23])
        outside = elementary(3, 3, 1, 1, mod=4)
        assert outside not in h and h._find(outside) is None

    def test_subgroup_cap(self, monkeypatch):
        # SL_2(Z/2) has six subgroups: they fit a cap of six, not of five
        g = enumerate_group(2, 2, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])
        monkeypatch.setattr(matrices, "_SUBGROUP_CAP", 6)
        assert len(g.all_subgroups()) == 6
        monkeypatch.setattr(matrices, "_SUBGROUP_CAP", 5)
        with pytest.raises(CapExceeded, match="subgroup lattice too large for cap"):
            g.all_subgroups()


class TestCongruenceMembership:
    def test_identity(self):
        assert congruence_membership(GroupMatrix.identity(3), 7)

    def test_transvection_level_two(self):
        assert not congruence_membership(elementary(3, 1, 2, 1), 2)
        assert congruence_membership(elementary(3, 1, 2, 2), 2)

    def test_rejects_modular(self):
        with pytest.raises(MatrixError):
            congruence_membership(elementary(3, 1, 2, 1, mod=5), 2)

    def test_rejects_nonunimodular(self):
        bad = GroupMatrix(2, (2, 0, 0, 1))
        with pytest.raises(MatrixError, match="determinant"):
            congruence_membership(bad, 2)


class TestGeneratedCongruenceImage:
    def test_squares_generate_level_four_image_mod_eight(self):
        # the image mod 8 of the subgroup generated by squared transvections
        # contains every matrix congruent to the identity mod 4
        gens = [elementary(3, i, j, 2, mod=8) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        h = enumerate_group(3, 8, gens, cap=200_000)
        # enumerate {I + 4A mod 8 : det = 1 mod 8} directly
        from itertools import product as iproduct

        target = []
        for bits in iproduct((0, 1), repeat=9):
            entries = tuple(
                (1 if i == j else 0) + 4 * bits[i * 3 + j]
                for i in range(3)
                for j in range(3)
            )
            rows = [list(entries[k * 3:(k + 1) * 3]) for k in range(3)]
            if oracles.mat_det(rows) % 8 == 1:
                target.append(entries)
        assert len(target) == 256
        for entries in target:
            assert GroupMatrix(3, entries, 8) in h


class TestSerialization:
    def test_matrix_round_trip(self):
        m = elementary(3, 1, 2, -4)
        assert matrix_from_json(matrix_to_json(m)) == m
        mm = elementary(2, 2, 1, 3, mod=5)
        assert matrix_from_json(matrix_to_json(mm)) == mm


def _raises(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


class TestRejections:
    """Each refusal of a malformed matrix or argument, one row each."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: GroupMatrix(2, (1, 0, 0)), "entry count does not match dimension",
                     id="entry-count"),
        pytest.param(lambda: GroupMatrix(2, (1, 0, 0, 1), 1), "modulus must be at least 2",
                     id="matrix-modulus"),
        pytest.param(lambda: GroupMatrix.from_rows([[2, 0], [0, 1]]), "determinant must be 1",
                     id="from-rows-determinant"),
        pytest.param(lambda: elementary(2, 3, 1, 1), "index out of range", id="elementary-index"),
        pytest.param(lambda: six_generators(0), "parameter must be positive",
                     id="six-generators-parameter"),
        pytest.param(lambda: six_generators_embedded(2, 1, 2, 1), "dimension must be at least 3",
                     id="embedded-dimension"),
        pytest.param(lambda: six_generators_embedded(3, 1, 2, 0), "power must be positive",
                     id="embedded-power"),
        pytest.param(lambda: verify_hexagon_relations(six_generators(1)[:5], 1),
                     "exactly six matrices required", id="hexagon-count"),
        pytest.param(lambda: verify_hexagon_relations(
            six_generators(1)[:5] + [elementary(4, 1, 2, 1)], 1),
            "matrices must share dimension and domain", id="hexagon-domain"),
        pytest.param(lambda: enumerate_group(2, 1, [elementary(2, 1, 2, 1)]),
                     "modulus must be at least 2", id="enumerate-modulus"),
        pytest.param(lambda: enumerate_group(2, 3, [elementary(3, 1, 2, 1)]),
                     "dimension mismatch", id="enumerate-dimension"),
        pytest.param(lambda: enumerate_group(2, 3, [elementary(2, 1, 2, 1, mod=5)]),
                     "generator modulus mismatch", id="enumerate-generator-modulus"),
        pytest.param(lambda: enumerate_group(2, 3, [GroupMatrix(2, (2, 0, 0, 1), 3)]),
                     "determinant must be 1", id="enumerate-determinant"),
        pytest.param(lambda: congruence_membership(elementary(2, 1, 2, 1), 1),
                     "level must be at least 2", id="congruence-level"),
        pytest.param(lambda: matrix_from_json([1, 0, 0, 1]), "matrix must be a JSON object",
                     id="json-not-an-object"),
    ])
    def test_refusal(self, call, message):
        _raises(call, MatrixError, message)
