"""The exact checkers of ordering and realize against their naive twins.

``ordering.check_axioms``, ``ordering.check_invariance``,
``ordering.search_invariant``, ``ordering.order_from_probe_keys``,
``realize.verify_realization``, ``realize.fixed_set``,
``PLHomeo.__call__`` and ``tower.orbit`` each have a naive twin in
``tests/oracles.py`` that redoes every product and segment scan in its
innermost loop; ``trees.first_point_map`` has one
that takes the whole path to the least subtree vertex, ``trees.path``
one that searches the string adjacency, ``trees.is_tree_automorphism``
one that looks each edge's image up in the set of edges,
``tower.projection_orbit_growth`` one that works on the decorated tree and
action made in full, and ``ordering.Ball.row``, which composes rows along
the ball's words, one that makes a product per element;
``matrices.verify_ll_identity``, which checks its preconditions and makes
each power once per sweep, one that redoes both for every case.  A built
tower's checks and JSON writer, which read its vertex numbering, have the
string checks and writer of the same views as their twin, which fail
exactly when the verdict that a numbering needs to make a system does, and
a tree made by ``Tree.from_parents`` has the tree of the same edges given
as strings;
``Tree.adjacency`` has one that sorts each neighbour list.  Both sides get
the same random inputs, broken ones included, and must return the same
report field for field, or raise the same error.
"""

import hashlib
import json
import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import pruefer_tree
from treeact.matrices import GroupMatrix, MatrixError, elementary, verify_ll_identity
from treeact.ordering import (
    Ball,
    OrderAssignment,
    OrderingError,
    SearchBudgetExhausted,
    ball_generate,
    check_axioms,
    check_invariance,
    invariance_set,
    order_from_probe_keys,
    search_invariant,
)
from treeact.realize import (
    NEG_INF,
    POS_INF,
    GeneratorMap,
    PLHomeo,
    RealizeError,
    fixed_set,
    generator_pl_map,
    order_from_realization,
    realize,
    verify_realization,
)
from treeact.tower import (
    FiniteTreeAction,
    InverseSystem,
    TowerError,
    _Numbering,
    attach_decorations,
    build_congruence_tower,
    degree_profile,
    orbit,
    projection_orbit_growth,
    system_from_json,
    system_to_json,
    verify_all_bonds,
    verify_bond_structure,
    verify_tower,
)
from treeact.trees import (
    Tree,
    TreeAutomorphism,
    TreeError,
    first_point_map,
    is_tree_automorphism,
    path,
    validate_tree,
)

U = elementary(2, 1, 2, 1)
A = GroupMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
B = GroupMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
SEEDS = st.integers(0, 2 ** 32 - 1)


def z_ball(radius):
    return ball_generate([U], radius, ["g"])


def z2_ball(radius):
    return ball_generate([A, B], radius, ["a", "b"])


def heisenberg_ball(radius):
    return ball_generate([elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)], radius,
                         ["u12", "u23"])


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except (OrderingError, RealizeError) as exc:
        return "raised", type(exc), str(exc)


def random_assignment(ball, rng, total):
    """Complete signs: a random total order, or independent coin flips."""
    n = len(ball)
    if total:
        pos = list(range(n))
        rng.shuffle(pos)
        return OrderAssignment.from_total_order(ball, [ball.elements[i] for i in pos])
    signs = {(i, j): rng.choice((-1, 1)) for i in range(n) for j in range(i + 1, n)}
    return OrderAssignment(ball, signs)


class TestCheckAxiomsTwin:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.integers(0, 4), st.booleans())
    def test_random_assignments(self, seed, radius, total):
        rng = random.Random(seed)
        phi = random_assignment(z_ball(radius), rng, total)
        assert astuple(check_axioms(phi)) == oracles.check_axioms(phi)

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.integers(1, 3))
    def test_signs_edited_after_construction(self, seed, radius):
        # neither form's signs can be edited in place, so both orientations
        # of a pair stay opposite and the report stays the twin's
        rng = random.Random(seed)
        phi = random_assignment(z_ball(radius), rng, rng.random() < 0.5)
        for (i, j) in rng.sample(sorted(phi.signs), rng.randint(1, 4)):
            with pytest.raises(TypeError):
                phi.signs[(i, j)] = phi.signs[(j, i)]
            with pytest.raises(TypeError):
                del phi.signs[(i, j)]
        assert astuple(check_axioms(phi)) == oracles.check_axioms(phi)

    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.integers(1, 3))
    def test_incomplete_assignment_raises_alike(self, seed, radius):
        rng = random.Random(seed)
        phi = random_assignment(z_ball(radius), rng, False)
        i, j = rng.choice(sorted(phi.signs))
        phi = OrderAssignment(phi.ball, {pair: s for pair, s in phi.signs.items()
                                         if pair not in ((i, j), (j, i))})
        assert outcome(check_axioms, phi) == outcome(oracles.check_axioms, phi)
        assert outcome(check_axioms, phi)[2] == "incomplete assignment"


INVARIANCE_SETS = {
    "z": ([U], z_ball),
    "z+inv": ([U, U.inverse()], z_ball),
    "identity": ([GroupMatrix.identity(2)], z_ball),
    "z2": ([A, B], z2_ball),
    "z2+inv": ([A, B, A.inverse(), B.inverse()], z2_ball),
}


class TestCheckInvarianceTwin:
    @settings(max_examples=80, deadline=None)
    @given(SEEDS, st.sampled_from(sorted(INVARIANCE_SETS)),
           st.integers(0, 3), st.integers(0, 2), st.booleans())
    def test_random_assignments(self, seed, name, inner_r, grow, total):
        # phi lives on inner_r + grow, so fg may leave its ball
        f, make = INVARIANCE_SETS[name]
        rng = random.Random(seed)
        inner = make(inner_r)
        phi = random_assignment(make(inner_r + grow), rng, total)
        fast = outcome(check_invariance, phi, f, inner)
        naive = outcome(oracles.check_invariance, phi, f, inner)
        if fast[0] == "value":
            fast = ("value", astuple(fast[1]))
        assert fast == naive

    def test_dropped_pairs_and_wider_inner_balls(self):
        # phi may lack pairs, and the inner ball may reach past phi's ball;
        # the draws reach every outcome, each raise included
        kinds = Counter()
        for seed in range(400):
            rng = random.Random(seed)
            f, make = INVARIANCE_SETS[rng.choice(sorted(INVARIANCE_SETS))]
            inner_r = rng.randint(0, 3)
            inner = make(inner_r)
            phi = random_assignment(make(max(inner_r + rng.randint(-2, 1), 0)), rng,
                                    rng.random() < 0.3)
            if rng.random() < 0.5:
                kept = {(i, j): s for (i, j), s in phi.signs.items()
                        if i < j and rng.random() > 0.05}
                phi = OrderAssignment(phi.ball, kept)
            fast = outcome(check_invariance, phi, f, inner)
            naive = outcome(oracles.check_invariance, phi, f, inner)
            if fast[0] == "value":
                fast = ("value", astuple(fast[1]))
            assert fast == naive
            kinds[fast[0] if fast[0] == "value" else fast[2]] += 1
        assert set(kinds) == {"value", "ball containment violated", "element not in ball",
                              "incomplete assignment"}, kinds

    def test_one_element_inner_ball_leaving_the_outer_ball(self):
        # e's image u lies outside the radius-0 ball, but there are no pairs
        e = z_ball(0)
        phi = OrderAssignment(e, {})
        assert astuple(check_invariance(phi, [U], e)) == (True, ())
        assert oracles.check_invariance(phi, [U], e) == (True, ())

    def test_repeated_inner_element_is_no_pair(self):
        # the pair loop skips g == h by value, as the twin does, not by position
        z = z_ball(1)
        inner = Ball(z.elements + z.elements[:1], z.generators, z.names, z.radius, z.words)
        phi = random_assignment(z_ball(2), random.Random(0), True)
        f = [GroupMatrix.identity(2)]
        assert astuple(check_invariance(phi, f, inner)) == oracles.check_invariance(phi, f, inner)

    def test_two_element_inner_ball_leaving_the_outer_ball(self):
        inner = ball_generate([GroupMatrix.from_rows([[-1, 0], [0, -1]])], 1, ["t"])
        phi = OrderAssignment(inner, {(0, 1): 1})
        got = outcome(check_invariance, phi, [U], inner)
        assert got == outcome(oracles.check_invariance, phi, [U], inner)
        assert got == ("raised", OrderingError, "ball containment violated")


def random_homeo(rng, size):
    xs = sorted({Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 8)))
                 for _ in range(size)})
    ys, y = [], Fraction(rng.randint(-20, 20), rng.choice((1, 2, 5)))
    for _ in xs:
        ys.append(y)
        y += Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 7)))
    return PLHomeo(tuple(zip(xs, ys)))


class TestPLEvaluationTwin:
    @settings(max_examples=80, deadline=None)
    @given(SEEDS, st.integers(1, 12))
    def test_every_kind_of_point(self, seed, size):
        rng = random.Random(seed)
        m = random_homeo(rng, size)
        xs = [x for x, _ in m.breakpoints]
        points = list(xs)                                     # breakpoints
        points += [(a + b) / 2 for a, b in zip(xs, xs[1:])]   # strictly between
        points += [a + (b - a) * Fraction(rng.randint(1, 99), 100) for a, b in zip(xs, xs[1:])]
        points += [xs[0] - Fraction(rng.randint(1, 50), 3),     # beyond the hull
                   xs[-1] + Fraction(rng.randint(1, 50), 7)]
        points += [int(x) for x in xs if x.denominator == 1]  # int inputs
        for x in points:
            assert m(x) == oracles.pl_eval(m, x)
            assert type(m(x)) is Fraction
        for end in (NEG_INF, POS_INF):
            assert m(end) is end is oracles.pl_eval(m, end)

    def test_breakpoint_indexes_are_not_fields(self):
        pts = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(5)))
        m, same = PLHomeo(pts), PLHomeo(tuple(reversed(pts)))
        assert m == same and hash(m) == hash(same)
        assert repr(m) == f"PLHomeo(breakpoints={pts!r})"


def random_displaced_map(rng, size):
    """A map drawn by its displacement d = y - x at each breakpoint, so that
    every kind of segment occurs: d zero (touch points, crossings at a
    breakpoint, flat runs meeting at a shared breakpoint), d repeated (slope
    one, on or off the diagonal), d changing sign (a crossing inside the
    segment) or keeping it.  The breakpoints are handed over in a random
    order."""
    x = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3)))
    d = rng.choice((Fraction(0), Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))))
    pts = [(x, x + d)]
    for _ in range(size - 1):
        gap = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 5)))
        sign = d or rng.choice((-1, 1))   # the sign to keep or flip, random after a zero
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        nd = rng.choice((Fraction(0), d, -sign * scale, sign * scale,
                         Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))))
        if gap + nd - d <= 0:   # y would not increase: keep slope one instead
            nd = d
        x, d = x + gap, nd
        pts.append((x, x + d))
    rng.shuffle(pts)
    return PLHomeo(tuple(pts))


class TestFixedSetTwin:
    """``fixed_set`` takes the displacement once per breakpoint and reads
    each segment off its two signs; its twin solves every segment's line."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(SEEDS, st.integers(1, 10))
    def test_random_maps(self, seed, size):
        m = random_displaced_map(random.Random(seed), size)
        got = fixed_set(m)
        assert got == oracles.fixed_set(m)
        assert all(type(v) is Fraction for v in got.points + sum(got.intervals, ()))

    @pytest.mark.parametrize("pts, points, intervals", [
        # d = -1, 2: one crossing inside the segment, not at its middle
        (((0, -1), (4, 6)), (Fraction(4, 3),), ()),
        # d = -1, 0, 2: a crossing at a breakpoint, seen by both segments
        (((0, -1), (2, 2), (4, 6)), (2,), ()),
        # d = 1, 0, 1 and -1, 0, -1: touch points
        (((0, 1), (2, 2), (4, 5)), (2,), ()),
        (((0, -1), (2, 2), (4, 3)), (2,), ()),
        # d = 0, 0, 0, 1: two flat runs merged at their shared breakpoint
        (((0, 0), (1, 1), (3, 3), (4, 5)), (), ((0, 3),)),
        # d = 0, 0, 1, 0, 0: flat runs apart, their ends absorbed
        (((0, 0), (1, 1), (2, 3), (5, 5), (6, 6)), (), ((0, 1), (5, 6))),
        # d = 2, 2, 2 and -2, -2, 0: slope one off the diagonal
        (((0, 2), (3, 5), (4, 6)), (), ()),
        (((0, -2), (3, 1), (5, 5)), (5,), ()),
        # one breakpoint, on and off the diagonal
        (((2, 2),), (2,), ()),
        (((2, 3),), (), ()),
    ])
    def test_each_kind_of_segment(self, pts, points, intervals):
        m = PLHomeo(pts)
        got = fixed_set(m)
        assert got == oracles.fixed_set(m)
        assert (got.points, got.intervals) == (points, intervals)


def random_realization(rng):
    """A ball in its natural order (the Heisenberg ball in entry order),
    realized on a random part of it."""
    kind = rng.random()
    if kind < 1 / 3:
        ball = z_ball(rng.randint(1, 4))
        key = lambda m: m.entries[1]  # noqa: E731
    elif kind < 2 / 3:
        ball = z2_ball(rng.randint(1, 2))
        key = lambda m: (m.entries[1], m.entries[2])  # noqa: E731
    else:
        # non-abelian: a row composed as s h instead of h s differs here
        ball = heisenberg_ball(rng.randint(1, 2))
        key = lambda m: m.entries  # noqa: E731
    order = OrderAssignment.from_total_order(ball, sorted(ball.elements, key=key))
    enumeration = list(ball.elements)
    rng.shuffle(enumeration)
    enumeration = enumeration[:rng.randint(1, len(enumeration))]
    return ball, key, realize(enumeration, order)


def random_bundle(rng):
    """A partly realized ball, some of its maps, and its unrealized elements."""
    ball, key, rm = random_realization(rng)
    maps = []
    for g in rng.sample(ball.elements, rng.randint(1, len(ball))):
        try:
            maps.append(generator_pl_map(rm, g, ball, label=str(key(g))))
        except RealizeError:
            pass   # nothing of the ball maps into the realized part
    return rm, maps, [g for g in ball.elements if g not in rm]


def corrupt(rng, gm, unrealized):
    """One random fault in one map: a moved image or a foreign domain point."""
    pts = list(gm.homeo.breakpoints)
    domain = gm.domain
    if unrealized and rng.random() < 0.25:
        domain = domain + (rng.choice(unrealized),)
    else:
        k = rng.randrange(len(pts))
        lo = pts[k - 1][1] if k > 0 else pts[k][1] - 4
        hi = pts[k + 1][1] if k + 1 < len(pts) else pts[k][1] + 4
        y = lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)
        pts[k] = (pts[k][0], y)
    return GeneratorMap(gm.element, gm.word, PLHomeo(tuple(pts)), domain)


class TestVerifyRealizationTwin:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.integers(0, 3))
    def test_random_corrupted_bundles(self, seed, faults):
        rng = random.Random(seed)
        rm, maps, unrealized = random_bundle(rng)
        if not maps:
            return
        for _ in range(faults):
            k = rng.randrange(len(maps))
            maps[k] = corrupt(rng, maps[k], unrealized)
        if rng.random() < 0.2:
            maps.append(rng.choice(maps))   # a repeated map element
        fast = outcome(verify_realization, rm, maps)
        if fast[0] == "value":
            fast = ("value", astuple(fast[1]))
        assert fast == outcome(oracles.verify_realization, rm, maps)

    def test_unrealized_domain_point_raises_alike(self):
        ball = z_ball(2)
        order = OrderAssignment.from_total_order(
            ball, sorted(ball.elements, key=lambda m: m.entries[1]))
        rm = realize([U ** 0, U, U ** -1], order)
        gm = generator_pl_map(rm, U ** -1, ball, label="-1")
        bad = GeneratorMap(gm.element, gm.word, gm.homeo, gm.domain + (U ** 2,))
        got = outcome(verify_realization, rm, [bad])
        assert got == outcome(oracles.verify_realization, rm, [bad])
        assert got == ("raised", RealizeError, "element not realized")

    def test_composition_of_unrealized_product_is_made(self):
        # realized on {u^-1, e, u}: u^2 is not realized, so the composition
        # (u, u) cannot read u^2 off u's row and makes the product; the
        # corrupted map of u^2 then fails there
        ball = z_ball(3)
        order = OrderAssignment.from_total_order(
            ball, sorted(ball.elements, key=lambda m: m.entries[1]))
        rm = realize([U ** 0, U, U ** -1], order)
        maps = [generator_pl_map(rm, U ** k, ball, label=str(k)) for k in (1, -1, 2, -2)]
        assert U ** 2 not in rm
        gm = maps[2]
        (x, y), = gm.homeo.breakpoints
        maps[2] = GeneratorMap(gm.element, gm.word, PLHomeo(((x, y - Fraction(1, 2)),)),
                               gm.domain)
        got = verify_realization(rm, maps)
        assert ("value", astuple(got)) == outcome(oracles.verify_realization, rm, maps)
        assert got.equivariance_failures == ("2: map(t(x)) != t(g*x) at t(x)=-1",)
        assert got.composition_failures == (
            "compose mismatch at t=-1", "compose mismatch at t=-1", "compose mismatch at t=0")


class TestRoundTripTwin:
    """``order_from_realization`` reads ranks; its twin keys by Fractions."""

    @staticmethod
    def agree(rm, ball):
        got = outcome(order_from_realization, rm, ball)
        want = outcome(oracles.order_from_realization, rm, ball)
        if got[0] == want[0] == "value":
            got, want = got[1].signs, want[1].signs
        assert got == want
        return got

    @settings(max_examples=80, deadline=None)
    @given(SEEDS)
    def test_random_realizations(self, seed):
        ball, _key, rm = random_realization(random.Random(seed))
        self.agree(rm, ball)

    def test_each_outcome_is_met(self):
        ball = z_ball(3)
        order = OrderAssignment.from_total_order(
            ball, sorted(ball.elements, key=lambda m: m.entries[1]))
        power = {m.entries[1]: m for m in ball.elements}
        whole = realize(list(reversed(ball.elements)), order)
        assert self.agree(whole, ball) == order.signs
        part = realize([power[0], power[1]], order)
        assert self.agree(part, ball) == (
            "raised", OrderingError,
            "probes insufficient: no probe is realized for both elements")
        # ordered by exponent as -2, -1, 2, 0, 1: skipping the probes with a
        # missing image, the comparator puts u^-2 above u^0 although the
        # sorted result puts it below
        small = z_ball(2)
        scrambled = OrderAssignment.from_total_order(
            small, [power[k] for k in (-2, -1, 2, 0, 1)])
        assert self.agree(realize(list(small.elements), scrambled), small) == (
            "raised", OrderingError, "probe order not transitive at this scale")

    @pytest.mark.parametrize("keys, cause", [
        # the first element is below the others, and the last two have
        # images under disjoint probes only
        ([(0, 0), (1, None), (None, 1)], "no probe is realized for both elements"),
        # the last two share one probe, and it gives both the same image
        ([(0, 0), (1, 1), (1, None)],
         "every shared probe agrees (action not almost free at this scale)"),
    ])
    def test_insufficient_probes_name_their_cause(self, keys, cause):
        ball = z_ball(1)
        got = outcome(order_from_probe_keys, ball, keys)
        assert got == outcome(oracles.order_from_probe_keys, ball, dict(zip(ball.elements, keys)))
        assert got == ("raised", OrderingError, f"probes insufficient: {cause}")


class TestComposedRowTwin:
    """``Ball.row`` composes rows along the ball's words; its twin makes one
    product per element and looks it up."""

    @staticmethod
    def random_ball(rng):
        mod = rng.choice((None, 5))
        kind = rng.randrange(3)
        if kind == 0:
            return ball_generate([elementary(2, 1, 2, 1, mod)], rng.randint(0, 5), ["g"])
        if kind == 1:
            gens = [elementary(3, 1, 2, 1, mod), elementary(3, 1, 3, 1, mod)]
            return ball_generate(gens, rng.randint(0, 2), ["a", "b"])
        gens = [elementary(3, 1, 2, 1, mod), elementary(3, 2, 3, 1, mod)]
        return ball_generate(gens, rng.randint(0, 2), ["u12", "u23"])

    @settings(max_examples=80, deadline=None)
    @given(SEEDS)
    def test_composed_rows_are_direct_rows(self, seed):
        # over Z and Z/5, rows asked for in a random order (a row may need its
        # prefix's, not yet made), and elements outside the ball too
        rng = random.Random(seed)
        ball = self.random_ball(rng)
        elems = list(ball.elements)
        far = [rng.choice(elems) * rng.choice(elems) * g for g in ball.generators]
        asked = elems + far + [g ** 3 for g in far]
        rng.shuffle(asked)
        for g in asked:
            assert list(ball.row(g)) == oracles.ball_row(ball, g)
            assert ball.row(g) is ball.row(g)   # made once and kept

    @pytest.mark.parametrize("radius", [1, 2])
    def test_words_that_do_not_check_get_direct_rows(self, radius):
        # hand-made Heisenberg balls whose words are read backwards (s h for
        # h s) or shuffled among the elements: a composition that trusted
        # the words would read the wrong element's row
        ball = heisenberg_ball(radius)
        shuffled = list(ball.words.values())
        random.Random(radius).shuffle(shuffled)
        for words in ({g: w[::-1] for g, w in ball.words.items()},
                      dict(zip(ball.words, shuffled))):
            odd = Ball(ball.elements, ball.generators, ball.names, ball.radius, words)
            assert [list(odd.row(g)) for g in ball.elements] == [
                oracles.ball_row(odd, g) for g in ball.elements]

    @pytest.mark.parametrize("foreign", [GroupMatrix.identity(2), GroupMatrix.identity(3, 5)],
                             ids=["dimension", "modulus"])
    def test_foreign_element_raises_alike(self, foreign):
        ball = heisenberg_ball(1)
        with pytest.raises(MatrixError) as fast:
            ball.row(foreign)
        with pytest.raises(MatrixError) as naive:
            oracles.ball_row(ball, foreign)
        assert str(fast.value) == str(naive.value)


def random_probe_keys(rng, size):
    """Keys of one width with None holes and values in {0, 1, 2}, so that
    shared probes often agree before one differs."""
    width, holes = rng.randint(0, 5), rng.random()
    return [[None if rng.random() < holes else rng.randint(0, 2) for _ in range(width)]
            for _ in range(size)]


def passes_an_agreeing_probe(keys):
    """Whether some pair agrees at its first shared probe and differs later."""
    for ka in keys:
        for kb in keys:
            shared = [(a, b) for a, b in zip(ka, kb) if a is not None and b is not None]
            if shared and shared[0][0] == shared[0][1] and any(a != b for a, b in shared):
                return True
    return False


class TestProbeKeyTwin:
    """``order_from_probe_keys`` visits the set bits of two keys' shared
    masks; its twin walks every probe of both keys."""

    @staticmethod
    def agree(ball, keys):
        got = outcome(order_from_probe_keys, ball, keys)
        want = outcome(oracles.order_from_probe_keys, ball, dict(zip(ball.elements, keys)))
        if got[0] == want[0] == "value":
            got, want = got[1].signs, want[1].signs
        assert got == want
        return got

    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_random_keys(self, seed):
        rng = random.Random(seed)
        ball = z_ball(rng.randint(0, 3))
        self.agree(ball, random_probe_keys(rng, len(ball)))

    def test_each_outcome_is_met(self):
        met, scanned = set(), False
        for seed in range(400):
            rng = random.Random(seed)
            ball = z_ball(rng.randint(0, 3))
            keys = random_probe_keys(rng, len(ball))
            got = self.agree(ball, keys)
            met.add("order" if isinstance(got, Mapping) else got[2])
            scanned = scanned or passes_an_agreeing_probe(keys)
        assert scanned
        assert met == {
            "order",
            "probes insufficient: no probe is realized for both elements",
            "probes insufficient: every shared probe agrees (action not almost free at this scale)",
            "probe order not transitive at this scale",
        }


# -- first-point maps against the whole path of oracles.first_point_map -------


def tree_outcome(fn, *args):
    """The value fn returns, or the message of the TreeError it raises."""
    try:
        return "value", fn(*args)
    except TreeError as exc:
        return "raised", str(exc)


def connected_subset(tree, rng):
    """A random vertex grown by random neighbours, a random number of times."""
    adj = tree.adjacency
    sub = {rng.choice(tree.vertices)}
    for _ in range(rng.randrange(len(tree.vertices))):
        frontier = sorted({y for v in sub for y in adj[v]} - sub)
        if not frontier:
            break
        sub.add(rng.choice(frontier))
    return sub


class TestFirstPointTwin:
    """``trees.first_point_map`` stops at the nearest subtree vertex."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30), SEEDS,
           st.sampled_from(["connected", "random", "stray", "empty"]),
           st.sampled_from(["inside", "outside", "missing"]), st.booleans())
    def test_random_trees(self, size, seed, subset_kind, x_kind, forest):
        rng = random.Random(seed)
        tree = pruefer_tree(size, rng)
        if forest and tree.edges:
            # one edge dropped: x may lie in another component than the subtree
            edges = list(tree.edges)
            edges.pop(rng.randrange(len(edges)))
            tree = Tree(tree.vertices, tuple(edges))
        sub = {
            "connected": lambda: connected_subset(tree, rng),
            "random": lambda: set(rng.sample(tree.vertices, rng.randint(1, size))),
            "stray": lambda: connected_subset(tree, rng) | {"zz"},
            "empty": set,
        }[subset_kind]()
        rest = sorted(set(tree.vertices) - sub) or list(tree.vertices)
        x = {"inside": lambda: rng.choice(sorted(sub or tree.vertices)),
             "outside": lambda: rng.choice(rest),
             "missing": lambda: "nope"}[x_kind]()
        got = tree_outcome(first_point_map, tree, sub, x)
        assert got == tree_outcome(oracles.first_point_map, tree, sub, x)

    def test_each_outcome_is_met(self):
        # the path v0 - v1 - v2 - v3, and the forest without its middle edge
        path = Tree(("v0", "v1", "v2", "v3"), (("v0", "v1"), ("v1", "v2"), ("v2", "v3")))
        forest = Tree(path.vertices, (("v0", "v1"), ("v2", "v3")))
        for t, sub, x, want in [
            (path, {"v0", "v1"}, "v3", ("value", "v1")),
            (path, {"v2", "v3"}, "v2", ("value", "v2")),
            (path, {"v0", "v2"}, "v3", ("raised", "subtree required")),
            (path, {"v1", "zz"}, "v3", ("raised", "subtree required")),
            (path, {"v1"}, "nope", ("raised", "vertex not in tree")),
            (forest, {"v0", "v1"}, "v3", ("raised", "vertices not connected")),
        ]:
            got = tree_outcome(first_point_map, t, sub, x)
            assert got == tree_outcome(oracles.first_point_map, t, sub, x) == want


# -- parent-list trees against the same edges given as strings -----------------

# "sound" names its vertices v0, v1, ... in index order, so that v10 sorts
# before v9; "shuffled" is sound too, with the names shuffled; the rest are not
PARENT_KINDS = ["sound", "shuffled", "root", "later", "self", "negative", "short", "long",
                "duplicate"]


def parent_list_case(kind, size, rng):
    """Vertex names and a parent list, sound (each vertex but the root hung
    from a random earlier one) or broken in the given way; a broken kind
    needs at least three vertices."""
    names = [f"v{i}" for i in range(size)]
    parent = [0] + [rng.randrange(i) for i in range(1, size)]
    i = rng.randrange(1, size - 1) if size > 2 else 0
    if kind == "shuffled":
        rng.shuffle(names)
    elif kind == "root":
        parent[0] = rng.randrange(1, size)
    elif kind == "later":
        parent[i] = rng.randrange(i + 1, size)
    elif kind == "self":
        parent[i] = i
    elif kind == "negative":
        parent[i] = -rng.randint(1, size)
    elif kind == "short":
        del parent[rng.randrange(size):]
    elif kind == "long":
        parent.append(rng.randrange(size))
    elif kind == "duplicate":
        names[i] = names[rng.choice([j for j in range(size) if j != i])]
    return names, parent


def degree_outcome(t, v):
    try:
        return t.degree(v)
    except TreeError as exc:
        return str(exc)


class TestFromParentsTwin:
    """``Tree.from_parents`` refuses a parent list that is not sound, with
    one message; it keeps a sound one and answers from it as the tree of
    the same edges given as strings."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(PARENT_KINDS[2:]), st.integers(3, 30), SEEDS)
    def test_unsound_parent_lists(self, kind, size, seed):
        names, parent = parent_list_case(kind, size, random.Random(seed))
        assert tree_outcome(Tree.from_parents, names, parent) == (
            "raised", "parent list is not sound")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(PARENT_KINDS[:2]), st.integers(1, 30), SEEDS)
    def test_random_parent_lists(self, kind, size, seed):
        rng = random.Random(seed)
        names, parent = parent_list_case(kind, size, rng)
        tree = Tree.from_parents(names, parent)
        plain = Tree(names, [(names[u], v) for u, v in zip(parent[1:], names[1:])])
        assert tree._parent == parent
        assert (tree.vertices, tree.edges) == (plain.vertices, plain.edges)
        probes = names + ["zz"]

        def answers(t):
            return (validate_tree(t), t.leaves(), [v in t for v in probes],
                    [degree_outcome(t, v) for v in probes])

        assert answers(tree) == answers(plain) and validate_tree(plain)
        # connected, foreign, random and empty subsets, and two vertices apart
        u = rng.choice(names)
        apart = sorted(set(names) - {u} - set(plain.adjacency[u]))
        subsets = [connected_subset(plain, rng), connected_subset(plain, rng) | {"zz"},
                   set(rng.sample(names, rng.randint(1, size))), set()]
        subsets += [{u, rng.choice(apart)}] if apart else []
        for sub in subsets:
            x = rng.choice(sorted(sub - {"zz"}) if sub and rng.random() < 0.5 else probes)
            got = tree_outcome(first_point_map, tree, sub, x)
            assert got == tree_outcome(oracles.first_point_map, plain, sub, x)
        # a sound parent list answers all of that without an adjacency
        assert "adjacency" not in vars(tree)
        assert tree.adjacency == plain.adjacency == oracles.adjacency(plain)

    def test_each_outcome_is_met(self):
        # the path v0 - v1 - v2 - v3 hung from v0, and v4 hung from v1
        t = Tree.from_parents(["v0", "v1", "v2", "v3", "v4"], [0, 0, 1, 2, 1])
        for sub, x, want in [
            ({"v2", "v3"}, "v4", ("value", "v2")),   # up from v4 misses sub: its top, v2
            ({"v0", "v1"}, "v3", ("value", "v1")),   # up from v3 meets v1 first
            ({"v1", "v2"}, "v2", ("value", "v2")),
            ({"v2", "v4"}, "v0", ("raised", "subtree required")),
            ({"v1", "zz"}, "v0", ("raised", "subtree required")),
            (set(), "v0", ("raised", "subtree required")),
            ({"v1"}, "nope", ("raised", "vertex not in tree")),
        ]:
            got = tree_outcome(first_point_map, t, sub, x)
            assert got == tree_outcome(oracles.first_point_map, t, sub, x) == want


# -- paths and automorphisms against the string searches of oracles ------------

# a Pruefer tree, the forest left when one of its edges is dropped, and trees
# made from sound parent lists, with names in index order or shuffled
TREE_KINDS = ["pruefer", "forest", "sound", "shuffled"]
MAP_KINDS = ["automorphism", "identity", "shuffled", "swap", "missing", "extra", "collapse",
             "foreign"]


def tree_case(kind, size, rng):
    """A tree of the given kind, and the string-edge tree it was cut from
    (itself, for a Pruefer tree) that random automorphisms are drawn on."""
    if kind in ("sound", "shuffled"):
        tree = Tree.from_parents(*parent_list_case(kind, size, rng))
        return tree, Tree(tree.vertices, tree.edges)
    whole = pruefer_tree(size, rng)
    if kind == "pruefer" or not whole.edges:
        return whole, whole
    edges = list(whole.edges)
    edges.pop(rng.randrange(len(edges)))
    return Tree(whole.vertices, tuple(edges)), whole


def random_map(kind, t, rng):
    """An automorphism of t fixing a random leaf, or a map on t's vertices
    that is the identity, shuffled, two swapped, or broken by a missing or
    extra key, two vertices sent to one, or an image outside t."""
    vs = list(t.vertices)
    if kind == "automorphism" and len(vs) > 1:
        return oracles.random_automorphism_fixing_leaf(t, rng.choice(t.leaves()), rng)
    image = dict(zip(vs, rng.sample(vs, len(vs)) if kind == "shuffled" else vs))
    a, b = rng.choice(vs), rng.choice(vs)
    if kind == "swap":
        image[a], image[b] = b, a
    elif kind == "missing":
        del image[a]
    elif kind == "extra":
        image["zz"] = "zz"
    elif kind == "collapse":
        image[a] = b
    elif kind == "foreign":
        image[a] = "zz"
    return TreeAutomorphism(image)


class TestRootedFormTwin:
    """``trees.path`` climbs the rooted form and ``trees.is_tree_automorphism``
    reads each edge's image as a parent and child of it; their twins search
    the string adjacency and the set of edges.  A tree made from a sound
    parent list answers both without an adjacency."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(TREE_KINDS), st.integers(1, 30), SEEDS)
    def test_paths(self, kind, size, seed):
        rng = random.Random(seed)
        tree, _whole = tree_case(kind, size, rng)
        probes = list(tree.vertices) + ["zz"]
        for _ in range(10):
            a, b = rng.choice(probes), rng.choice(probes)
            assert tree_outcome(path, tree, a, b) == tree_outcome(oracles.path, tree, a, b)
        assert "adjacency" not in vars(tree) or kind not in PARENT_KINDS

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(TREE_KINDS), st.integers(1, 12), SEEDS, st.sampled_from(MAP_KINDS))
    def test_automorphisms(self, kind, size, seed, map_kind):
        rng = random.Random(seed)
        tree, whole = tree_case(kind, size, rng)
        a = random_map(map_kind, whole, rng)
        assert is_tree_automorphism(tree, a) == oracles.is_tree_automorphism(tree, a)
        assert "adjacency" not in vars(tree) or kind not in PARENT_KINDS

    def test_each_outcome_is_met(self):
        # the path v0 - v1 - v2 - v3, the forest without its middle edge,
        # and v0 - v1 - v2 - v3 hung from v0 with v4 hung from v1
        line = Tree(("v0", "v1", "v2", "v3"), (("v0", "v1"), ("v1", "v2"), ("v2", "v3")))
        forest = Tree(line.vertices, (("v0", "v1"), ("v2", "v3")))
        hung = Tree.from_parents(["v0", "v1", "v2", "v3", "v4"], [0, 0, 1, 2, 1])
        for t, a, b, want in [
            (line, "v3", "v0", ("value", ["v3", "v2", "v1", "v0"])),
            (forest, "v1", "v0", ("value", ["v1", "v0"])),
            (forest, "v0", "v3", ("raised", "vertices not connected")),
            (hung, "v4", "v3", ("value", ["v4", "v1", "v2", "v3"])),
            (hung, "v2", "zz", ("raised", "vertex not in tree")),
        ]:
            assert tree_outcome(path, t, a, b) == tree_outcome(oracles.path, t, a, b) == want
        flip = TreeAutomorphism({"v0": "v3", "v1": "v2", "v2": "v1", "v3": "v0"})
        swap = TreeAutomorphism({"v0": "v0", "v1": "v1", "v2": "v2", "v3": "v4", "v4": "v3"})
        for t, a, want in [
            (line, flip, (True, None)),
            (forest, flip, (True, None)),
            (hung, flip, (False, "domain mismatch")),
            (hung, TreeAutomorphism({**swap.mapping, "v4": "v4"}), (False, "not a bijection")),
            (hung, swap, (False, "edge (v1,v4) not preserved")),
        ]:
            got = is_tree_automorphism(t, a)
            assert got == oracles.is_tree_automorphism(t, a) and (got.ok, got.reason) == want
        assert "adjacency" not in vars(hung)


class TestAdjacencyTwin:
    """``Tree.adjacency`` lists each vertex's neighbours in the order the
    sorted edges give them, which is sorted: each list is sorted on its own
    in the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 14), st.integers(0, 30), SEEDS)
    def test_random_edge_lists(self, size, count, seed):
        rng = random.Random(seed)
        # v10 sorts before v9; a few duplicate vertices, self-loops, repeated
        # edges and endpoints outside the vertices
        names = [f"v{i}" for i in range(size)] + ["v1", "v10"][:rng.randrange(3)]
        rng.shuffle(names)
        ends = names + ["zz", "v99"]
        edges = [(rng.choice(ends), rng.choice(ends)) for _ in range(count)]
        edges += rng.sample(edges, min(len(edges), rng.randrange(3)))
        t = Tree(tuple(names), tuple(edges))
        adj = oracles.adjacency(t)
        assert t.adjacency == adj
        # leaves, degree and membership read one degree table
        assert t.leaves() == tuple(v for v in sorted(t.vertices) if len(adj[v]) == 1)
        for v in ends:
            assert (v in t) == (v in adj)
            if v in adj:
                assert t.degree(v) == len(adj[v])
            else:
                with pytest.raises(TreeError, match="vertex not in tree"):
                    t.degree(v)


# -- tower orbits against the two-sided search of oracles.orbit -----------------

TOWERS = {npd: build_congruence_tower(*npd)
          for npd in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 1)]}
LOADED = {npd: system_from_json(system_to_json(sys_)) for npd, sys_ in TOWERS.items()}
CAPS = st.one_of(st.none(), st.integers(0, 5))


def orbit_outcome(act, v, cap):
    res = orbit(act, v, cap)
    return res.vertices, res.closed


class TestOrbitTwin:
    """``tower.orbit`` walks the generators alone when it has no cap."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(TOWERS)), SEEDS, CAPS, st.booleans())
    def test_towers(self, npd, seed, cap, decorated):
        rng = random.Random(seed)
        sys_ = TOWERS[npd]
        act = sys_.levels[rng.randrange(len(sys_.levels))]
        if decorated:
            act = oracles.decorated_action(
                attach_decorations(sys_, rng.choice(sys_.levels[-1].tree.leaves())))
        v = rng.choice(act.tree.vertices)
        assert orbit_outcome(act, v, cap) == oracles.orbit(act, v, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(TOWERS)), SEEDS, CAPS)
    def test_loaded_towers(self, npd, seed, cap):
        # a tower read from its file has no numbering: the walk reads its strings
        rng = random.Random(seed)
        a = rng.randrange(len(TOWERS[npd].levels))
        act = LOADED[npd].levels[a]
        v = rng.choice(act.tree.vertices)
        assert orbit_outcome(act, v, cap) == oracles.orbit(act, v, cap)
        assert orbit_outcome(act, v, cap) == orbit_outcome(TOWERS[npd].levels[a], v, cap)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), SEEDS, st.integers(1, 3), CAPS)
    def test_random_tree_actions(self, size, seed, gens, cap):
        rng = random.Random(seed)
        tree = pruefer_tree(size, rng)
        e = tree.leaves()[0]
        act = FiniteTreeAction(tree, {
            f"g{k}": oracles.random_automorphism_fixing_leaf(tree, e, rng) for k in range(gens)
        })
        act.validate()
        v = rng.choice(tree.vertices)
        assert orbit_outcome(act, v, cap) == oracles.orbit(act, v, cap)


class TestDegreeProfileTwin:
    """``tower.degree_profile`` reads each level tree's degree table: a
    level's largest degree is its largest neighbour count, 0 when empty."""

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("npd", sorted(TOWERS))
    def test_towers(self, npd, loaded):
        sys_ = (LOADED if loaded else TOWERS)[npd]
        assert degree_profile(sys_).max_degrees == tuple(
            max(map(len, oracles.adjacency(act.tree).values()), default=0)
            for act in sys_.levels)


def growth_outcome(fn, sys_, dec, x, cap):
    try:
        return "value", fn(sys_, dec, x, cap)
    except TowerError as exc:
        return "raised", str(exc)


GROWTH_KINDS = ["vertex", "anchor", "mid", "tip", "outside"]


class TestProjectionGrowthTwin:
    """``tower.projection_orbit_growth`` projects through a pendant's anchor
    in the deepest level, never making the decorated tree, and without a
    cap reads a pendant's deepest orbit off the decoration."""

    @staticmethod
    def agree(sys_, dec, rng, kind, cap):
        pendant = rng.choice(dec.pendants)
        x = {"vertex": rng.choice(sys_.levels[-1].tree.vertices), "anchor": pendant.anchor,
             "mid": pendant.mid, "tip": pendant.tip, "outside": "pend0t"}[kind]
        got = growth_outcome(projection_orbit_growth, sys_, dec, x, cap)
        assert got == growth_outcome(oracles.projection_orbit_growth, sys_, dec, x, cap)
        return got

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(TOWERS)), SEEDS, st.sampled_from(GROWTH_KINDS),
           st.one_of(st.none(), st.integers(0, 4)))
    def test_towers(self, npd, seed, kind, cap):
        rng = random.Random(seed)
        sys_ = TOWERS[npd]
        dec = attach_decorations(sys_, rng.choice(sys_.levels[-1].tree.leaves()))
        got = self.agree(sys_, dec, rng, kind, cap)
        if kind == "outside":
            assert got == ("raised", "vertex not in decorated tree")

    @pytest.mark.parametrize("kind", GROWTH_KINDS[:-1])
    def test_uncapped_on_four_levels(self, kind):
        sys_ = TOWERS[(2, 2, 3)]
        rng = random.Random(kind)
        dec = attach_decorations(sys_, sys_.levels[-1].tree.leaves()[-1])
        got = self.agree(sys_, dec, rng, kind, None)
        assert got[0] == "value" and len(got[1].sizes) == 4 and all(got[1].closed)


def mutate(num, kind, rng):
    """Apply one mutation of the given kind to a numbering's lists in place."""
    counts, size = num.counts, len(num.ids)
    # the vertices level a adds to level a-1, for a >= 1
    new = [range(lo, hi) for lo, hi in zip(counts, counts[1:])]
    image = rng.choice(num.images)
    if kind == "parent-later":
        v = rng.randrange(1, size - 1)
        num.parent[v] = rng.randrange(v + 1, size)
    elif kind == "parent-own-level":
        block = rng.choice(new)
        v = rng.choice(block)
        num.parent[v] = rng.choice([w for w in block if w != v])
    elif kind == "swap-within-level":
        i, j = rng.sample(rng.choice(new), 2)
        image[i], image[j] = image[j], image[i]
    elif kind == "swap-across-levels":
        low, high = sorted(rng.sample(range(len(new)), 2)) if len(new) > 1 else (0, 0)
        i, j = rng.choice(range(counts[low])), rng.choice(new[high])
        image[i], image[j] = image[j], image[i]
    elif kind == "image-outside-level":
        a = rng.randrange(len(counts) - 1)
        image[rng.randrange(counts[a])] = rng.randrange(counts[a], size)
    elif kind == "level-its-own-parents":
        # the generators still commute with parent
        for v in rng.choice(new):
            num.parent[v] = v
    elif kind == "merge-sibling-images":
        # the generator still commutes with parent
        v = rng.randrange(1, size)
        sibling = rng.choice([u for u in range(1, size) if num.parent[u] == num.parent[v]])
        image[v] = image[sibling]
    elif kind == "pendant-named-id":
        num.ids[rng.choice([1, size - 1])] = f"pend{rng.randrange(1, 4)}{rng.choice('mt')}"
    elif kind == "names-out-of-order":
        # the same views, with the numbering's lists no longer in name order
        num.names.reverse()
        num.images.reverse()
    else:
        i, j = rng.sample(range(size), 2)
        num.ids[j] = num.ids[i]


def caught(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except (TowerError, KeyError) as exc:
        return "raised", type(exc), str(exc)


def tower_outcomes(sys_, seed):
    return (
        [caught(act.validate) for act in sys_.levels],
        caught(verify_all_bonds, sys_),
        [caught(verify_bond_structure, sys_, a) for a in range(len(sys_.bonds))],
        caught(verify_tower, sys_),
        caught(lambda: tuple(attach_decorations(sys_, seed).pendants)),
    )


MUTATIONS = ["none", "parent-later", "parent-own-level", "level-its-own-parents",
             "swap-within-level", "swap-across-levels", "image-outside-level",
             "merge-sibling-images", "pendant-named-id", "names-out-of-order", "duplicate-id"]

# Numberings no tower has, each with one generator g: (ids, parent, g's
# images, counts).  Each breaks a view in a way that no check of the
# numbering but one would see.
HAND_MADE = {
    # parent closes a cycle through the root, and g = parent rotates it
    "root-parent-cycle": (["a", "b", "c"], [2, 0, 1], [2, 0, 1], [3]),
    # -1 stands for the last vertex, 2, in parent and in g alike: 1 hangs
    # from 2 and 2 from 1, so the view has the edge b-c twice
    "negative-index": (["a", "b", "c"], [0, -1, 1], [0, 1, -1], [3]),
    # the root of level 0 goes to level 1, whose vertex is its own parent
    "root-image-outside": (["a", "b"], [0, 1], [1, 0], [1, 2]),
    # g sends both leaves of a star to the first
    "merged-images": (["a", "b", "c"], [0, 0, 0], [0, 1, 1], [3]),
    "empty-first-level": (["a"], [0], [0], [0, 1]),
    # an empty level of a numbering with more than one edge has no edge
    "empty-first-level-of-a-star": (["a", "b", "c"], [0, 0, 0], [0, 1, 2], [0, 3]),
    # the deepest level leaves out vertex 1, which g reaches from the root
    "top-short-of-numbering": (["a", "b"], [0, 0], [1, 0], [1]),
    "shrinking-level": (["a", "b"], [0, 0], [0, 1], [2, 1, 2]),
    # vertex 2 has no parent, so the view has no edge to it
    "short-parent-list": (["a", "b", "c"], [0, 0], [0, 1, 2], [3]),
    # b and c hang from each other, away from the root
    "cycle-off-the-root": (["a", "b", "c"], [0, 2, 1], [0, 1, 2], [3]),
    # c hangs from b, a vertex of its own level: the bond sends c off level 0
    "grandchild-in-one-level": (["a", "b", "c"], [0, 0, 1], [0, 1, 2], [1, 3]),
    # g swaps two leaves of the root that levels 1 and 2 add
    "leaf-swapped-across-levels": (["a", "b", "c"], [0, 0, 0], [0, 2, 1], [1, 2, 3]),
    # g swaps the two ends of a path, which is no automorphism
    "path-ends-swapped": (["a", "b", "c"], [0, 0, 1], [0, 2, 1], [3]),
    # b hangs from c, which level 0 leaves out
    "parent-past-its-level": (["a", "b", "c"], [0, 2, 0], [0, 1, 2], [2, 3]),
    # -1 stands for c, the last vertex of the numbering, not b, the last of level 0
    "negative-parent-in-a-lower-level": (["a", "b", "c"], [0, -1, 0], [0, 1, 2], [2, 3]),
}


# Numberings whose views leave part of them out, so that the views pass
# every string check though the verdict does not hold: (ids, parent,
# images, counts, names).
PARTLY_VIEWED = {
    # the views keep one generator per distinct name that has an image list
    "repeated-name": (["a", "b", "c"], [0, 0, 0], [[0, 1, 2], [0, 2, 1]], [1, 3], ["g", "g"]),
    "name-without-images": (["a", "b", "c"], [0, 0, 0], [[0, 1, 2], [0, 2, 1]], [1, 3],
                            ["g", "h", "k"]),
    # as many image lists as distinct names, but g's second list hides its first
    "repeated-name-beside-one-without-images": (
        ["a", "b", "c"], [0, 0, 0], [[0, 1, 2], [0, 2, 1]], [1, 3], ["g", "g", "h"]),
    # no level holds the vertex named like the first pendant's middle
    "vertex-past-the-deepest-level": (["a", "pend1m"], [0, 0], [[0, 1]], [1], ["g"]),
}


def plain_copy(sys_):
    """The system with no numbering: each level's tree made again from its
    vertices and edges, so that it answers from its strings, and its maps
    and bonds copied into plain dicts."""
    return InverseSystem(
        [FiniteTreeAction(Tree(act.tree.vertices, act.tree.edges), dict(act.generators))
         for act in sys_.levels],
        [dict(bond) for bond in sys_.bonds], sys_.provenance, sys_.matrices)


def viewed_system(num, provenance, matrices):
    """The system of a numbering's views as ``oracles.numbered_views`` and
    ``oracles.numbered_edges`` make them, vertex by vertex, with no
    numbering: each level's tree has its vertices and edges as strings."""
    (gens, bonds), edges = oracles.numbered_views(num), oracles.numbered_edges(num)
    return InverseSystem(
        [FiniteTreeAction(Tree(num.ids[:size], level_edges), maps)
         for size, maps, level_edges in zip(num.counts, gens, edges)],
        bonds, provenance, matrices)


def tree_answers(sys_):
    """Each level's validation verdict and leaves."""
    return [(validate_tree(act.tree), act.tree.leaves()) for act in sys_.levels]


def views_of(sys_):
    """Each level's generator maps and each bond, read as dicts."""
    return [dict(act.generators) for act in sys_.levels], [dict(bond) for bond in sys_.bonds]


def passes_string_checks(outcomes):
    """Whether ``tower_outcomes`` of views without a numbering give no level
    reason, no bond violation and no bond-structure reason."""
    levels, bonds, structures = outcomes[:3]
    return (all(got == ("value", None) for got in levels)
            and bonds[0] == "value" and bonds[1].passed
            and all(got[0] == "value" and got[1].passed for got in structures))


class TestNumberedViewsTwin:
    """A built tower's generator maps and bonds are made from its lists on
    first read, and ``system_to_json`` writes them from the lists."""

    @pytest.mark.parametrize("npd", sorted(TOWERS))
    def test_views_and_json(self, npd):
        built = TOWERS[npd]
        written = system_to_json(built)
        assert views_of(built) == oracles.numbered_views(built._numbering)
        # key order too, which the written file sorts anyway
        assert json.dumps(written) == json.dumps(system_to_json(plain_copy(built)))


class TestNumberedTowerTwin:
    """A built tower's level, bond and decoration checks read its vertex
    numbering's one verdict; the same views assembled without a numbering
    are checked on their strings.  Each mutated numbering's verdict holds
    exactly when the strings pass; a numbering makes a system only then,
    which gets the same outcomes as its views."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(TOWERS)), st.sampled_from(MUTATIONS), SEEDS)
    def test_mutated_numberings(self, npd, kind, seed):
        rng = random.Random(seed)
        built = TOWERS[npd]
        base = built._numbering
        num = _Numbering(list(base.ids), list(base.parent), [list(x) for x in base.images],
                         list(base.counts), list(base.names))
        if kind != "none":
            mutate(num, kind, rng)
        got = self.agree(num, built.provenance, built.matrices, rng)
        assert num.holds == passes_string_checks(got)
        if kind == "none":
            assert got[3] == caught(verify_tower, built) and got[3][1].reasons == ()

    def test_names_out_of_order(self):
        # the uncapped walk takes the generators in name order, not list order
        built = TOWERS[(2, 3, 2)]
        base = built._numbering
        num = _Numbering(base.ids, base.parent, base.images[::-1], base.counts, base.names[::-1])
        got = self.agree(num, built.provenance, built.matrices, random.Random(0))
        assert num.holds and passes_string_checks(got)

    @pytest.mark.parametrize("label", sorted(HAND_MADE))
    def test_hand_made_numberings(self, label):
        ids, parent, image, counts = HAND_MADE[label]
        num = _Numbering(ids, parent, [image], counts, ["g"])
        got = self.agree(num, {}, {}, random.Random(label))
        assert got[3][0] == "raised" or got[3][1].reasons
        assert not num.holds and not passes_string_checks(got)

    def test_negative_parents_without_a_generator(self):
        # -1 and -2 stand for c and b, which then hang from each other; a
        # generator that commutes with parent would rule them out
        num = _Numbering(["a", "b", "c"], [0, -1, -2], [], [3], [])
        got = self.agree(num, {}, {}, random.Random(0))
        assert not num.holds and not passes_string_checks(got)

    def test_no_levels(self):
        # the verdict, which the system reads, does not hold without a level
        num = _Numbering(["a"], [0], [[0]], [], ["g"])
        assert not num.holds
        with pytest.raises(AssertionError, match="^internal error: "):
            num.system({}, {})

    @pytest.mark.parametrize("label", sorted(PARTLY_VIEWED))
    def test_views_of_part_of_a_numbering(self, label):
        num = _Numbering(*PARTLY_VIEWED[label])
        got = self.agree(num, {}, {}, random.Random(label))
        assert passes_string_checks(got) and not num.holds

    @staticmethod
    def agree(num, provenance, matrices, rng):
        """The string outcomes of the numbering's views (``viewed_system``).
        Its system raises exactly when the verdict fails; made, it and its
        levels keep the numbering, its views and edges are the oracles', and
        it gets the outcomes, JSON, tree answers and degree profile of its
        plain copy, whose outcomes are returned."""
        viewed = viewed_system(num, provenance, matrices)
        top = viewed.levels[-1].tree
        seed_vertex = rng.choice(top.leaves() or top.vertices)
        if not num.holds:
            with pytest.raises(AssertionError, match="^internal error: "):
                num.system(provenance, matrices)
            return tower_outcomes(viewed, seed_vertex)
        numbered = num.system(provenance, matrices)
        written = caught(system_to_json, numbered)
        plain = plain_copy(numbered)
        assert views_of(numbered) == oracles.numbered_views(num)
        assert [list(act.tree.edges) for act in numbered.levels] == oracles.numbered_edges(num)
        assert numbered._numbering is num
        assert all(act._numbered is num for act in numbered.levels)
        got = tower_outcomes(plain, seed_vertex)
        assert got == tower_outcomes(numbered, seed_vertex)
        assert written == caught(system_to_json, plain)
        assert tree_answers(numbered) == tree_answers(plain)
        assert caught(degree_profile, numbered) == caught(degree_profile, plain)
        return got


# Generators and inner radii of the searched balls: Z, Z^2, the Heisenberg
# group, SL_2(Z) = <u12, u21>, Sanov's free subgroup <u12^2, u21^2>, and
# finite cyclic subgroups of SL_2(Z) of orders 2, 3, 4 and 6.
SEARCH_GROUPS = {
    "z": ([U], 5),
    "z2": ([A, B], 2),
    "heisenberg": ([elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)], 1),
    "sl2z": ([U, elementary(2, 2, 1, 1)], 2),
    "sanov": ([elementary(2, 1, 2, 2), elementary(2, 2, 1, 2)], 2),
    "order-2": ([GroupMatrix.from_rows([[-1, 0], [0, -1]])], 2),
    "order-3": ([GroupMatrix.from_rows([[0, -1], [1, -1]])], 3),
    "order-4": ([GroupMatrix.from_rows([[0, -1], [1, 0]])], 3),
    "order-6": ([GroupMatrix.from_rows([[0, -1], [1, 1]])], 4),
}
TWIN_BUDGET = 50_000


def search_summary(fn, *args, **kwargs):
    """Status, decisions and witness signs or Unsat trace JSON; or what was
    raised, with the progress of an exhausted budget."""
    try:
        res = fn(*args, **kwargs)
    except SearchBudgetExhausted as exc:
        return "raised", str(exc), exc.progress()
    except OrderingError as exc:
        return "raised", type(exc), str(exc)
    res = res[0] if isinstance(res, tuple) else res
    body = res.witness.signs if res.is_sat else res.trace.to_json()
    return res.status, res.decisions, body


class TestSearchTwin:
    @staticmethod
    def compare(group, mode, radius, grow, shuffle_seed, budgets):
        """``compare_on`` a group of SEARCH_GROUPS, its generators named g0, g1, ..."""
        gens, _max_r = SEARCH_GROUPS[group]
        return TestSearchTwin.compare_on(gens, [f"g{k}" for k in range(len(gens))],
                                         mode, radius, grow, shuffle_seed, budgets)

    @staticmethod
    def compare_on(gens, names, mode, radius, grow, shuffle_seed, budgets):
        """Both searches agree at the smallest budget that completes and at
        each of ``budgets(units)``; the classes assigned when a budget runs
        out part of the way depend on the order of the queue.  Returns units."""
        f = invariance_set(gens, mode)
        inner = ball_generate(gens, radius, names)
        outer = ball_generate(gens, radius + grow, names)
        try:
            _res, units = oracles.search_invariant(
                f, inner, outer, TWIN_BUDGET, shuffle_seed)
        except (OrderingError, SearchBudgetExhausted):
            units = TWIN_BUDGET
        for budget in {units, *budgets(units)}:
            naive = search_summary(oracles.search_invariant, f, inner, outer, budget, shuffle_seed)
            fast = search_summary(search_invariant, f, inner, outer, budget, shuffle_seed)
            assert fast == naive, budget
        return units

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(SEARCH_GROUPS)), st.sampled_from(["gens", "gens+inv"]),
           st.integers(0, 5), st.integers(0, 2), st.one_of(st.none(), SEEDS),
           st.floats(0, 1))
    def test_random_balls(self, group, mode, inner_r, grow, shuffle_seed, cut):
        radius = min(inner_r, SEARCH_GROUPS[group][1])
        self.compare(group, mode, radius, grow, shuffle_seed,
                     lambda units: {max(units - 1, 0), int(cut * units)})

    # instances where pushing one kind of forced pair before the other, rather
    # than by increasing k, changes the classes assigned at some budget
    @pytest.mark.parametrize("group,mode,radius,grow,shuffle_seed", [
        ("order-6", "gens", 2, 1, None),
        ("heisenberg", "gens+inv", 1, 1, None),
        ("heisenberg", "gens+inv", 1, 1, 1),
    ])
    def test_every_budget(self, group, mode, radius, grow, shuffle_seed):
        self.compare(group, mode, radius, grow, shuffle_seed, range)

    # instances whose search tries both signs at some frame and then undoes
    # the parent's assignment, with the budget units each takes
    @pytest.mark.parametrize("group,mode,shuffle_seed,units", [
        ("sl2z", "gens+inv", 3, 901),  # 47 decisions, 6 frames exhausted
        ("sl2z", "gens", None, 1_025),  # 287 decisions
        ("heisenberg", "gens+inv", 0, 1_026),
    ])
    def test_backtracking_past_an_exhausted_frame(self, group, mode, shuffle_seed, units):
        assert self.compare(group, mode, 2, 1, shuffle_seed,
                            lambda n: {n - 1, n // 2, n // 10, 1}) == units

    def test_images_leaving_the_outer_ball(self):
        # with the outer ball the inner one, u sends u^2 out of it: the gluing
        # loop finds the image missing
        b = z_ball(2)
        got = search_summary(search_invariant, [U], b, b)
        assert got == search_summary(oracles.search_invariant, [U], b, b)
        assert got == ("raised", OrderingError, "ball containment violated")

    # Unsat gluings whose trace walks two earlier gluings
    @pytest.mark.parametrize("group,mode,radius,grow", [
        ("order-6", "gens", 3, 0),
        ("order-6", "gens+inv", 2, 1),
    ])
    def test_gluing_chain_of_two(self, group, mode, radius, grow):
        self.compare(group, mode, radius, grow, None, range)
        gens = SEARCH_GROUPS[group][0]
        inner = ball_generate(gens, radius, ["g0"])
        res = search_invariant(invariance_set(gens, mode), inner,
                               ball_generate(gens, radius + grow, ["g0"]))
        reasons = [step.reason for step in res.trace.forcing_chain]
        assert res.decisions == 0
        assert sum(r.startswith("forced equal/opposite via") for r in reasons) == 2

    # <u, t> with t of order 6 (42/82 elements) is Unsat at set-up, and its
    # trace walks six gluings under u and t.  With the inverses in F, the
    # clash under t comes before the gluings under u^-1 and t^-1, so the trace
    # is the same.  Its SHA-256 was recorded while the search still logged
    # each gluing as it made it.  (The group is not in SEARCH_GROUPS: some
    # random draws on it cost the oracle seconds each.)
    @pytest.mark.parametrize("mode", ["gens", "gens+inv"])
    def test_long_gluing_chain(self, mode):
        gens = [U, GroupMatrix.from_rows([[0, -1], [1, 1]])]
        self.compare_on(gens, ["u", "t"], mode, 3, 1, None, range)
        inner = ball_generate(gens, 3, ["u", "t"])
        outer = ball_generate(gens, 4, ["u", "t"])
        res = search_invariant(invariance_set(gens, mode), inner, outer)
        assert (len(inner), len(outer), res.status, res.decisions) == (42, 82, "unsat", 0)
        reasons = [step.reason for step in res.trace.forcing_chain]
        glued = [r for r in reasons if r.startswith("forced equal/opposite via")]
        assert len(reasons) == 8 and len(glued) == 6
        assert {r.rsplit(" ", 1)[1] for r in glued} == {"u", "t"}
        digest = hashlib.sha256(json.dumps(res.trace.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "ec633703e4481ee20eebd924f2335a338260a1f23460622fbbfc0ce4149ce5f2")

    def test_one_element_inner_ball_leaving_the_outer_ball(self):
        # e's image u lies outside the radius-0 outer ball, but there are no pairs
        e = z_ball(0)
        assert search_summary(search_invariant, [U], e, e) == ("sat", 0, {})
        assert search_summary(oracles.search_invariant, [U], e, e) == ("sat", 0, {})


def ll_outcome(fn, *args):
    try:
        return "value", fn(*args)
    except MatrixError as exc:
        return "raised", str(exc)


def heisenberg_triple(rng, r):
    """a, b, c with [a, b] = c^r and c central in <a, b, c>: u12^x, u23^y and
    u13^z with xy = zr, conjugated by a random product of transvections."""
    z = rng.randint(-3, 3)
    n = z * r
    if n:
        d = rng.choice([d for d in range(1, abs(n) + 1) if n % d == 0]) * rng.choice((1, -1))
        x, y = n // d, d
    else:
        x, y = rng.choice(((0, rng.randint(-3, 3)), (rng.randint(-3, 3), 0)))
    g = GroupMatrix.identity(3)
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(1, 4), 2)
        g = g * elementary(3, i, j, rng.choice((-2, -1, 1, 2)))
    ginv = g.inverse()
    return [ginv * u * g for u in (elementary(3, 1, 2, x), elementary(3, 2, 3, y),
                                   elementary(3, 1, 3, z))]


def violating_triple(rng, r):
    a, b, c = heisenberg_triple(rng, r)
    minus_e = GroupMatrix(3, (-1, 0, 0, 0, -1, 0, 0, 0, -1))   # central, determinant -1
    return rng.choice((
        (a, b, c, r + rng.choice((-2, -1, 1, 2))),             # [a, b] != c^r unless c = e
        (a, b, a, r), (a, b, b, r), (b, a * b, c, r),          # c or [a, b] not as required
        (a, c, b, 0), (c, a, b, 0),                            # [a, b] = c^0, c not central
        (a, b, elementary(4, 1, 4, 1), r),                     # dimension mismatch
        (a, b, c.reduce_mod(5), r),                            # domain mismatch
        (GroupMatrix.identity(3), GroupMatrix.identity(3), minus_e, r),
    ))


SWEEP_RANGES = st.tuples(st.integers(-3, 2), st.integers(1, 3)).map(
    lambda t: range(t[0], t[0] + t[1]))


class TestLLIdentityTwin:
    """``matrices.verify_ll_identity`` checks the preconditions once and makes
    every factor once per sweep; ``oracles.ll_identity_case`` redoes both for
    each case.  Over the same nonempty ranges they give the same failures or
    raise the same error."""

    def compare(self, a, b, c, r, ms, ps, qs):
        want = ll_outcome(oracles.ll_identity_failures, a, b, c, r, ms, ps, qs)
        assert ll_outcome(verify_ll_identity, a, b, c, r, ms, ps, qs) == want
        return want

    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(-4, 4), SWEEP_RANGES, SWEEP_RANGES, SWEEP_RANGES)
    def test_heisenberg_triples(self, seed, r, ms, ps, qs):
        a, b, c = heisenberg_triple(random.Random(seed), r)
        assert self.compare(a, b, c, r, ms, ps, qs) == ("value", [])

    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(-4, 4), st.integers(2, 7), SWEEP_RANGES, SWEEP_RANGES,
           SWEEP_RANGES)
    def test_triples_reduced_mod_m(self, seed, r, mod, ms, ps, qs):
        a, b, c = (x.reduce_mod(mod) for x in heisenberg_triple(random.Random(seed), r))
        assert self.compare(a, b, c, r, ms, ps, qs) == ("value", [])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-9, 9), st.sampled_from([None, 2, 6]), SWEEP_RANGES, SWEEP_RANGES,
           SWEEP_RANGES)
    def test_identity_triple(self, r, mod, ms, ps, qs):
        e = GroupMatrix.identity(3, mod)
        assert self.compare(e, e, e, r, ms, ps, qs) == ("value", [])

    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(-4, 4), SWEEP_RANGES, SWEEP_RANGES, SWEEP_RANGES)
    def test_violated_preconditions(self, seed, r, ms, ps, qs):
        a, b, c, r = violating_triple(random.Random(seed), r)
        self.compare(a, b, c, r, ms, ps, qs)

    def test_each_outcome_is_met(self):
        rs = range(-1, 2)
        a, b, c = elementary(3, 1, 2, 2), elementary(3, 2, 3, 1), elementary(3, 1, 3, 1)
        assert self.compare(a, b, c, 2, rs, rs, rs) == ("value", [])
        assert self.compare(a, b, c, 3, rs, rs, rs) == (
            "raised", "identity preconditions violated: need [a,b] = c^r with c central")
        # -e passes the preconditions at r = 2; only a negative power inverts it
        e, minus_e = GroupMatrix.identity(3), GroupMatrix(3, (-1, 0, 0, 0, -1, 0, 0, 0, -1))
        assert self.compare(e, e, minus_e, 2, rs, rs, rs) == (
            "raised", "only determinant-1 matrices are invertible here")
        assert self.compare(e, e, minus_e, 2, range(0, 1), range(2), range(2)) == ("value", [])
