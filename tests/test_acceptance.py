"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected numbers come from the independent oracles (exhaustive
determinant-filter enumeration, naive matrix products, brute-force subgroup
lattices) or from exact symbolic formulas; tolerances are stated inline and
are exact (integer/rational equality) everywhere except the float export of
the star geometry, which must agree within 1e-9.
"""

import json
import random
import time
from fractions import Fraction
from math import cos, factorial, isclose, pi, sin

import oracles
from conftest import pruefer_tree
from oracles import random_automorphism_fixing_leaf
from treeact.matrices import (
    GroupMatrix,
    elementary,
    enumerate_group,
    normal_core,
    six_generators,
    six_generators_embedded,
    verify_hexagon_relations,
    verify_ll_identity,
)
from treeact.ordering import (
    OrderAssignment,
    ball_generate,
    check_axioms,
    check_invariance,
    search_invariant,
)
from treeact.realize import (
    almost_free_report,
    generator_pl_map,
    order_from_realization,
    realize,
    verify_realization,
)
from treeact.tower import (
    attach_decorations,
    projection_orbit_growth,
    star_dendrite,
    verify_all_bonds,
)
from treeact.trees import (
    automorphisms_fixing_leaf,
    common_fixed_point,
    count_automorphisms_fixing_leaf,
)


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_congruence_tower(tower322):
    sys_, build_seconds = tower322
    start = time.monotonic()
    # oracle: exhaustive det-filter counts for both quotients
    count_mod2, _ = oracles.sl_by_det_filter(3, 2)
    assert count_mod2 == 168
    tree1 = sys_.levels[1].tree
    tree2 = sys_.levels[2].tree
    assert len(tree1.leaves()) == count_mod2
    assert len(tree2.leaves()) == 43008  # oracle-counted once below
    # the mod-4 oracle enumeration is feasible: 4^9 candidates
    count_mod4, mod4 = oracles.sl_by_det_filter(3, 4)
    assert count_mod4 == 43008
    assert len(tree2.leaves()) == count_mod4
    # the builder lifts level 2 from level 1: its leaves are the oracle's
    # elements, in the order of their entries
    assert list(tree2.vertices[169:]) == ["2|" + ",".join(map(str, x)) for x in mod4]
    # branching level 1 -> 2 is exactly 2^8 = 256 for every level-1 coset
    adj = tree2.adjacency
    lvl1 = [v for v in tree2.vertices if v.startswith("1|")]
    branchings = {
        sum(1 for w in adj[v] if w.startswith("2|")) for v in lvl1
    }
    assert branchings == {2 ** 8}
    # exhaustive equivariance: all 6 generators x all vertices, both bonds
    bonds = verify_all_bonds(sys_)
    assert bonds.passed
    assert bonds.checked == 6 * len(tree1.vertices) + 6 * len(tree2.vertices)
    elapsed = build_seconds + (time.monotonic() - start)
    assert elapsed < 60.0
    report(1, f"leaf counts 168/43008, branching 256, equivariance "
              f"{bonds.checked} checks pass in {elapsed:.1f}s")


def test_criterion_2_hexagon_relations():
    start = time.monotonic()
    for r in (1, 2, 3):
        rep = verify_hexagon_relations(six_generators(r), r)
        assert rep.passed, f"base family failed at r={r}"
    cases = 0
    for n in (3, 4, 5):
        for i in range(1, n):
            for j in range(i + 1, n):
                if j > n - 1:
                    continue
                for l in (1, 2):
                    rep = verify_hexagon_relations(six_generators_embedded(n, i, j, l), l)
                    assert rep.passed, (n, i, j, l)
                    cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"r in 1..3 and {cases} embedded families exact in {elapsed:.3f}s")


def test_criterion_3_central_commutator_identity():
    start = time.monotonic()
    b = elementary(3, 2, 3, 1)
    c = elementary(3, 1, 3, 1)
    cases = 0
    for r in (1, 2, 3):
        a = elementary(3, 1, 2, r)   # [a, b] = c^r with c central
        ms = ps = qs = range(1, 6)
        assert verify_ll_identity(a, b, c, r, ms, ps, qs) == []
        cases += len(ms) * len(ps) * len(qs)
    elapsed = time.monotonic() - start
    assert cases == 375
    assert elapsed < 1.0
    report(3, f"all {cases} exponent cases exact in {elapsed:.3f}s")


def test_criterion_4_ordering_search():
    # torsion preset: Unsat
    t = GroupMatrix.from_rows([[-1, 0], [0, -1]])
    tb = ball_generate([t], 1, ["t"])
    tb2 = ball_generate([t], 2, ["t"])
    res_t = search_invariant([t], tb, tb2)
    assert res_t.status == "unsat"
    # shuffle-stability of the Unsat verdict
    for seed in (1, 7, 1234):
        assert search_invariant([t], tb, tb2, shuffle_seed=seed).status == "unsat"
    # Z ball radius 3, F = both unit translations: Sat, witness re-checked
    u = elementary(2, 1, 2, 1)
    zb = ball_generate([u], 3, ["g"])
    zb2 = ball_generate([u], 4, ["g"])
    f = [u, u.inverse()]
    res_z = search_invariant(f, zb, zb2)
    assert res_z.is_sat
    assert check_axioms(res_z.witness).passed
    assert check_invariance(res_z.witness, f, zb).passed
    # Z^2 ball radius 1 with both generators: Sat
    a2, b2m = elementary(3, 1, 2, 1), elementary(3, 1, 3, 1)
    zz = ball_generate([a2, b2m], 1, ["a", "b"])
    zz2 = ball_generate([a2, b2m], 2, ["a", "b"])
    res_zz = search_invariant([a2, b2m], zz, zz2)
    assert res_zz.is_sat
    # determinism: two fresh runs serialize byte-identically
    from treeact.ordering import assignment_to_json

    one = json.dumps(assignment_to_json(search_invariant(f, zb, zb2).witness),
                     sort_keys=True).encode()
    two = json.dumps(assignment_to_json(search_invariant(f, zb, zb2).witness),
                     sort_keys=True).encode()
    assert one == two
    report(4, "torsion Unsat (shuffle-stable), Z and Z^2 Sat with verified "
              "witnesses, byte-identical reruns")


def test_criterion_5_realization_round_trip():
    u = elementary(2, 1, 2, 1)
    ball = ball_generate([u], 10, ["g"])
    assert len(ball) == 21
    ascending = sorted(ball.elements, key=lambda m: m.entries[1])
    order = OrderAssignment.from_total_order(ball, ascending)
    enumeration = [GroupMatrix.identity(2)]
    for k in range(1, 11):
        enumeration.append(u ** k)
        enumeration.append(u ** (-k))
    rm = realize(enumeration, order)
    # hand-executed rule: alternating max+1 / min-1 gives t(g^k) = k exactly
    for k in range(-10, 11):
        assert rm.value(u ** k) == k
    maps = [
        generator_pl_map(rm, g, ball, label=str(g.entries[1]))
        for g in ball.elements
        if g != u ** 20  # the double-radius corner has an empty domain
    ]
    ver = verify_realization(rm, maps)
    assert ver.passed
    free = almost_free_report(maps)
    assert free.almost_free
    # strict monotonicity of each realized map
    for gm in maps:
        xs = [x for x, _ in gm.homeo.breakpoints]
        ys = [y for _, y in gm.homeo.breakpoints]
        assert xs == sorted(set(xs)) and ys == sorted(set(ys))
    # backward direction: probe order on the realized arc reproduces the input
    recovered = order_from_realization(rm, ball)
    assert recovered.signs == order.signs
    report(5, "t(k)=k on 21 elements, maps verified and almost free, probe "
              "order reproduces the input order exactly")


def test_criterion_6_fixed_point_shadows():
    rng = random.Random(20260811)
    checked_autos = 0
    checked_sets = 0
    trees_seen = 0
    for _ in range(200):
        n = rng.randint(2, 12) if trees_seen < 120 else rng.randint(13, 50)
        trees_seen += 1
        t = pruefer_tree(n, rng)
        e = t.leaves()[0]
        if n <= 12:
            autos = list(automorphisms_fixing_leaf(t, e))
            assert len(autos) == count_automorphisms_fixing_leaf(t, e)
        else:
            autos = [random_automorphism_fixing_leaf(t, e, rng) for _ in range(5)]
        for h in autos:
            o = common_fixed_point(t, [h], e)
            assert o != e and h(o) == o
            checked_autos += 1
        # generator sets of size <= 3 drawn from the stabiliser
        for size in (1, 2, 3):
            gens = [autos[rng.randrange(len(autos))] for _ in range(size)]
            z = common_fixed_point(t, gens, e)
            assert z != e and all(h(z) == z for h in gens)
            checked_sets += 1
    report(6, f"200 trees, {checked_autos} automorphisms and {checked_sets} "
              f"generator sets: fixed vertices verified, zero failures")


def test_criterion_7_normal_core():
    for name, modulus, order in (("sl2z2", 2, 6), ("sl2z3", 3, 24)):
        g = enumerate_group(2, modulus, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])
        assert len(g) == order
        subgroups = g.all_subgroups()
        # independent lattice for the brute-force maximal normal subgroup,
        # made once per group by matrix products
        elements = list(g.elements)
        mul, inv = (lambda x, y: x * y), (lambda x: x.inverse())
        lattice = oracles.subgroup_lattice(elements, mul, inv, GroupMatrix.identity(2, modulus))
        assert {frozenset(h) for h in subgroups} == lattice
        for h in subgroups:
            core = normal_core(g, h)
            brute = oracles.max_normal_subgroup_inside(lattice, elements, mul, inv, frozenset(h))
            assert frozenset(core) == brute
            index_h = len(g) // len(h)
            index_core = len(g) // len(core)
            assert factorial(index_h) % index_core == 0
    report(7, "cores match brute-force maximal normal subgroups in the "
              "order-6 and order-24 groups; indices divide [G:H]!")


def test_criterion_8_decorated_tower_obstruction(tower322):
    sys_, _ = tower322
    deep_leaf = sys_.levels[2].tree.leaves()[0]
    decorated = attach_decorations(sys_, deep_leaf)
    x = decorated.pendants[0].tip
    growth = projection_orbit_growth(sys_, decorated, x)
    assert growth.sizes == (1, 168, 43008)
    assert growth.strictly_increasing()
    assert all(growth.closed)
    report(8, f"projection orbit sizes {growth.sizes} strictly increasing")


def test_criterion_9_star_geometry():
    sd = star_dendrite(8)
    assert len(sd.arms) == 16
    for arm in sd.arms:
        i = arm.index
        sign = 1 if i > 0 else -1
        # symbolic records are exact rationals
        assert arm.angle_coeff == Fraction(sign) * (1 - Fraction(1, 2 * abs(i)))
        assert arm.length == Fraction(1, abs(i))
        # float exports within 1e-9 of the closed-form values
        theta = sign * (1 - 1 / (2 * abs(i))) * pi
        assert isclose(arm.angle_float, theta, abs_tol=1e-9)
        x, y = arm.tip_xy()
        assert isclose(x, cos(theta) / abs(i), abs_tol=1e-9)
        assert isclose(y, sin(theta) / abs(i), abs_tol=1e-9)
    report(9, "16 arms: symbolic angles/lengths exact, float export within 1e-9")
