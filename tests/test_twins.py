"""The exact checkers of ordering and realize against their naive twins.

``ordering.check_axioms``, ``ordering.check_invariance``,
``ordering.search_invariant``, ``realize.verify_realization``,
``PLHomeo.__call__`` and ``tower.orbit`` each have a naive twin in
``tests/oracles.py`` that redoes every product and segment scan in
its innermost loop; ``trees.first_point_map`` has one that takes the whole
path to the least subtree vertex, and ``tower.projection_orbit_growth`` one
that works on the decorated tree and action made in full.  Both sides get
the same random inputs, broken ones included, and must return the same
report field for field, or raise the same error.
"""

import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import pruefer_tree
from treeact.matrices import GroupMatrix, elementary
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
    generator_pl_map,
    order_from_realization,
    realize,
    verify_realization,
)
from treeact.tower import (
    FiniteTreeAction,
    TowerError,
    attach_decorations,
    build_congruence_tower,
    orbit,
    projection_orbit_growth,
)
from treeact.trees import Tree, TreeError, first_point_map

U = elementary(2, 1, 2, 1)
A = GroupMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
B = GroupMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
SEEDS = st.integers(0, 2 ** 32 - 1)


def z_ball(radius):
    return ball_generate([U], radius, ["g"])


def z2_ball(radius):
    return ball_generate([A, B], radius, ["a", "b"])


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
        # a signs dict changed in place can hold both (i, j) and (j, i) at +1
        rng = random.Random(seed)
        phi = random_assignment(z_ball(radius), rng, rng.random() < 0.5)
        for (i, j) in rng.sample(sorted(phi.signs), rng.randint(1, 4)):
            phi.signs[(i, j)] = phi.signs[(j, i)]
        assert astuple(check_axioms(phi)) == oracles.check_axioms(phi)

    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.integers(1, 3))
    def test_incomplete_assignment_raises_alike(self, seed, radius):
        rng = random.Random(seed)
        phi = random_assignment(z_ball(radius), rng, False)
        i, j = rng.choice(sorted(phi.signs))
        del phi.signs[(i, j)]
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


def random_realization(rng):
    """A ball in its natural order, realized on a random part of it."""
    if rng.random() < 0.5:
        ball = z_ball(rng.randint(1, 4))
        key = lambda m: m.entries[1]  # noqa: E731
    else:
        ball = z2_ball(rng.randint(1, 2))
        key = lambda m: (m.entries[1], m.entries[2])  # noqa: E731
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


# -- first-point maps against the whole path of oracles.first_point_map -------


def first_point_outcome(fn, t, sub, x):
    try:
        return "value", fn(t, sub, x)
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
        got = first_point_outcome(first_point_map, tree, sub, x)
        assert got == first_point_outcome(oracles.first_point_map, tree, sub, x)

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
            got = first_point_outcome(first_point_map, t, sub, x)
            assert got == first_point_outcome(oracles.first_point_map, t, sub, x) == want


# -- tower orbits against the two-sided search of oracles.orbit -----------------

TOWERS = {npd: build_congruence_tower(*npd)
          for npd in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 1)]}
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


# Generators and inner radii of the searched balls: Z, Z^2, the Heisenberg
# group, and finite cyclic subgroups of SL_2(Z) of orders 2, 3, 4 and 6.
SEARCH_GROUPS = {
    "z": ([U], 5),
    "z2": ([A, B], 2),
    "heisenberg": ([elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)], 1),
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
        """Both searches agree at the smallest budget that completes and at
        each of ``budgets(units)``; the classes assigned when a budget runs
        out part of the way depend on the order of the queue."""
        gens, _max_r = SEARCH_GROUPS[group]
        names = [f"g{k}" for k in range(len(gens))]
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

    @settings(max_examples=60, deadline=None)
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

    def test_one_element_inner_ball_leaving_the_outer_ball(self):
        # e's image u lies outside the radius-0 outer ball, but there are no pairs
        e = z_ball(0)
        assert search_summary(search_invariant, [U], e, e) == ("sat", 0, {})
        assert search_summary(oracles.search_invariant, [U], e, e) == ("sat", 0, {})
