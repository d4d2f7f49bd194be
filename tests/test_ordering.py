"""Ball generation, order axioms, the invariant-order search, extraction.

Core claims:
    - balls contain the identity, close under inverses, and match word
      enumeration oracles;
    - the checkers catch exactly the planted violations;
    - the search returns Unsat on torsion (stably under reordering), Sat
      with re-verified witnesses on orderable instances, and a distinct
      budget-exhausted outcome;
    - compactness extraction picks the majority restriction.
"""

import hashlib
import json

import pytest
import oracles
from treeact.matrices import GroupMatrix, elementary, six_generators
from treeact.ordering import (
    OrderAssignment,
    OrderingError,
    SearchBudgetExhausted,
    assignment_from_json,
    assignment_to_json,
    ball_from_json,
    ball_generate,
    ball_to_json,
    check_axioms,
    check_invariance,
    compactness_extract,
    format_word,
    search_invariant,
)
from treeact.matrices import CapExceeded
from treeact.presets import search_instance


def z_gen():
    return elementary(2, 1, 2, 1)


def z_ball(radius):
    return ball_generate([z_gen()], radius, ["g"])


def natural_order(ball):
    return OrderAssignment.from_total_order(ball, sorted(ball.elements, key=lambda m: m.entries[1]))


def ascending(phi):
    """The ball's elements sorted ascending: later ones have sign +1 over earlier."""
    idx = range(len(phi.ball))
    key = {i: sum(1 for j in idx if j != i and phi.signs.get((i, j)) == 1) for i in idx}
    return [phi.ball.elements[i] for i in sorted(idx, key=lambda i: (key[i], i))]


class TestBallGenerate:
    def test_radius_zero(self):
        b = ball_generate([z_gen()], 0, ["g"])
        assert len(b) == 1 and b.elements[0].is_identity()

    def test_z_radius_two(self):
        assert len(z_ball(2)) == 5

    def test_identity_and_inverse_closure(self):
        a, c = elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)
        b = ball_generate([a, c], 3, ["a", "b"])
        assert GroupMatrix.identity(3) in b
        for g in b.elements:
            assert g.inverse() in b

    def test_heisenberg_commutator_depth(self):
        a, c = elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)
        u13 = elementary(3, 1, 3, 1)
        b2 = ball_generate([a, c], 2, ["a", "b"])
        b4 = ball_generate([a, c], 4, ["a", "b"])
        assert u13 not in b2
        assert u13 in b4
        # word-enumeration oracle agrees on both counts
        gens = [oracles.unipotent(3, 1, 2, 1), oracles.unipotent(3, 2, 3, 1)]
        assert len(oracles.words_up_to(gens, 2)) == len(b2)
        assert len(oracles.words_up_to(gens, 4)) == len(b4)

    def test_words_recover_elements(self):
        b = z_ball(3)
        for g in b.elements:
            acc = GroupMatrix.identity(2)
            for name, e in b.word(g):
                acc = acc * (z_gen() if e == 1 else z_gen().inverse())
            assert acc == g

    def test_cap(self):
        with pytest.raises(CapExceeded, match="ball exceeds cap"):
            ball_generate([elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)], 5, cap=10)


class TestCheckAxioms:
    def test_total_order_passes(self):
        b = z_ball(2)
        assert check_axioms(natural_order(b)).passed

    def test_transitivity_violation(self):
        b = z_ball(1)  # 3 elements
        signs = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
        phi = OrderAssignment(b, signs)
        rep = check_axioms(phi)
        assert not rep.passed
        assert rep.transitivity_violations

    def test_transitivity_violations_are_pinned(self):
        # the regular tournament on 5 elements: i beats i+1 and i+2 (mod 5);
        # recorded before the bitset checker, in (f, g, h) loop order
        b = z_ball(2)
        signs = {(i, (i + d) % 5): 1 for i in range(5) for d in (1, 2)}
        rep = check_axioms(OrderAssignment(b, signs))
        assert not rep.passed and rep.antisymmetry_violations == ()
        assert rep.transitivity_violations == (
            (0, 1, 3), (0, 2, 3), (0, 2, 4), (1, 2, 4), (1, 3, 0), (1, 3, 4),
            (2, 3, 0), (2, 4, 0), (2, 4, 1), (3, 0, 1), (3, 0, 2), (3, 4, 1),
            (4, 0, 2), (4, 1, 2), (4, 1, 3),
        )

    def test_antisymmetry_violation_rejected_at_construction(self):
        b = z_ball(1)
        with pytest.raises(OrderingError, match="conflicting"):
            OrderAssignment(b, {(0, 1): 1, (1, 0): 1, (0, 2): 1, (1, 2): 1})

    def test_incomplete_assignment(self):
        b = z_ball(1)
        phi = OrderAssignment(b, {(0, 1): 1})
        with pytest.raises(OrderingError, match="incomplete assignment"):
            check_axioms(phi)


class TestCheckInvariance:
    def test_natural_translation_invariant(self):
        inner, outer = z_ball(2), z_ball(3)
        phi = natural_order(outer)
        rep = check_invariance(phi, [z_gen()], inner)
        assert rep.passed

    def test_torsion_obstruction(self):
        t = GroupMatrix.from_rows([[-1, 0], [0, -1]])
        b = ball_generate([t], 1, ["t"])
        phi = OrderAssignment.from_total_order(b, sorted(b.elements, key=lambda m: m.entries))
        rep = check_invariance(phi, [t], b)
        assert not rep.passed

    def test_torsion_violations_are_pinned(self):
        # -I swaps the two elements of its ball: both ordered pairs flip
        t = GroupMatrix.from_rows([[-1, 0], [0, -1]])
        b = ball_generate([t], 1, ["t"])
        phi = OrderAssignment.from_total_order(b, sorted(b.elements, key=lambda m: m.entries))
        assert check_invariance(phi, [t], b).violations == ((0, 0, 1), (0, 1, 0))

    def test_identity_invariance(self):
        b = z_ball(2)
        phi = natural_order(b)
        assert check_invariance(phi, [GroupMatrix.identity(2)], b).passed

    def test_containment_error(self):
        inner = z_ball(3)
        phi = natural_order(inner)
        with pytest.raises(OrderingError, match="ball containment"):
            check_invariance(phi, [z_gen()], inner)


class TestSearch:
    def torsion(self, rows, radius=1):
        t = GroupMatrix.from_rows(rows)
        b = ball_generate([t], radius, ["t"])
        b2 = ball_generate([t], radius + 1, ["t"])
        return t, b, b2

    @pytest.mark.parametrize(
        "rows,radius",
        [
            ([[-1, 0], [0, -1]], 1),          # order 2
            ([[0, -1], [1, -1]], 1),          # order 3
            ([[0, -1], [1, 0]], 2),           # order 4: ball must wrap the cycle
        ],
    )
    def test_torsion_unsat(self, rows, radius):
        t, b, b2 = self.torsion(rows, radius)
        res = search_invariant([t], b, b2)
        assert res.status == "unsat"
        assert res.trace is not None
        assert res.trace.forcing_chain

    def test_order_four_small_ball_is_genuinely_sat(self):
        # with the radius-1 ball {e, t, t^3} the invariance constraints do
        # not wrap the 4-cycle, and a consistent order exists; the torsion
        # obstruction needs the whole cyclic subgroup inside the inner ball
        t, b, b2 = self.torsion([[0, -1], [1, 0]], 1)
        res = search_invariant([t], b, b2)
        assert res.is_sat

    @pytest.mark.parametrize("seed", [None, 1, 7, 1234])
    def test_torsion_unsat_stable_under_reordering(self, seed):
        t, b, b2 = self.torsion([[-1, 0], [0, -1]])
        res = search_invariant([t], b, b2, shuffle_seed=seed)
        assert res.status == "unsat"

    def test_z_sat_natural_witness(self):
        inner, outer = z_ball(3), z_ball(4)
        f = [z_gen(), z_gen().inverse()]
        res = search_invariant(f, inner, outer)
        assert res.is_sat
        assert check_axioms(res.witness).passed
        assert check_invariance(res.witness, f, inner).passed
        exponents = [m.entries[1] for m in ascending(res.witness)]
        assert exponents == sorted(exponents)

    def test_z2_sat(self):
        a, c = elementary(3, 1, 2, 1), elementary(3, 1, 3, 1)
        inner = ball_generate([a, c], 1, ["a", "b"])
        outer = ball_generate([a, c], 2, ["a", "b"])
        res = search_invariant([a, c], inner, outer)
        assert res.is_sat
        assert check_invariance(res.witness, [a, c], inner).passed

    def test_empty_invariance_set_sat(self):
        inner, outer = z_ball(1), z_ball(2)
        res = search_invariant([], inner, outer)
        assert res.is_sat
        assert check_axioms(res.witness).passed

    def test_deterministic_bytes(self):
        def run():
            inner, outer = z_ball(3), z_ball(4)
            res = search_invariant([z_gen(), z_gen().inverse()], inner, outer)
            return json.dumps(assignment_to_json(res.witness), sort_keys=True)

        assert run() == run()

    def test_trace_deterministic(self):
        t, b, b2 = self.torsion([[-1, 0], [0, -1]])
        one = json.dumps(search_invariant([t], b, b2).trace.to_json(), sort_keys=True)
        two = json.dumps(search_invariant([t], b, b2).trace.to_json(), sort_keys=True)
        assert one == two

    def test_budget_exhaustion_is_not_unsat(self):
        inner, outer = z_ball(3), z_ball(4)
        with pytest.raises(SearchBudgetExhausted, match="search budget exhausted"):
            search_invariant([z_gen()], inner, outer, budget=1)

    def test_heisenberg_sat(self):
        a, c = elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)
        inner = ball_generate([a, c], 1, ["a", "b"])
        outer = ball_generate([a, c], 2, ["a", "b"])
        res = search_invariant([a, c], inner, outer)
        assert res.is_sat


# Two word balls beyond the presets, with the generators and radii of the
# benchmark's search workload: decision counts and the SHA-256 of the sorted
# witness sign triples, recorded before the search state was reworked.
SEARCH_PINS = {
    "hexagon-ball-1": (13, 121, 2527,
                       "686660ef4895d698bc9bb68729e82b037c8980d0f0e7b35a167a4825c715fc60"),
    "z2-ball-4": (41, 61, 228,
                  "9097aff51e6e62f411a327a37b187319fe7b9ce0e03748a98165875f5d0a1f46"),
    # recorded before the propagation moved to bitsets
    "heisenberg-ball-3": (53, 135, 1949,
                          "53949fc35ce645fae4a872c3d4ebabf03fd8392dd55935f021bbdc97ad08ccea"),
    "z-ball-80": (161, 163, 1,
                  "c142b844652e2da9e30cfc0b68cecad23b11593f82186e6797f403ba11adce9a"),
}


def pinned_instance(name):
    """F, the inner ball and the outer ball, as the benchmark builds them."""
    if name == "hexagon-ball-1":
        gens, names, radius = six_generators(1), [f"a{k}" for k in range(1, 7)], 1
    elif name == "heisenberg-ball-3":
        gens, names, radius = [elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)], ["u12", "u23"], 3
    elif name == "z-ball-80":
        u = z_gen()
        return [u, u.inverse()], ball_generate([u], 80, ["g"]), ball_generate([u], 81, ["g"])
    else:
        a = GroupMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        b = GroupMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        gens, names, radius = [a, b], ["a", "b"], 4
    return gens, ball_generate(gens, radius, names), ball_generate(gens, radius + 1, names)


class TestSearchPins:
    @pytest.mark.parametrize("name", sorted(SEARCH_PINS))
    def test_decisions_and_witness(self, name):
        inner_size, outer_size, decisions, digest = SEARCH_PINS[name]
        gens, inner, outer = pinned_instance(name)
        assert (len(inner), len(outer)) == (inner_size, outer_size)
        res = search_invariant(gens, inner, outer, budget=10 ** 8)
        assert res.is_sat and res.decisions == decisions
        triples = sorted([i, j, s] for (i, j), s in res.witness.signs.items())
        assert hashlib.sha256(json.dumps(triples).encode()).hexdigest() == digest

    def test_budget_boundary(self):
        # the search of z2-ball-4 takes exactly 8524 budget units
        gens, inner, outer = pinned_instance("z2-ball-4")
        assert search_invariant(gens, inner, outer, budget=8524).is_sat
        with pytest.raises(SearchBudgetExhausted):
            search_invariant(gens, inner, outer, budget=8523)

    # the exact number of budget units each search takes, recorded before the
    # propagation moved to bitsets
    @pytest.mark.parametrize("name,units", [
        ("hexagon-ball-1", 15_847),
        ("heisenberg-ball-3", 43_252),
        ("z-ball-80", 708_562),
    ])
    def test_budget_boundaries(self, name, units):
        f, inner, outer = pinned_instance(name)
        assert search_invariant(f, inner, outer, budget=units).is_sat
        with pytest.raises(SearchBudgetExhausted):
            search_invariant(f, inner, outer, budget=units - 1)

    def test_shuffled_order(self):
        # heisenberg-ball-2 in the variable order of shuffle_seed=3
        f, inner, outer = search_instance("heisenberg-ball-2")
        res = search_invariant(f, inner, outer, budget=10 ** 8, shuffle_seed=3)
        assert res.is_sat and res.decisions == 142
        triples = sorted([i, j, s] for (i, j), s in res.witness.signs.items())
        assert hashlib.sha256(json.dumps(triples).encode()).hexdigest() == (
            "b9fe094045fc6c5d0328c05c27399bc71ea3833f12d8c04d9c3c2a56c2912aeb")


class TestCompactnessExtract:
    def test_constant_chain(self):
        target = z_ball(1)
        chain = [natural_order(z_ball(r)) for r in (1, 2, 3)]
        res = compactness_extract(chain, target)
        assert res.supporters == (0, 1, 2)
        assert res.assignment.sign_idx(target.index(z_gen()),
                                       target.index(GroupMatrix.identity(2))) == 1

    def test_majority_wins(self):
        target = z_ball(1)
        nat = natural_order(z_ball(2))
        rev = OrderAssignment.from_total_order(
            z_ball(2), list(reversed(ascending(natural_order(z_ball(2)))))
        )
        res = compactness_extract([nat, rev, nat], target)
        assert res.supporters == (0, 2)

    def test_tie_breaks_to_canonically_smallest(self):
        target = z_ball(1)
        nat = natural_order(z_ball(2))
        rev = OrderAssignment.from_total_order(
            z_ball(2), list(reversed(ascending(natural_order(z_ball(2)))))
        )
        res = compactness_extract([rev, nat], target)
        # one supporter each; the all-(-1) signature sorts first
        assert res.supporters == (1,)
        assert res.assignment.signs == natural_order(target).signs

    def test_restriction_to_smaller_ball(self):
        target = z_ball(1)
        chain = [natural_order(z_ball(r)) for r in range(1, 7)]
        res = compactness_extract(chain, target)
        assert len(res.supporters) == 6
        asc = ascending(res.assignment)
        assert [m.entries[1] for m in asc] == [-1, 0, 1]

    def test_insufficient_chain(self):
        target = z_ball(3)
        chain = [natural_order(z_ball(1))]
        with pytest.raises(OrderingError, match="insufficient chain"):
            compactness_extract(chain, target)

    def test_agreement_with_supporters(self):
        target = z_ball(1)
        chain = [natural_order(z_ball(r)) for r in (2, 3)]
        res = compactness_extract(chain, target)
        for k in res.supporters:
            for i in range(len(target)):
                for j in range(len(target)):
                    if i != j:
                        g, h = target.elements[i], target.elements[j]
                        b = chain[k].ball
                        assert (res.assignment.sign_idx(i, j)
                                == chain[k].sign_idx(b.index(g), b.index(h)))


class TestSerialization:
    def test_ball_round_trip(self):
        b = z_ball(2)
        again = ball_from_json(ball_to_json(b))
        assert again.elements == b.elements
        assert again.names == b.names

    def test_assignment_round_trip(self):
        phi = natural_order(z_ball(2))
        again = assignment_from_json(assignment_to_json(phi))
        assert again.signs == phi.signs

    def test_format_word(self):
        b = z_ball(2)
        words = {format_word(b.word(g)) for g in b.elements}
        assert "e" in words and "g" in words and "g^-1" in words
