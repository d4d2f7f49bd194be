"""Dynamical realization: the induction for t, PL maps, fixed sets, round trip.

Expected t-values are frozen from hand-executing the induction rule: the
first element sits at 0, a new maximum lands at max+1, a new minimum at
min-1, and anything else at the midpoint of its assigned neighbours.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeact.matrices import GroupMatrix, elementary
from treeact.ordering import Ball, OrderAssignment, OrderingError, ball_generate, check_axioms
from treeact.realize import (
    NEG_INF,
    POS_INF,
    GeneratorMap,
    PLHomeo,
    RealizeError,
    almost_free_report,
    fixed_set,
    generator_pl_map,
    order_from_realization,
    plhomeo_to_csv,
    realization_to_csv,
    realize,
    verify_realization,
)


U = elementary(2, 1, 2, 1)


def z_ball(radius):
    return ball_generate([U], radius, ["g"])


def natural_order(ball):
    return OrderAssignment.from_total_order(
        ball, sorted(ball.elements, key=lambda m: m.entries[1])
    )


def standard_enumeration(radius):
    out = [GroupMatrix.identity(2)]
    for k in range(1, radius + 1):
        out.append(U ** k)
        out.append(U ** (-k))
    return out


class TestRealize:
    def test_standard_enumeration_gives_integers(self):
        # hand execution: 0; 1 is a new max -> 1; -1 a new min -> -1; ...
        ball = z_ball(2)
        rm = realize(standard_enumeration(2), natural_order(ball))
        assert [rm.value(U ** k) for k in (0, 1, -1, 2, -2)] == [0, 1, -1, 2, -2]

    def test_midpoint_case(self):
        # enumeration 0, 2, 1: t(0)=0, t(2)=1 (new max), t(1)=(0+1)/2
        ball = z_ball(2)
        rm = realize([U ** 0, U ** 2, U ** 1], natural_order(ball))
        assert rm.value(U ** 0) == 0
        assert rm.value(U ** 2) == 1
        assert rm.value(U ** 1) == Fraction(1, 2)

    def test_single_element(self):
        ball = z_ball(1)
        rm = realize([GroupMatrix.identity(2)], natural_order(ball))
        assert rm.value(GroupMatrix.identity(2)) == 0

    def test_order_isomorphism(self):
        ball = z_ball(3)
        order = natural_order(ball)
        rm = realize(list(ball.elements), order)
        for i, g in enumerate(ball.elements):
            for j, h in enumerate(ball.elements):
                if g != h:
                    assert (order.sign_idx(i, j) == 1) == (rm.value(g) > rm.value(h))

    def test_incomplete_order_rejected(self):
        ball = z_ball(2)
        partial = OrderAssignment(ball, {(0, 1): 1})
        with pytest.raises(OrderingError):
            realize(list(ball.elements), partial)

    @settings(max_examples=80)
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
    def test_realizes_exactly_the_orders_that_pass_the_axioms(self, radius, seed, flips):
        # a complete antisymmetric assignment, a total order with a few pairs
        # flipped, realized in a random enumeration
        rng = random.Random(seed)
        ball = z_ball(radius)
        elems = list(ball.elements)
        rng.shuffle(elems)
        signs = {(i, j): s for (i, j), s in
                 OrderAssignment.from_total_order(ball, elems).signs.items() if i < j}
        for _ in range(flips):
            pair = tuple(sorted(rng.sample(range(len(ball)), 2)))
            signs[pair] = -signs[pair]
        order = OrderAssignment(ball, signs)
        rng.shuffle(elems)
        try:
            rm = realize(elems, order)
        except OrderingError:
            rm = None
        assert (rm is not None) == check_axioms(order).passed
        if rm is not None:
            for g in elems:
                for h in elems:
                    if g != h:
                        sign = order.sign_idx(ball.index(g), ball.index(h))
                        assert (sign == 1) == (rm.value(g) > rm.value(h))

    @settings(max_examples=25)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_dyadic_denominators(self, seed):
        # any enumeration order yields denominators that are powers of two
        ball = z_ball(4)
        elems = list(ball.elements)
        random.Random(seed).shuffle(elems)
        rm = realize(elems, natural_order(ball))
        for v in rm.t.values():
            d = v.denominator
            assert d & (d - 1) == 0

    @settings(max_examples=25)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 5]))
    def test_rank_rows_match_matrix_products(self, seed, mod):
        # over Z and over Z/5, part of a ball realized in a random order
        rng = random.Random(seed)
        ball = ball_generate([elementary(2, 1, 2, 1, mod), elementary(2, 2, 1, 1, mod)], 2)
        elems = list(ball.elements)
        rng.shuffle(elems)
        rm = realize(elems[:rng.randint(1, len(elems))],
                     OrderAssignment.from_total_order(ball, elems))
        assert rm.values == sorted(rm.t.values())
        points = sorted(rm.t, key=rm.t.__getitem__)
        for g in ball.elements:
            want = [points.index(g * x) if g * x in rm else None for x in points]
            assert rm.row(g) == want

    def test_rank_row_rejects_a_foreign_element(self):
        rm = realize(standard_enumeration(1), natural_order(z_ball(1)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            rm.row(GroupMatrix.identity(3))
        with pytest.raises(ValueError, match="coefficient domain mismatch"):
            rm.row(GroupMatrix.identity(2, 3))


class TestPLHomeo:
    def test_validation(self):
        with pytest.raises(RealizeError, match="strictly increasing"):
            PLHomeo(((0, 0), (1, 0)))

    def test_interpolation_and_tails(self):
        m = PLHomeo(((0, 0), (2, 4)))
        assert m(1) == 2
        assert m(Fraction(1, 2)) == 1
        assert m(-3) == -3        # slope-one tail below
        assert m(5) == 7          # slope-one tail above

    def test_formal_endpoints_fixed(self):
        m = PLHomeo(((0, 1),))
        assert m(NEG_INF) is NEG_INF
        assert m(POS_INF) is POS_INF

    def test_inverse_and_composition(self):
        m = PLHomeo(((0, 1), (1, 3)))
        inv = m.inverse()
        comp = inv * m
        assert all(x == y for x, y in comp.breakpoints)


class TestGeneratorMap:
    def test_identity_map(self):
        ball = z_ball(3)
        rm = realize(standard_enumeration(3), natural_order(ball))
        gm = generator_pl_map(rm, GroupMatrix.identity(2), ball, label="e")
        assert all(x == y for x, y in gm.homeo.breakpoints)
        assert len(gm.domain) == len(ball)

    def test_translation_breakpoints(self):
        ball = z_ball(3)
        rm = realize(standard_enumeration(3), natural_order(ball))
        gm = generator_pl_map(rm, U, ball, label="g")
        assert gm.homeo.breakpoints == tuple(
            (Fraction(k), Fraction(k + 1)) for k in range(-3, 3)
        )
        assert len(gm.domain) == len(ball) - 1

    def test_empty_subball(self):
        ball = z_ball(3)
        rm = realize(standard_enumeration(3), natural_order(ball))
        with pytest.raises(RealizeError, match="empty realizable sub-ball"):
            generator_pl_map(rm, U ** 7, ball, label="7")

    def test_non_invariant_order_cannot_realize_monotonically(self):
        # an order the generator does not preserve yields decreasing
        # breakpoint images, which the map constructor rejects
        ball = z_ball(1)
        twisted = OrderAssignment.from_total_order(ball, [U ** 0, U, U ** (-1)])
        rm = realize([U ** 0, U, U ** (-1)], twisted)
        with pytest.raises(RealizeError, match="strictly increasing"):
            generator_pl_map(rm, U, ball, label="g")

    def test_endpoints_fixed_for_every_generator(self):
        ball = z_ball(2)
        rm = realize(standard_enumeration(2), natural_order(ball))
        for g in ball.elements:
            if g == U ** 4:
                continue
            gm = generator_pl_map(rm, g, ball, label=str(g.entries[1]))
            assert gm.homeo(NEG_INF) is NEG_INF
            assert gm.homeo(POS_INF) is POS_INF


class TestVerifyRealization:
    def _bundle(self, radius=3):
        ball = z_ball(radius)
        rm = realize(standard_enumeration(radius), natural_order(ball))
        maps = [
            generator_pl_map(rm, g, ball, label=str(g.entries[1]))
            for g in ball.elements
        ]
        return ball, rm, maps

    def test_natural_bundle_passes(self):
        _, rm, maps = self._bundle()
        rep = verify_realization(rm, maps)
        assert rep.passed

    def test_corrupted_breakpoint_fails_with_witness(self):
        ball, rm, maps = self._bundle()
        gm = next(m for m in maps if m.element == U)
        pts = list(gm.homeo.breakpoints)
        pts[1] = (pts[1][0], pts[1][1] + Fraction(1, 4))  # still monotone, now wrong
        bad = GeneratorMap(gm.element, gm.word, PLHomeo(tuple(pts)), gm.domain)
        rep = verify_realization(rm, [bad])
        assert not rep.passed
        assert rep.equivariance_failures

    def test_corrupted_bundle_failures_are_pinned(self):
        # recorded before the product table: the full radius-3 bundle with
        # u's second breakpoint raised by 1/4, failures in loop order
        ball, rm, maps = self._bundle()
        k = next(i for i, m in enumerate(maps) if m.element == U)
        gm = maps[k]
        pts = list(gm.homeo.breakpoints)
        pts[1] = (pts[1][0], pts[1][1] + Fraction(1, 4))
        maps[k] = GeneratorMap(gm.element, gm.word, PLHomeo(tuple(pts)), gm.domain)
        rep = verify_realization(rm, maps)
        assert not rep.passed and rep.monotonicity_failures == ()
        assert rep.equivariance_failures == ("1: map(t(x)) != t(g*x) at t(x)=-2",)
        assert rep.composition_failures == tuple(
            f"compose mismatch at t={t}" for t in (-2, -2, -2, -2, 1, 0, -1, -3, -2, -2, -2)
        )

    def test_identity_only_bundle(self):
        ball = z_ball(1)
        rm = realize([GroupMatrix.identity(2)], natural_order(ball))
        gm = generator_pl_map(rm, GroupMatrix.identity(2), ball, label="e")
        assert verify_realization(rm, [gm]).passed


class TestFixedSet:
    def test_identity_whole_domain(self):
        m = PLHomeo(((0, 0), (1, 1), (5, 5)))
        fs = fixed_set(m)
        assert fs.intervals == ((0, 5),)
        assert fs.points == ()

    def test_translation_empty_interior(self):
        m = PLHomeo(tuple((Fraction(k), Fraction(k + 1)) for k in range(-3, 3)))
        fs = fixed_set(m)
        assert not fs.points and not fs.intervals
        assert fs.formal_endpoints_fixed

    def test_partial_interval(self):
        m = PLHomeo(((0, 0), (1, 1), (2, 3)))
        fs = fixed_set(m)
        assert fs.intervals == ((0, 1),)
        assert fs.points == ()

    def test_isolated_crossing(self):
        m = PLHomeo(((-1, -2), (1, 2)))
        fs = fixed_set(m)
        assert fs.points == (0,)
        assert fs.intervals == ()


class TestAlmostFree:
    def test_natural_realization_is_almost_free(self):
        ball = z_ball(3)
        rm = realize(standard_enumeration(3), natural_order(ball))
        maps = [
            generator_pl_map(rm, g, ball, label=str(g.entries[1]))
            for g in ball.elements
            if g != U ** 6
        ]
        rep = almost_free_report(maps)
        assert rep.almost_free

    def test_planted_interval_is_flagged(self):
        # three consecutive fixed breakpoints force a fixed interval
        bad = GeneratorMap(
            U, "g", PLHomeo(((-1, -1), (0, 0), (1, 1), (2, 3))), ()
        )
        rep = almost_free_report([bad])
        assert not rep.almost_free
        assert rep.witnesses[0][1] == (-1, 1)

    def test_identity_is_exempt(self):
        e = GroupMatrix.identity(2)
        gm = GeneratorMap(e, "e", PLHomeo(((0, 0), (1, 1))), ())
        assert almost_free_report([gm]).almost_free

    def test_empty_bundle(self):
        assert almost_free_report([]).almost_free


class TestRoundTrip:
    def test_natural_order_reproduced(self):
        ball = z_ball(10)
        order = natural_order(ball)
        rm = realize(standard_enumeration(10), order)
        recovered = order_from_realization(rm, ball)
        assert recovered.signs == order.signs

    def test_recovered_order_is_invariant(self):
        # probe orders inherit invariance whenever the acting set fixes the
        # endpoint and preserves the probe direction
        from treeact.ordering import check_invariance

        ball = z_ball(4)
        rm = realize(standard_enumeration(4), natural_order(ball))
        recovered = order_from_realization(rm, ball)
        inner = z_ball(3)
        rep = check_invariance(recovered, [U, U.inverse()], inner)
        assert rep.passed

    def test_trivial_action_error(self):
        # realize only the identity, then ask for an order on a bigger ball
        small = z_ball(0)
        rm = realize([GroupMatrix.identity(2)], natural_order(small))
        with pytest.raises((OrderingError, RealizeError)):
            order_from_realization(rm, z_ball(1))

    def test_non_transitive_probe_order_is_rejected(self):
        # ordered by exponent as -2, -1, 2, 0, 1: skipping the probes with a
        # missing image, the comparator puts u^-2 above u^0 although the
        # sorted result puts it below
        ball = z_ball(2)
        power = {m.entries[1]: m for m in ball.elements}
        order = OrderAssignment.from_total_order(ball, [power[k] for k in (-2, -1, 2, 0, 1)])
        rm = realize(list(ball.elements), order)
        with pytest.raises(OrderingError, match="not transitive"):
            order_from_realization(rm, ball)

    def test_scrambled_enumeration_still_round_trips(self):
        ball = z_ball(4)
        order = natural_order(ball)
        elems = list(ball.elements)
        random.Random(3).shuffle(elems)
        rm = realize(elems, order)
        recovered = order_from_realization(rm, ball)
        assert recovered.signs == order.signs

    def test_ball_lookups_stay_linear(self, monkeypatch):
        # the order is read by ball index: each element is looked up a few
        # times in all, never once per pair
        ball = z_ball(100)
        order = natural_order(ball)
        elems = list(ball.elements)
        random.Random(5).shuffle(elems)
        looked_up = []
        index = Ball.index

        def counted(self, g):
            looked_up.append(g)
            return index(self, g)

        monkeypatch.setattr(Ball, "index", counted)
        recovered = order_from_realization(realize(elems, order), ball)
        assert recovered.signs == order.signs
        assert len(looked_up) <= 3 * len(ball)


class TestExports:
    def test_realization_csv(self):
        ball = z_ball(2)
        rm = realize(standard_enumeration(2), natural_order(ball))
        text = realization_to_csv(rm, ball)
        assert text.splitlines()[0] == "word,t"
        assert "e,0/1" in text

    def test_plhomeo_csv(self):
        ball = z_ball(2)
        rm = realize(standard_enumeration(2), natural_order(ball))
        gm = generator_pl_map(rm, U, ball, label="g")
        text = plhomeo_to_csv(gm)
        assert text.splitlines()[0] == "x,y"
        assert "-2/1,-1/1" in text
