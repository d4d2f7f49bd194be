"""Dynamical realization of a finitely ordered ball on the rational line.

The map t places ball elements on exact rationals by the midpoint/extend
induction; each group element then acts on the realized points by left
multiplication, interpolated piecewise-affinely in between and extended by
slope-one tails.  Two formal symbols stand for the compactifying endpoints
and are fixed by every map.  The classical construction also extends the
action to the closure of the realized set; a finite set is its own closure,
so that step is deliberately absent rather than missing.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .matrices import GroupMatrix
from .ordering import Ball, OrderAssignment, OrderingError, format_word, order_from_probe_keys


class RealizeError(ValueError):
    pass


class _Endpoint:
    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return self.label


NEG_INF = _Endpoint("-inf")
POS_INF = _Endpoint("+inf")


@dataclass(eq=False)
class RealizationMap:
    """Order-compatible injection of the enumerated elements into Q.  Inside,
    the realized elements are a ``Ball`` in the ascending order ``realize``
    builds, so an element's index there is its rank, its place in that
    order, and a row of that ball is a row of ranks."""

    elements: tuple[GroupMatrix, ...]   # enumeration order
    points: Ball                        # the realized elements, ascending in t
    values: list[Fraction]              # their t, in the same order

    @cached_property
    def t(self) -> dict[GroupMatrix, Fraction]:
        return dict(zip(self.points.elements, self.values))

    def rank_of(self, g: GroupMatrix) -> int | None:
        """The rank of g, or None when g (of any dimension or modulus) is not realized."""
        return self.points._find(g)

    def value(self, g: GroupMatrix) -> Fraction:
        if (r := self.rank_of(g)) is None:
            raise RealizeError("element not realized")
        return self.values[r]

    def __contains__(self, g: GroupMatrix) -> bool:
        return self.rank_of(g) is not None

    def __len__(self) -> int:
        return len(self.elements)


def realize(enumeration: Sequence[GroupMatrix], order: OrderAssignment) -> RealizationMap:
    """Build t by induction: first element at 0, new extremes step by one,
    anything in between lands at the midpoint of its assigned neighbours.

    Each new g is compared, by ball index, with every element placed before
    it, and placed above exactly those h with sign(g, h) = +1; since
    sign(h, g) = -sign(g, h), t agrees with the order on every pair, and no
    pair is checked again.
    """
    if not enumeration:
        raise RealizeError("empty enumeration")
    if len(set(enumeration)) != len(enumeration):
        raise RealizeError("enumeration repeats an element")
    ball = order.ball
    index, sign = ball.index, order.sign_idx
    values = [Fraction(0)]  # t of the placed elements, ascending
    assigned = [index(enumeration[0])]  # their ball indices, in the same order
    for g in enumeration[1:]:
        i = index(g)
        below = [j for j in assigned if sign(i, j) == 1]
        k = len(below)
        # sanity: the elements below g must be exactly the first k assigned
        if below != assigned[:k]:
            raise OrderingError("order not total on the enumeration")
        if k == 0:
            val = values[0] - 1
        elif k == len(values):
            val = values[-1] + 1
        else:
            val = (values[k - 1] + values[k]) / 2
        assigned.insert(k, i)
        values.insert(k, val)
    points = tuple(ball.elements[i] for i in assigned)
    words = {x: ball.words.get(x, ()) for x in points}   # so rows compose as on the ball
    return RealizationMap(tuple(enumeration),
                          Ball(points, ball.generators, ball.names, ball.radius, words), values)


@dataclass(frozen=True)
class PLHomeo:
    """Increasing piecewise-linear map given by exact rational breakpoints.

    Between breakpoints the map interpolates affinely; beyond the hull it
    continues with slope one, and the two formal endpoints map to themselves.
    Coordinates may be given in any order and as anything ``Fraction``
    accepts; only those that are not already a ``Fraction`` are converted,
    and breakpoints given in ascending x cost one comparison each to sort.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted((x if type(x) is Fraction else Fraction(x),
                            y if type(y) is Fraction else Fraction(y))
                           for x, y in self.breakpoints))
        if not pts:
            raise RealizeError("at least one breakpoint required")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 == x1 or y0 >= y1:
                raise RealizeError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)
        # lookup indexes, not fields: eq, hash and repr see only breakpoints
        object.__setattr__(self, "_xs", [x for x, _ in pts])
        object.__setattr__(self, "_at", dict(pts))

    def __call__(self, x):
        if x is NEG_INF or x is POS_INF:
            return x
        y = self._at.get(x)  # numbers equal to a Fraction hash like it
        if y is not None:
            return y
        x = Fraction(x)
        pts = self.breakpoints
        # x is no breakpoint: xs[k-1] < x < xs[k], or x lies beyond the hull
        k = bisect_left(self._xs, x)
        if k == 0:
            return pts[0][1] + (x - pts[0][0])
        if k == len(pts):
            return pts[-1][1] + (x - pts[-1][0])
        (x0, y0), (x1, y1) = pts[k - 1], pts[k]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


@dataclass(frozen=True)
class GeneratorMap:
    """A realized group element acting on the realizable part of the ball."""

    element: GroupMatrix
    word: str
    homeo: PLHomeo
    domain: tuple[GroupMatrix, ...]   # the sub-ball actually realized


def generator_pl_map(rm: RealizationMap, g: GroupMatrix, closure: Ball, label: str) -> GeneratorMap:
    """PL action of g: breakpoints (t(x), t(g x)) over the largest valid sub-ball.

    The domain keeps the closure's order; the breakpoints are handed over in
    ascending rank, which is ascending t, sorted on ints."""
    row, values = rm.points.row(g), rm.values
    at = [(x, r) for x in closure.elements
          if (r := rm.rank_of(x)) is not None and row[r] is not None]
    if not at:
        raise RealizeError("empty realizable sub-ball")
    domain = [x for x, _ in at]
    try:
        homeo = PLHomeo(tuple((values[r], values[row[r]]) for r in sorted(r for _, r in at)))
    except RealizeError:
        # g is not increasing on this domain: name two neighbours it reverses
        pts = [(values[r], values[row[r]]) for _, r in at]
        by_t = sorted(range(len(pts)), key=lambda k: pts[k][0])
        a, b = next((a, b) for a, b in zip(by_t, by_t[1:]) if pts[a][1] >= pts[b][1])
        x, y = (format_word(closure.words[domain[k]]) for k in (a, b))
        raise RealizeError(f"generator {label} reverses the order of {x} < {y}, so its "
                           "breakpoints are not strictly increasing: the order is not "
                           "invariant there") from None
    return GeneratorMap(g, label, homeo, tuple(domain))


@dataclass(frozen=True)
class FixedSet:
    """Fixed locus of a PL map within its breakpoint hull; the formal
    endpoints, fixed by every map, are not listed."""

    points: tuple[Fraction, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]


def fixed_set(m: PLHomeo) -> FixedSet:
    """Exact description of {x : m(x) = x} inside the breakpoint hull.

    The displacement d = m(x) - x is taken once per breakpoint; on a segment
    it is affine, so the segment lies on the diagonal when d vanishes at both
    ends, misses it when d is constant and nonzero or keeps one strict sign,
    and otherwise meets it once, where d changes sign or at the end where d
    is zero.
    """
    pts = m.breakpoints
    points: list[Fraction] = []
    intervals: list[tuple[Fraction, Fraction]] = []

    def add_point(x: Fraction) -> None:
        if x not in points:
            points.append(x)

    ds = [y - x for x, y in pts]
    for (x0, _), (x1, _), d0, d1 in zip(pts, pts[1:], ds, ds[1:]):
        if d0 == d1:
            if d0 == 0:
                intervals.append((x0, x1))
            continue   # else parallel to the diagonal without touching it
        if d0 * d1 <= 0:
            add_point(x0 if d0 == 0 else x1 if d1 == 0 else x0 + d0 * (x1 - x0) / (d0 - d1))
    if len(pts) == 1 and pts[0][0] == pts[0][1]:
        add_point(pts[0][0])
    # merge: absorb points lying inside or at the ends of intervals
    merged: list[tuple[Fraction, Fraction]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(b, merged[-1][1]))
        else:
            merged.append((a, b))
    clean_points = tuple(
        sorted(x for x in points if not any(a <= x <= b for a, b in merged))
    )
    return FixedSet(clean_points, tuple(merged))


@dataclass(frozen=True)
class RealizationReport:
    passed: bool
    equivariance_failures: tuple[str, ...]
    composition_failures: tuple[str, ...]


def verify_realization(rm: RealizationMap, maps: Sequence[GeneratorMap]) -> RealizationReport:
    """Re-check equivariance and composition of realized maps.

    Monotonicity needs no check: ``PLHomeo`` rejects breakpoints that do not
    increase strictly, and is frozen.  Points are read by rank, through the
    row each map element keeps on the realized points, and each map is
    evaluated once at every realized value.  A composition reads g h off
    g's row when h and g h are realized; only otherwise is the product made.
    """
    values, elements = rm.values, rm.points.elements
    rows = [rm.points.row(gm.element) for gm in maps]
    evals = [[gm.homeo(v) for v in values] for gm in maps]
    # ok[k][r]: map k sends the point of rank r to t(g x), with g x realized
    ok = [[gx is not None and y == values[gx] for y, gx in zip(ev, row)]
          for ev, row in zip(evals, rows)]
    # the rank of each domain point, None where it is not realized
    ranks = [[rm.rank_of(x) for x in gm.domain] for gm in maps]
    equiv, comp = [], []
    for gm, row, fine, dom in zip(maps, rows, ok, ranks):
        for x, r in zip(gm.domain, dom):
            if r is None:
                if gm.element * x in rm:
                    raise RealizeError("element not realized")
            elif row[r] is not None and not fine[r]:
                equiv.append(f"{gm.word}: map(t(x)) != t(g*x) at t(x)={values[r]}")
    # each element is checked with the last of its maps
    by_element = {gm.element: k for k, gm in enumerate(maps)}
    last = [by_element[gm.element] for gm in maps]
    map_rank = [rm.rank_of(gm.element) for gm in maps]
    for kg, row_g in zip(last, rows):
        g, ok_g = maps[kg].element, ok[kg]
        for kh in last:
            if (rh := map_rank[kh]) is not None and (rgh := row_g[rh]) is not None:
                gh = elements[rgh]
            else:
                gh = g * maps[kh].element
            kgh = by_element.get(gh)
            if kgh is None:
                continue
            row_h, ok_h, ok_gh = rows[kh], ok[kh], ok[kgh]
            for r in ranks[kh]:
                if r is None or (hx := row_h[r]) is None or row_g[hx] is None:
                    continue
                # where all three maps are equivariant, both sides are t(g h x)
                if ok_h[r] and ok_g[hx] and ok_gh[r]:
                    continue
                mg_mh = evals[kg][hx] if ok_h[r] else maps[kg].homeo(evals[kh][r])
                if mg_mh != evals[kgh][r]:
                    comp.append(f"compose mismatch at t={values[r]}")
    return RealizationReport(not equiv and not comp, tuple(equiv), tuple(comp))


@dataclass(frozen=True)
class AlmostFreeReport:
    almost_free: bool
    witnesses: tuple[tuple[str, tuple[Fraction, Fraction]], ...]


def almost_free_report(maps: Sequence[GeneratorMap]) -> AlmostFreeReport:
    """Flag any non-identity element whose map fixes a whole interval."""
    witnesses = []
    for gm in maps:
        if gm.element.is_identity():
            continue
        fs = fixed_set(gm.homeo)
        for a, b in fs.intervals:
            if a < b:
                witnesses.append((gm.word, (a, b)))
    return AlmostFreeReport(not witnesses, tuple(witnesses))


def order_from_realization(rm: RealizationMap, ball: Ball) -> OrderAssignment:
    """Recover an order on the ball from the realized action on Q.

    Every realized value is a probe, taken in ascending order (away from the
    lower formal endpoint).  Each element acts partially: g moves t(x) to
    t(g x) when both are realized; a probe where either side is missing has
    image None and is skipped by ``order_from_probe_keys``.  The keys are
    the rank rows that ``Ball.row`` composes along the words on the
    realized points.
    """
    # rank is strictly increasing in t, so rank keys compare as t keys would
    return order_from_probe_keys(ball, [rm.points.row(g) for g in ball.elements])


# -- CSV / SVG exports ----------------------------------------------------------


def realization_to_csv(rm: RealizationMap, ball: Ball) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["word", "t"])
    for g in rm.elements:
        frac = rm.value(g)
        w.writerow([format_word(ball.words[g]), f"{frac.numerator}/{frac.denominator}"])
    return buf.getvalue()


def plhomeo_to_csv(gm: GeneratorMap) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["x", "y"])
    for x, y in gm.homeo.breakpoints:
        w.writerow([f"{x.numerator}/{x.denominator}", f"{y.numerator}/{y.denominator}"])
    return buf.getvalue()


def plhomeo_to_svg(gm: GeneratorMap) -> str:
    size = 360
    pts = gm.homeo.breakpoints
    lo = min(min(x for x, _ in pts), min(y for _, y in pts))
    hi = max(max(x for x, _ in pts), max(y for _, y in pts))
    span = hi - lo if hi != lo else Fraction(1)

    def sx(v: Fraction) -> float:
        return float((v - lo) / span) * (size - 40) + 20

    def sy(v: Fraction) -> float:
        return size - 20 - float((v - lo) / span) * (size - 40)

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    diag = f"20,{size - 20} {size - 20},20"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">\n'
        f'  <polyline points="{diag}" fill="none" stroke="#bbb" stroke-dasharray="4"/>\n'
        f'  <polyline points="{path}" fill="none" stroke="#d62728" stroke-width="2"/>\n'
        f"</svg>\n"
    )
