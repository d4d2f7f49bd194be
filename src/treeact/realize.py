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
    """Order-compatible injection of the enumerated elements into Q."""

    elements: tuple[GroupMatrix, ...]          # enumeration order
    t: dict[GroupMatrix, Fraction]

    def value(self, g: GroupMatrix) -> Fraction:
        if g not in self.t:
            raise RealizeError("element not realized")
        return self.t[g]

    def __contains__(self, g: GroupMatrix) -> bool:
        return g in self.t

    def __len__(self) -> int:
        return len(self.elements)


def realize(enumeration: Sequence[GroupMatrix], order: OrderAssignment) -> RealizationMap:
    """Build t by induction: first element at 0, new extremes step by one,
    anything in between lands at the midpoint of its assigned neighbours."""
    if not enumeration:
        raise RealizeError("empty enumeration")
    if len(set(enumeration)) != len(enumeration):
        raise RealizeError("enumeration repeats an element")
    t: dict[GroupMatrix, Fraction] = {enumeration[0]: Fraction(0)}
    assigned: list[GroupMatrix] = [enumeration[0]]  # kept sorted ascending
    for g in enumeration[1:]:
        below = [h for h in assigned if order.sign(g, h) == 1]
        k = len(below)
        # sanity: the elements below g must be exactly the first k assigned
        if below != assigned[:k]:
            raise OrderingError("order not total on the enumeration")
        if k == 0:
            val = t[assigned[0]] - 1
        elif k == len(assigned):
            val = t[assigned[-1]] + 1
        else:
            val = (t[assigned[k - 1]] + t[assigned[k]]) / 2
        t[g] = val
        assigned.insert(k, g)
    rm = RealizationMap(tuple(enumeration), t)
    # order-compatibility is an invariant of the construction; verify it
    for i, g in enumerate(rm.elements):
        for h in rm.elements[i + 1:]:
            if (order.sign(g, h) == 1) != (t[g] > t[h]):
                raise AssertionError("internal error: realization broke the order")
    return rm


@dataclass(frozen=True)
class PLHomeo:
    """Increasing piecewise-linear map given by exact rational breakpoints.

    Between breakpoints the map interpolates affinely; beyond the hull it
    continues with slope one, and the two formal endpoints map to themselves.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted((Fraction(x), Fraction(y)) for x, y in self.breakpoints))
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

    def inverse(self) -> "PLHomeo":
        return PLHomeo(tuple((y, x) for x, y in self.breakpoints))

    def __mul__(self, other: "PLHomeo") -> "PLHomeo":
        """Composition (self after other) on other's breakpoint inputs."""
        return PLHomeo(tuple((x, self(y)) for x, y in other.breakpoints))


@dataclass(frozen=True)
class GeneratorMap:
    """A realized group element acting on the realizable part of the ball."""

    element: GroupMatrix
    word: str
    homeo: PLHomeo
    domain: tuple[GroupMatrix, ...]   # the sub-ball actually realized


def generator_pl_map(
    rm: RealizationMap,
    g: GroupMatrix,
    closure: Ball,
    label: str | None = None,
) -> GeneratorMap:
    """PL action of g: breakpoints (t(x), t(g x)) over the largest valid sub-ball."""
    if label is None:
        label = format_word(closure.word(g)) if g in closure else "g"
    domain = []
    pts = []
    for x in closure.elements:
        if x not in rm:
            continue
        gx = g * x
        if gx in rm:
            domain.append(x)
            pts.append((rm.value(x), rm.value(gx)))
    if not pts:
        raise RealizeError("empty realizable sub-ball")
    try:
        homeo = PLHomeo(tuple(pts))
    except RealizeError:
        # g is not increasing on this domain: name two neighbours it reverses
        by_t = sorted(range(len(pts)), key=lambda k: pts[k][0])
        a, b = next((a, b) for a, b in zip(by_t, by_t[1:]) if pts[a][1] >= pts[b][1])
        x, y = (format_word(closure.word(domain[k])) for k in (a, b))
        raise RealizeError(f"generator {label} reverses the order of {x} < {y}, so its "
                           "breakpoints are not strictly increasing: the order is not "
                           "invariant there") from None
    return GeneratorMap(g, label, homeo, tuple(domain))


@dataclass(frozen=True)
class FixedSet:
    """Fixed locus of a PL map within its breakpoint hull.

    The formal endpoints are fixed by construction and are reported by the
    flag rather than listed.
    """

    points: tuple[Fraction, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    formal_endpoints_fixed: bool = True


def fixed_set(m: PLHomeo) -> FixedSet:
    """Exact description of {x : m(x) = x} inside the breakpoint hull."""
    pts = m.breakpoints
    points: list[Fraction] = []
    intervals: list[tuple[Fraction, Fraction]] = []

    def add_point(x: Fraction) -> None:
        if x not in points:
            points.append(x)

    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 == y0 and x1 == y1:
            intervals.append((x0, x1))
            continue
        slope = (y1 - y0) / (x1 - x0)
        if slope == 1:
            # parallel to the diagonal without touching it (x0 != y0 here)
            continue
        # solve y0 + slope*(x - x0) = x
        x_star = (y0 - slope * x0) / (1 - slope)
        if x0 <= x_star <= x1:
            add_point(x_star)
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
    monotonicity_failures: tuple[str, ...]
    equivariance_failures: tuple[str, ...]
    composition_failures: tuple[str, ...]


def verify_realization(rm: RealizationMap, maps: Sequence[GeneratorMap]) -> RealizationReport:
    """Re-check monotonicity, equivariance and composition of realized maps."""
    # one product per map element g and realized y: g*y, or None if unrealized
    table = {g: {y: gy if (gy := g * y) in rm else None for y in rm.t}
             for g in dict.fromkeys(gm.element for gm in maps)}
    mono: list[str] = []
    equiv: list[str] = []
    comp: list[str] = []
    for gm in maps:
        bps = gm.homeo.breakpoints
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if not (x0 < x1 and y0 < y1):
                mono.append(f"{gm.word}: breakpoints out of order at {x0}")
        row = table[gm.element]
        for x in gm.domain:
            # an unrealized x with g*x realized raises in rm.value below
            gx = row[x] if x in row else gm.element * x
            if gx is not None and gx in rm:
                if gm.homeo(rm.value(x)) != rm.value(gx):
                    equiv.append(f"{gm.word}: map(t(x)) != t(g*x) at t(x)={rm.value(x)}")
    by_element = {gm.element: gm for gm in maps}
    pool = [gm.element for gm in maps]
    for g in pool:
        row_g = table[g]
        for h in pool:
            gh = row_g.get(h)
            if gh is None:  # h or g*h is not realized
                gh = g * h
            if gh not in by_element:
                continue
            mg, mh, mgh = by_element[g], by_element[h], by_element[gh]
            row_h = table[h]
            for x in mh.domain:
                hx = row_h.get(x)
                if hx is None or row_g[hx] is None:
                    continue
                tx = rm.t[x]
                if mg.homeo(mh.homeo(tx)) != mgh.homeo(tx):
                    comp.append(f"compose mismatch at t={tx}")
    return RealizationReport(not mono and not equiv and not comp,
                             tuple(mono), tuple(equiv), tuple(comp))


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


def order_from_realization(
    rm: RealizationMap, ball: Ball, probes: Sequence[Fraction] | None = None
) -> OrderAssignment:
    """Recover an order on the ball from the realized action on probe points.

    Probes default to all realized values in ascending order (away from the
    lower formal endpoint).  Each element acts partially: g moves t(x) to
    t(g x) when both are realized; a probe where either side is missing has
    image None and is skipped by ``order_from_probe_keys``.
    """
    values = sorted(rm.t.values())
    if probes is None:
        probes = values
    by_value = {v: g for g, v in rm.t.items()}
    for p in probes:
        if p not in by_value:
            raise RealizeError("probe is not a realized point")

    keys = {g: tuple(rm.t.get(g * by_value[p]) for p in probes) for g in ball.elements}
    return order_from_probe_keys(ball, keys)


# -- CSV / SVG exports ----------------------------------------------------------


def realization_to_csv(rm: RealizationMap, ball: Ball) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["word", "t"])
    for g in rm.elements:
        frac = rm.value(g)
        w.writerow([format_word(ball.word(g)), f"{frac.numerator}/{frac.denominator}"])
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
