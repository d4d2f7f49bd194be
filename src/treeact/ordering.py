"""Finite ordering spaces: axiom checkers, invariant-order search, extraction.

An order assignment is an antisymmetric sign function on ordered pairs of
distinct ball elements, phi(g, h) = +1 meaning g comes after h.  The search
looks for assignments that are simultaneously antisymmetric (R), transitive
(T) and left-invariant under a finite set (L), returning either a verified
witness or an exhausted search trace; running out of budget is a third,
explicitly inconclusive outcome.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Mapping, Sequence

from ._walk import walk
from .matrices import (
    CapExceeded, GroupMatrix, MatrixError, _is_int, matrix_from_json, matrix_to_json,
)


class OrderingError(ValueError):
    pass


class SearchBudgetExhausted(RuntimeError):
    """The search ran out of budget before reaching Sat or Unsat.

    The fields say how far it got: the decisions tried (``branches``), the
    depth of the decision stack, the classes assigned out of all classes,
    and the budget units used (``propagation_steps``).
    """

    def __init__(self, *, branches: int, depth: int, classes_assigned: int,
                 classes: int, propagation_steps: int) -> None:
        super().__init__("search budget exhausted")
        self.branches = branches
        self.depth = depth
        self.classes_assigned = classes_assigned
        self.classes = classes
        self.propagation_steps = propagation_steps

    def progress(self) -> dict[str, int]:
        return {
            "branches": self.branches,
            "depth": self.depth,
            "classes_assigned": self.classes_assigned,
            "classes": self.classes,
            "propagation_steps": self.propagation_steps,
        }


Word = tuple[tuple[str, int], ...]


@dataclass(eq=False)
class Ball:
    """Word-length ball in a matrix group: identity-containing, inverse-closed."""

    elements: tuple[GroupMatrix, ...]
    generators: tuple[GroupMatrix, ...]
    names: tuple[str, ...]
    radius: int
    words: dict[GroupMatrix, Word]

    def __post_init__(self) -> None:
        self._index = {g: k for k, g in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: GroupMatrix) -> bool:
        return g in self._index

    def index(self, g: GroupMatrix) -> int:
        if g not in self._index:
            raise OrderingError("element not in ball")
        return self._index[g]

    def word(self, g: GroupMatrix) -> Word:
        return self.words[g]


def ball_generate(
    gens: Sequence[GroupMatrix],
    radius: int,
    names: Sequence[str] | None = None,
    cap: int = 200_000,
) -> Ball:
    """All products of at most ``radius`` generators and inverses."""
    if radius < 0:
        raise OrderingError("radius must be nonnegative")
    if not gens:
        raise OrderingError("at least one generator required")
    n, mod = gens[0].n, gens[0].mod
    for g in gens:
        if g.n != n or g.mod != mod:
            raise MatrixError("generators must share dimension and domain")
    if names is None:
        names = tuple(f"g{k}" for k in range(len(gens)))
    names = tuple(names)
    if len(names) != len(gens) or not all(isinstance(x, str) for x in names):
        raise OrderingError("one string name per generator required")
    steps = [(name, e, s) for name, g in zip(names, gens)
             for e, s in ((1, g), (-1, g.inverse()))]
    ident = GroupMatrix.identity(n, mod)
    words: dict[GroupMatrix, Word] = {ident: ()}
    found = walk(ident, lambda x: (x * s for _name, _e, s in steps))
    for y, x, k, depth in islice(found, 1, None):
        if depth > radius:
            break
        if len(words) >= cap:
            raise CapExceeded("ball exceeds cap")
        words[y] = words[x] + (steps[k][:2],)
    elements = tuple(sorted(words, key=lambda g: g.entries))
    return Ball(elements, tuple(gens), names, radius, words)


def format_word(word: Word) -> str:
    if not word:
        return "e"
    return "*".join(name if e == 1 else f"{name}^-1" for name, e in word)


@dataclass(eq=False)
class OrderAssignment:
    """Sign function on ordered pairs of distinct ball elements."""

    ball: Ball
    signs: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        # Store both orientations; reject inconsistent input.
        full: dict[tuple[int, int], int] = {}
        for (i, j), s in self.signs.items():
            if i == j:
                raise OrderingError("diagonal pair in assignment")
            if s not in (-1, 1):
                raise OrderingError("signs must be +1 or -1")
            if full.get((i, j), s) != s or full.get((j, i), -s) != -s:
                raise OrderingError("conflicting signs for a pair")
            full[(i, j)] = s
            full[(j, i)] = -s
        self.signs = full

    def sign_idx(self, i: int, j: int) -> int:
        try:
            return self.signs[(i, j)]
        except KeyError:
            raise OrderingError("incomplete assignment") from None

    @staticmethod
    def from_total_order(ball: Ball, ascending: Sequence[GroupMatrix]) -> "OrderAssignment":
        pos = {ball.index(g): k for k, g in enumerate(ascending)}
        if len(pos) != len(ball):
            raise OrderingError("total order must cover the ball")
        signs = {}
        idx = list(pos)
        for a in idx:
            for b in idx:
                if a != b:
                    signs[(a, b)] = 1 if pos[a] > pos[b] else -1
        return OrderAssignment(ball, signs)


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    antisymmetry_violations: tuple[tuple[int, int], ...]
    transitivity_violations: tuple[tuple[int, int, int], ...]


def check_axioms(phi: OrderAssignment) -> AxiomReport:
    """Check antisymmetry and transitivity on every pair/triple of the ball."""
    idx = range(len(phi.ball))
    r_bad = []
    for a in idx:
        for c in idx:
            if a < c:
                if phi.sign_idx(a, c) != -phi.sign_idx(c, a):
                    r_bad.append((a, c))
    # bit y of below[x] is set when x > y; f > g > h needs f > h, so the
    # violations (f, g, h) are the bits h of below[g] & ~below[f] other than f, g
    below = [sum(1 << y for y in idx if y != x and phi.signs[(x, y)] == 1) for x in idx]
    t_bad = []
    for f in idx:
        for g in idx:
            if g != f and below[f] >> g & 1:
                miss = below[g] & ~below[f] & ~(1 << f | 1 << g)
                while miss:
                    low = miss & -miss
                    t_bad.append((f, g, low.bit_length() - 1))
                    miss ^= low
    return AxiomReport(not r_bad and not t_bad, tuple(r_bad), tuple(t_bad))


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    violations: tuple[tuple[int, int, int], ...]  # (f, g, h) as indices of phi's ball


def invariance_set(gens: Sequence[GroupMatrix], mode: str) -> list[GroupMatrix]:
    """The set F of a left-invariance condition: the generators, plus their
    inverses when ``mode`` is ``gens+inv``."""
    f = list(gens)
    if mode == "gens+inv":
        f += [g.inverse() for g in gens]
    return f


def check_invariance(
    phi: OrderAssignment, f: Sequence[GroupMatrix], b: Ball
) -> InvarianceReport:
    """Check phi(fg, fh) = phi(g, h) for f in F and distinct g, h in b."""
    elems, index, signs = b.elements, phi.ball._index, phi.signs
    first: dict[GroupMatrix, int] = {}  # g == h compares values: equal ones share a slot
    same = [first.setdefault(g, k) for k, g in enumerate(elems)]
    at = [index.get(g) for g in elems]
    bad = []
    for fm in f:
        # each fg's index in phi's ball once, None outside it
        at_moved = [index.get(fm * g) for g in elems]
        for a, (ia, ja) in enumerate(zip(at_moved, at)):
            for c, (ic, jc) in enumerate(zip(at_moved, at)):
                if same[a] == same[c]:
                    continue
                s, t = signs.get((ia, ic)), signs.get((ja, jc))
                if s is None or t is None:
                    # the first failure of phi(fg, fh), then of phi(g, h)
                    if ia is None or ic is None:
                        raise OrderingError("ball containment violated")
                    if s is not None and (ja is None or jc is None):
                        raise OrderingError("element not in ball")
                    raise OrderingError("incomplete assignment")
                if s != t:
                    bad.append((index.get(fm, -1), ja, jc))
    return InvarianceReport(not bad, tuple(bad))


# -- invariant-order search -----------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    pair: tuple[int, int]
    value: int
    reason: str


@dataclass(frozen=True)
class UnsatTrace:
    branches: int
    forcing_chain: tuple[TraceStep, ...]

    def to_json(self) -> dict:
        return {
            "branches": self.branches,
            "forcing_chain": [
                {"pair": list(s.pair), "value": s.value, "reason": s.reason}
                for s in self.forcing_chain
            ],
        }


@dataclass(frozen=True)
class SearchResult:
    status: str  # "sat" | "unsat"
    witness: OrderAssignment | None
    trace: UnsatTrace | None
    decisions: int

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def _gluing_chain(
    log: list[tuple[int, int, str]], p: int, q: int, size: int
) -> list[tuple[tuple[int, int], str]]:
    """The gluings on a shortest path from pair p to pair q, as (pair, label),
    walking the logged gluings breadth first in the order they were made."""
    adj: dict[int, list[tuple[int, str]]] = {}
    for x, y, label in log:
        adj.setdefault(x, []).append((y, label))
        adj.setdefault(y, []).append((x, label))
    prev: dict[int, tuple[int, str]] = {}
    for y, x, k, _depth in walk(p, lambda v: [w for w, _label in adj.get(v, ())]):
        if x is not None:
            prev[y] = (x, adj[x][k][1])
        if y == q:
            break
    out = []
    while q in prev:
        x, label = prev[q]
        out.append((divmod(q, size), label))
        q = x
    out.reverse()
    return out


def search_invariant(
    f: Sequence[GroupMatrix],
    b: Ball,
    b2: Ball,
    budget: int = 500_000,
    shuffle_seed: int | None = None,
) -> SearchResult:
    """Backtracking search for an (F, b)-invariant total order on b2.

    Depth-first over pair variables in canonical order, assigning -1 before
    +1, propagating transitivity and the invariance gluing after every step.
    One budget unit is one pop of the propagation queue, repeated entries
    included; ``budget`` (the CLI's ``--budget``) caps their number.  The
    returned witness is re-verified by the public checkers before it is
    handed out.  Raises SearchBudgetExhausted, with how far the search got,
    when the budget runs out (deliberately distinct from Unsat).
    """
    for g in b.elements:
        if g not in b2:
            raise OrderingError("ball containment violated")
    size = len(b2)
    order = list(range(size))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    rank = {i: r for r, i in enumerate(order)}

    # The pair i < j of b2 indices is the int i*size + j, never 0.  The
    # invariance gluing is a union-find with parity over these ints:
    # parent[p] is 0 at a root, and parity[p] is +1 when p must take the
    # sign of parent[p], -1 when it must take the opposite sign.  Every
    # gluing made is logged, in order, for the chain of an Unsat trace.
    parent = [0] * (size * size)
    parity = [1] * (size * size)
    log: list[tuple[int, int, str]] = []

    def find(p: int) -> tuple[int, int]:
        chain = []
        while parent[p]:
            chain.append(p)
            p = parent[p]
        # compress: point every chain node at the root with its cumulative sign
        s = 1
        for q in reversed(chain):
            s = parity[q] * s
            parent[q] = p
            parity[q] = s
        return p, s

    first_contradiction: list[TraceStep] = []
    at = [b2.index(g) for g in b.elements]
    for fm in f:
        # each fg and its b2 index once; a missing image raises at the first
        # pair that needs it, after any contradiction found before that pair
        moved = [b2._index.get(fm * g) for g in b.elements]
        fw = format_word(b2.word(fm)) if fm in b2 else "f"
        label = f"left multiplication by {fw}"
        for ig, fg in zip(at, moved):
            for ih, fh in zip(at, moved):
                if ig >= ih:
                    continue
                if fg is None or fh is None:
                    raise OrderingError("ball containment violated")
                # glue sign(ig, ih) = rel * sign of the image's canonical pair
                p = ig * size + ih
                q, rel = (fg * size + fh, 1) if fg < fh else (fh * size + fg, -1)
                rp, sp = find(p)
                rq, sq = find(q)
                if rp != rq:
                    parent[rp] = rq
                    parity[rp] = rel * sp * sq
                elif sp != rel * sq:
                    steps = [TraceStep((ig, ih), +1, "assume a sign for this pair")]
                    steps += [
                        TraceStep(pr, 0, f"forced equal/opposite via {lb}")
                        for pr, lb in _gluing_chain(log, p, q, size)
                    ]
                    steps.append(
                        TraceStep(divmod(q, size), -1, f"also forced opposite via {label}")
                    )
                    return SearchResult(
                        "unsat", None, UnsatTrace(0, tuple(steps)), 0
                    )
                log.append((p, q, label))

    # Classes: root -> members (i, j, parity), and force[k][x], the class
    # entry (root, value) that makes k > x; both entries of a class are
    # shared by all its pairs.
    members: dict[int, list[tuple[int, int, int]]] = {}
    signed: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    force: list[list] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            root, s = find(i * size + j)
            members.setdefault(root, []).append((i, j, s))
            if root not in signed:
                signed[root] = ((root, 1), (root, -1))
            up, down = signed[root]
            force[i][j], force[j][i] = (up, down) if s == 1 else (down, up)
    roots = sorted(members, key=lambda p: sorted((rank[p // size], rank[p % size])))

    # value[root] is the class's sign, 0 while unassigned; a member (i, j, s)
    # then has phi(x_i, x_j) = value * s.  Bit k of gt[x] is set when k > x,
    # bit k of lt[x] when x > k.  The trail lists the classes assigned, in
    # order.
    value = [0] * (size * size)
    gt = [0] * size
    lt = [0] * size
    trail: list[int] = []
    nodes = branches = 0  # budget units used, decisions tried
    stack: list[list] = []  # frames [pos, values_left, mark]

    def assign(root: int, val: int, chain: list[TraceStep]) -> bool:
        """Assign a class and propagate; records steps into chain."""
        nonlocal nodes
        queue: deque[tuple[int, int]] = deque([(root, val)])
        why = "decision or forced class"
        while queue:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExhausted(
                    branches=branches,
                    depth=len(stack),
                    classes_assigned=len(trail),
                    classes=len(roots),
                    propagation_steps=budget,
                )
            r, v = queue.popleft()
            fixed = value[r]
            if fixed:
                if fixed != v:
                    chain.append(TraceStep(divmod(r, size), v,
                                           f"class already fixed opposite ({why})"))
                    return False
            else:
                chain.append(TraceStep(divmod(r, size), v, why))
                value[r] = v
                trail.append(r)
                for i, j, s in members[r]:
                    # transitive closure through the new edge a > c, by masks
                    a, c = (i, j) if v * s == 1 else (j, i)
                    gt[c] |= 1 << a
                    lt[a] |= 1 << c
                    above_a, below_c = gt[a], lt[c]
                    clash = above_a & below_c  # k > a > c > k
                    if clash:
                        k = (clash & -clash).bit_length() - 1
                        chain.append(TraceStep((k, c), 1, "transitivity conflict"))
                        return False
                    # k > a > c forces k > c, and a > c > k forces a > k;
                    # queued by increasing k (no k is in both, as none clashes)
                    over = above_a & ~gt[c]
                    todo = over | (below_c & ~lt[a])
                    while todo:
                        low = todo & -todo
                        k = low.bit_length() - 1
                        queue.append(force[k][c] if over & low else force[a][k])
                        todo ^= low
            why = "forced by transitivity"
        return True

    def undo(mark: int) -> None:
        # a failed assign may stop partway through a class, so each member's
        # bits are cleared, not flipped
        while len(trail) > mark:
            r = trail.pop()
            v = value[r]
            value[r] = 0
            for i, j, s in members[r]:
                a, c = (i, j) if v * s == 1 else (j, i)
                gt[c] &= ~(1 << a)
                lt[a] &= ~(1 << c)

    def next_pos(pos: int) -> int:
        while pos < len(roots) and value[roots[pos]]:
            pos += 1
        return pos

    # iterative depth-first search; values tried -1 before +1 so the found
    # witness is the canonically least satisfying leaf
    found = False
    start = next_pos(0)
    if start == len(roots):
        found = True
    else:
        stack.append([start, [-1, 1], 0])
    while stack:
        frame = stack[-1]
        pos, values, _mark = frame
        if pos == len(roots):
            found = True
            break
        if values:
            val = values.pop(0)
            frame[2] = len(trail)
            branches += 1
            chain: list[TraceStep] = []
            if assign(roots[pos], val, chain):
                stack.append([next_pos(pos + 1), [-1, 1], 0])
            else:
                if not first_contradiction:
                    first_contradiction.extend(chain)
                undo(frame[2])
        else:
            stack.pop()
            if stack:
                undo(stack[-1][2])
    if not found:
        return SearchResult(
            "unsat",
            None,
            UnsatTrace(branches, tuple(first_contradiction)),
            branches,
        )
    signs = {(i, j): value[r] * s for r in roots for i, j, s in members[r]}
    witness = OrderAssignment(b2, signs)
    # Mandatory re-verification through the public checkers.
    axioms = check_axioms(witness)
    invariance = check_invariance(witness, f, b)
    if not axioms.passed or not invariance.passed:
        raise AssertionError("internal error: witness failed re-verification")
    return SearchResult("sat", witness, None, branches)


# -- compactness extraction -----------------------------------------------------


@dataclass(frozen=True)
class ExtractResult:
    assignment: OrderAssignment
    supporters: tuple[int, ...]


def compactness_extract(
    chain: Sequence[OrderAssignment], target: Ball
) -> ExtractResult:
    """Pigeonhole step: the restriction to ``target`` shared by most members.

    Each chain member that covers the target ball contributes its restriction
    signature; the most frequent signature wins (ties break to the smallest),
    together with the indices of the members that support it.
    """
    pairs = [
        (i, j) for i in range(len(target)) for j in range(len(target)) if i < j
    ]
    signatures: dict[tuple[int, ...], list[int]] = {}
    for k, phi in enumerate(chain):
        # a member that lacks a target element or a pair has a None and is skipped
        at = [phi.ball._index.get(g) for g in target.elements]
        sig = tuple(phi.signs.get((at[i], at[j])) for i, j in pairs)
        if None not in sig:
            signatures.setdefault(sig, []).append(k)
    if not signatures:
        raise OrderingError("insufficient chain")
    best = max(sorted(signatures), key=lambda s: len(signatures[s]))
    signs = {p: s for p, s in zip(pairs, best)}
    return ExtractResult(OrderAssignment(target, signs), tuple(signatures[best]))


# -- orders from actions ----------------------------------------------------------


def order_from_probe_keys(
    ball: Ball, keys: Sequence[Sequence[int | None]]
) -> OrderAssignment:
    """Total order on the ball from per-element probe-image keys, where
    ``keys[k]`` belongs to ``ball.elements[k]``.

    Keys compare lexicographically, skipping every probe where either image
    is None.  Skipped probes can make that comparison intransitive, so the
    sorted result is checked against every pair.  Raises ``OrderingError``
    when the probes leave two elements equal, naming why (no probe has an
    image under both, or every probe that has agrees), or when the order is
    not transitive.
    """
    def compare(a: int, b: int) -> int:
        for va, vb in zip(keys[a], keys[b]):
            if va is not None and vb is not None and va != vb:
                return 1 if va > vb else -1
        return 0

    ascending = sorted(range(len(ball)), key=functools.cmp_to_key(compare))
    for i, a in enumerate(ascending):
        for b in ascending[i + 1:]:
            c = compare(a, b)
            if c == 0:
                shared = any(va is not None and vb is not None
                             for va, vb in zip(keys[a], keys[b]))
                raise OrderingError(
                    "probes insufficient: every shared probe agrees "
                    "(action not almost free at this scale)" if shared else
                    "probes insufficient: no probe is realized for both elements"
                )
            if c > 0:
                raise OrderingError("probe order not transitive at this scale")
    return OrderAssignment.from_total_order(ball, [ball.elements[k] for k in ascending])


# -- serialization ----------------------------------------------------------------


def ball_to_json(b: Ball) -> dict:
    return {
        "radius": b.radius,
        "names": list(b.names),
        "generators": [matrix_to_json(g) for g in b.generators],
        "count": len(b),
    }


def ball_from_json(obj: Mapping) -> Ball:
    if not (isinstance(obj.get("generators"), list) and isinstance(obj.get("names"), list)
            and _is_int(obj.get("radius"))):
        raise OrderingError("ball must have 'generators' and 'names' lists and an integer 'radius'")
    gens = [matrix_from_json(g) for g in obj["generators"]]
    ball = ball_generate(gens, obj["radius"], obj["names"])
    if "count" in obj and obj["count"] != len(ball):
        raise OrderingError("ball provenance does not match regenerated ball")
    return ball


def assignment_to_json(phi: OrderAssignment) -> dict:
    triples = sorted(
        [i, j, s] for (i, j), s in phi.signs.items() if i < j
    )
    return {"ball": ball_to_json(phi.ball), "signs": triples}


def assignment_from_json(obj: Mapping) -> OrderAssignment:
    """Parse ``{"ball", "signs"}``; each sign triple is ``[i, j, +-1]`` over ball indices."""
    if not (isinstance(obj, Mapping) and isinstance(obj.get("ball"), Mapping)
            and isinstance(obj.get("signs"), list)):
        raise OrderingError("order assignment must be an object with 'ball' and 'signs'")
    ball = ball_from_json(obj["ball"])
    for t in obj["signs"]:
        if not (isinstance(t, list) and len(t) == 3 and all(_is_int(x) for x in t)
                and 0 <= t[0] < len(ball) and 0 <= t[1] < len(ball)):
            raise OrderingError(f"sign triples must be [i, j, s] with integer indices "
                                f"in [0, {len(ball)}); got {t!r}")
    return OrderAssignment(ball, {(i, j): s for i, j, s in obj["signs"]})
