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
from itertools import combinations, islice
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._walk import walk
from .matrices import (
    CapExceeded, GroupMatrix, MatrixError, _is_int, _mul_flat, matrix_from_json, matrix_to_json,
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
    """Group elements with their words, indexed: a word-length ball, or a realization's points."""

    elements: tuple[GroupMatrix, ...]
    generators: tuple[GroupMatrix, ...]
    names: tuple[str, ...]
    radius: int
    words: dict[GroupMatrix, Word]

    def __post_init__(self) -> None:
        self._index = {g.entries: k for k, g in enumerate(self.elements)}
        self._rows: dict[GroupMatrix, tuple[int | None, ...]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _at_word(self) -> dict[Word, GroupMatrix]:
        return {w: g for g, w in self.words.items()}

    def _find(self, g: GroupMatrix) -> int | None:
        """The index of g, or None when g (of any dimension or modulus) is not in the ball."""
        e = self.elements[0]
        return self._index.get(g.entries) if (g.n, g.mod) == (e.n, e.mod) else None

    def __contains__(self, g: GroupMatrix) -> bool:
        return self._find(g) is not None

    def index(self, g: GroupMatrix) -> int:
        if (k := self._find(g)) is None:
            raise OrderingError("element not in ball")
        return k

    def row(self, g: GroupMatrix) -> tuple[int | None, ...]:
        """For each element x, in ball order, the index of g x in the ball, or
        None when g x lies outside it; made once per g and kept.

        Where g's word is h's plus a letter s, and one product confirms
        h s = g, g x = h (s x): g's row reads h's through s's, with a flat
        product only where s x leaves the ball.  Any other g gets one flat
        product per element.
        """
        rows = self._rows
        if g in rows:
            return rows[g]
        g._check_compatible(self.elements[0])
        n, m, index = g.n, g.mod, self._index

        def image(a: tuple[int, ...], x: GroupMatrix) -> int | None:
            p = _mul_flat(a, x.entries, n)
            return index.get(p if m is None else tuple(v % m for v in p))

        # g, then each prefix h whose row the one before reads, down to a kept
        # or direct row; a link (h, s) is kept only when h s = g checks
        chain, h = [], g
        while h not in rows:
            word = self.words.get(h, ())
            link = self._at_word.get(word[:-1]), self._at_word.get(word[-1:])
            ok = len(word) > 1 and None not in link and link[0] * link[1] == h
            chain.append((h, link if ok else None))
            if not ok:
                break
            h = link[0]
        for g, link in reversed(chain):
            # a direct row reads no s x: every image is a product
            row_h, row_s = (rows[link[0]], self.row(link[1])) if link else ((), [None] * len(self))
            rows[g] = tuple([row_h[q] if q is not None else image(g.entries, x)
                             for x, q in zip(self.elements, row_s)])
        return rows[g]


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


class OrderAssignment:
    """Sign function on ordered pairs of distinct ball elements, in one of two forms.

    A total order is ``rank``, a permutation of the ball indices: i comes after
    j when ``rank[i] > rank[j]``, and ``signs`` is a read-only mapping made on
    first read.  Input that may be partial or inconsistent is a sign table:
    ``signs`` maps (i, j) to +-1, both orientations stored, read-only, and ``rank`` is None.
    """

    def __init__(self, ball: Ball, signs: Mapping[tuple[int, int], int] | None = None,
                 *, rank: Sequence[int] | None = None) -> None:
        self.ball = ball
        self.rank = None if rank is None else tuple(rank)
        self._signs: Mapping[tuple[int, int], int] | None = None
        if self.rank is not None:
            if signs is not None or sorted(self.rank) != list(range(len(ball))):
                raise OrderingError("a rank order takes a permutation of the ball indices only")
            return
        # Store both orientations; reject inconsistent input.
        full: dict[tuple[int, int], int] = {}
        idx = range(len(ball))
        for (i, j), s in (signs or {}).items():
            if i not in idx or j not in idx:
                raise OrderingError(f"pair ({i}, {j}) has an index outside the ball")
            if i == j:
                raise OrderingError("diagonal pair in assignment")
            if s not in (-1, 1):
                raise OrderingError("signs must be +1 or -1")
            if full.get((i, j), s) != s or full.get((j, i), -s) != -s:
                raise OrderingError("conflicting signs for a pair")
            full[(i, j)] = s
            full[(j, i)] = -s
        self._signs = MappingProxyType(full)

    @property
    def signs(self) -> Mapping[tuple[int, int], int]:
        if self._signs is None:  # a rank order: made on first read
            r = range(len(self.rank))
            self._signs = MappingProxyType({(i, j): self.sign_idx(i, j)
                                            for i in r for j in r if i != j})
        return self._signs

    def get_sign(self, i: int | None, j: int | None) -> int | None:
        """The sign of (i, j), or None when the pair is unknown: an index that
        is None or out of range, i == j, or a pair the sign table lacks."""
        rank = self.rank
        if rank is None:
            return self._signs.get((i, j))
        if i is not None and j is not None and i != j and 0 <= i < len(rank) and 0 <= j < len(rank):
            return 1 if rank[i] > rank[j] else -1
        return None

    def sign_idx(self, i: int, j: int) -> int:
        if (s := self.get_sign(i, j)) is None:
            raise OrderingError("incomplete assignment")
        return s

    @staticmethod
    def from_total_order(ball: Ball, ascending: Sequence[GroupMatrix]) -> "OrderAssignment":
        # each element's last place: a permutation only if every one is listed once
        pos = {ball.index(g): k for k, g in enumerate(ascending)}
        return OrderAssignment(ball, rank=[pos.get(i, -1) for i in range(len(ball))])


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    antisymmetry_violations: tuple[tuple[int, int], ...]   # always (): see check_axioms
    transitivity_violations: tuple[tuple[int, int, int], ...]


def check_axioms(phi: OrderAssignment) -> AxiomReport:
    """Check transitivity on every triple of the ball.  Antisymmetry holds by
    construction: a sign table is read-only and stores both orientations."""
    if phi.rank is not None:  # the constructor checked that the ranks are a permutation
        return AxiomReport(True, (), ())
    signs, idx = phi.signs, range(len(phi.ball))
    if any((x, y) not in signs for x in idx for y in idx if x != y):
        raise OrderingError("incomplete assignment")
    # bit y of below[x] is set when x > y; f > g > h needs f > h, so the
    # violations (f, g, h) are the bits h of below[g] & ~below[f] other than f, g
    below = [sum(1 << y for y in idx if y != x and signs[(x, y)] == 1) for x in idx]
    t_bad = []
    for f in idx:
        for g in idx:
            if g != f and below[f] >> g & 1:
                miss = below[g] & ~below[f] & ~(1 << f | 1 << g)
                while miss:
                    low = miss & -miss
                    t_bad.append((f, g, low.bit_length() - 1))
                    miss ^= low
    return AxiomReport(not t_bad, (), tuple(t_bad))


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


def check_invariance(phi: OrderAssignment, f: Sequence[GroupMatrix], b: Ball) -> InvarianceReport:
    """Check phi(fg, fh) = phi(g, h) for f in F and distinct g, h in b."""
    elems, ball, rank = b.elements, phi.ball, phi.rank
    first: dict[GroupMatrix, int] = {}  # g == h compares values: equal ones share a slot
    same = [first.setdefault(g, k) for k, g in enumerate(elems)]
    at = [ball._find(g) for g in elems]
    bad = []
    for fm in f:
        # each fg's index in phi's ball, None outside it: read off fm's row
        # where g is in the ball, by a product where it is not
        row = ball.row(fm) if at.count(None) < len(at) else ()
        at_moved = [row[j] if j is not None else ball._find(fm * g) for g, j in zip(elems, at)]
        if rank is not None and None not in at_moved and None not in at:
            # a total order is invariant under fm when rank(fg) increases with rank(g)
            moved = [m for _r, m in sorted({(rank[j], rank[i]) for i, j in zip(at_moved, at)})]
            if moved == sorted(moved):
                continue
        k_fm = ball._find(fm)
        for a, (ia, ja) in enumerate(zip(at_moved, at)):
            for c, (ic, jc) in enumerate(zip(at_moved, at)):
                if same[a] == same[c]:
                    continue
                s, t = phi.get_sign(ia, ic), phi.get_sign(ja, jc)
                if s is None or t is None:
                    # the first failure of phi(fg, fh), then of phi(g, h)
                    if ia is None or ic is None:
                        raise OrderingError("ball containment violated")
                    if s is not None and (ja is None or jc is None):
                        raise OrderingError("element not in ball")
                    raise OrderingError("incomplete assignment")
                if s != t:
                    bad.append((-1 if k_fm is None else k_fm, ja, jc))
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
    log: Iterable[tuple[int, int, str]], p: int, q: int, size: int
) -> list[tuple[tuple[int, int], str]]:
    """The gluings on a shortest path from pair p to pair q, as (pair, label),
    walking the gluings of ``log`` breadth first in the order they were made."""
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


def _multiplier_label(fm: GroupMatrix, b2: Ball) -> str:
    return f"left multiplication by {format_word(b2.words[fm]) if fm in b2 else 'f'}"


def search_invariant(
    f: Sequence[GroupMatrix],
    b: Ball,
    b2: Ball,
    budget: int = 500_000,
    shuffle_seed: int | None = None,
) -> SearchResult:
    """Backtracking search for an (F, b)-invariant total order on b2.

    Set-up glues each pair of b's images to its image under every f in F,
    in a union-find with parity over pair ints.  A pair that is a root or
    one step from its root (most pairs, as ``find`` compresses paths) has
    its root and sign read inline; only a longer chain calls ``find``.
    Nothing is logged on the way: a gluing that contradicts the ones
    before it is Unsat at once, and its chain is read off a second run of
    the same gluing loop, from fresh lists, that logs each gluing and
    stops at the same contradiction.  The same inline read then sorts
    every pair into its class in one pass.

    Depth-first over pair variables in canonical order, assigning -1 before
    +1, propagating transitivity and the invariance gluing after every step.
    A forced class is queued at most once per value, so one budget unit is
    a pop, which assigns a class; ``budget`` (the CLI's ``--budget``) caps
    their number.  The returned witness is re-verified by the public
    checkers before it is handed out.  Raises SearchBudgetExhausted, with
    how far the search got, when the budget runs out (deliberately distinct
    from Unsat).
    """
    at = [b2._find(g) for g in b.elements]
    if None in at:
        raise OrderingError("ball containment violated")
    size = len(b2)
    order = list(range(size))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    rank = {i: r for r, i in enumerate(order)}

    # The pair i < j of b2 indices is the int i*size + j, never 0.  The
    # invariance gluing is a union-find with parity over these ints:
    # parent[p] is 0 at a root, and parity[p] is +1 when p must take the
    # sign of parent[p], -1 when it must take the opposite sign.  So a root
    # has sign +1 relative to itself, and a pair one step from its root has
    # parity[p]; only a longer chain needs find, which compresses it.
    parent: list[int] = []
    parity: list[int] = []

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

    def glue(log: list[tuple[int, int, str]] | None) -> tuple[int, int, GroupMatrix] | None:
        """Glue every pair under every f, from fresh union-find lists; the
        first contradiction (pair, image pair, f), or None.  With a log,
        each gluing made before it is appended as (pair, image pair, label)."""
        nonlocal parent, parity
        parent, parity = [], []   # a second run drops the first's lists before making its own
        parent, parity = [0] * (size * size), [1] * (size * size)
        for fm in f:
            # each fg's b2 index, read off fm's row; a missing image raises at the
            # first pair that needs it, after any contradiction found before that pair
            row = b2.row(fm)
            moved = [row[i] for i in at]
            label = None if log is None else _multiplier_label(fm, b2)
            for ig, fg in zip(at, moved):
                for ih, fh in zip(at, moved):
                    if ig >= ih:
                        continue
                    if fg is None or fh is None:
                        raise OrderingError("ball containment violated")
                    # glue sign(ig, ih) = rel * sign of the image's canonical pair
                    p = ig * size + ih
                    if fg < fh:
                        q = fg * size + fh
                        rel = 1
                    else:
                        q = fh * size + fg
                        rel = -1
                    rp = parent[p]
                    if not rp:
                        rp, sp = p, 1
                    elif parent[rp]:
                        rp, sp = find(p)
                    else:
                        sp = parity[p]
                    rq = parent[q]
                    if not rq:
                        rq, sq = q, 1
                    elif parent[rq]:
                        rq, sq = find(q)
                    else:
                        sq = parity[q]
                    if rp != rq:
                        parent[rp] = rq
                        parity[rp] = rel * sp * sq
                    elif sp != rel * sq:
                        return p, q, fm
                    if log is not None:
                        log.append((p, q, label))
        return None

    if glue(None) is not None:
        log: list[tuple[int, int, str]] = []
        p, q, fm = glue(log)   # the same contradiction, with the gluings before it
        glued = _gluing_chain(log, p, q, size)
        steps = [TraceStep(divmod(p, size), +1, "assume a sign for this pair")]
        steps += [TraceStep(pr, 0, f"forced equal/opposite via {lb}") for pr, lb in glued]
        steps.append(TraceStep(divmod(q, size), -1,
                               f"also forced opposite via {_multiplier_label(fm, b2)}"))
        return SearchResult("unsat", None, UnsatTrace(0, tuple(steps)), 0)

    # Classes: members[root] lists the members (i, j, parity), in increasing
    # (i, j), read as the gluing reads roots; roots lists the roots as they
    # are met.  Afterwards every pair is its root or one step from it, so
    # parent[p] is p's root (0 at a root) and parity[p] its sign relative
    # to that root.
    members: list[list[tuple[int, int, int]] | None] = [None] * (size * size)
    roots: list[int] = []
    for i in range(size):
        for j in range(i + 1, size):
            p = i * size + j
            r = parent[p]
            if not r:
                r, s = p, 1
            elif parent[r]:
                r, s = find(p)
            else:
                s = parity[p]
            cls = members[r]
            if cls is None:
                members[r] = [(i, j, s)]
                roots.append(r)
            else:
                cls.append((i, j, s))

    def entry(k: int, x: int) -> tuple[int, int]:
        """The class entry (root, value) that makes k > x."""
        p = k * size + x if k < x else x * size + k
        return parent[p] or p, parity[p] if k < x else -parity[p]

    def canonical(p: int) -> int:
        x, y = rank[p // size], rank[p % size]
        return x * size + y if x < y else y * size + x

    # unshuffled, rank is the identity and each root is its own canonical pair
    roots.sort(key=None if shuffle_seed is None else canonical)

    # value[root] is the class's sign, 0 while unassigned; a member (i, j, s)
    # then has phi(x_i, x_j) = value * s.  Bit k of gt[x] is set when k > x,
    # bit k of lt[x] when x > k.  The trail lists the classes assigned, in
    # order: it is the search's one record, and an Unsat chain is read off it.
    value = [0] * (size * size)
    gt = [0] * size
    lt = [0] * size
    trail: list[int] = []
    nodes = branches = 0  # budget units used, decisions tried
    stack: list[tuple[int, list[int], int]] = []  # frames (pos, values_left, mark)
    first_contradiction: list[TraceStep] = []

    def assign(root: int, val: int) -> tuple[int, int] | None:
        """Assign a class and propagate; the clashing pair (k, c), or None."""
        nonlocal nodes
        # known_gt and known_lt are gt and lt with the pairs of every queued
        # entry added: an entry is queued only when its pair is not yet known,
        # so each (class, value) waits at most once.  No pop finds its class
        # fixed: every entry is pushed for a two-step path of assigned pairs,
        # so of a class queued with both signs, the first pop closes a cycle
        # with the second's path and clash returns before the second pop; and
        # an assigned class is never queued again, as its sign is in known_*
        # and the other sign would have clashed at the edge that forced it.
        known_gt, known_lt = gt[:], lt[:]
        queue: deque[tuple[int, int]] = deque()

        def push(entry: tuple[int, int]) -> None:
            r, v = entry
            for i, j, s in members[r]:
                a, c = (i, j) if v * s == 1 else (j, i)
                known_gt[c] |= 1 << a
                known_lt[a] |= 1 << c
            queue.append(entry)

        push((root, val))
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
                    return (clash & -clash).bit_length() - 1, c
                # k > a > c forces k > c, and a > c > k forces a > k;
                # queued by increasing k (no k is in both, as none clashes)
                over = above_a & ~known_gt[c]
                todo = over | (below_c & ~known_lt[a])
                while todo:
                    low = todo & -todo
                    todo ^= low
                    k = low.bit_length() - 1
                    if over & low:
                        if not known_gt[c] & low:
                            push(entry(k, c))
                    elif not known_lt[a] & low:
                        push(entry(a, k))
        return None

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
    stack.append((next_pos(0), [-1, 1], 0))
    while stack:
        pos, values, mark = stack[-1]
        if pos == len(roots):
            break
        if values:
            branches += 1
            conflict = assign(roots[pos], values.pop(0))
            if conflict is None:
                stack.append((next_pos(pos + 1), [-1, 1], len(trail)))
            else:
                if not first_contradiction:
                    first_contradiction = [
                        TraceStep(divmod(r, size), value[r],
                                  "forced by transitivity" if n else "decision or forced class")
                        for n, r in enumerate(trail[mark:])]
                    first_contradiction.append(TraceStep(conflict, 1, "transitivity conflict"))
                undo(mark)
        else:
            stack.pop()
            if stack:
                undo(stack[-1][2])
    if not stack:
        return SearchResult(
            "unsat",
            None,
            UnsatTrace(branches, tuple(first_contradiction)),
            branches,
        )
    # The witness is a rank array, lt[x] holding the elements below x.  Each class
    # pair must agree with it strictly, so no ranks tie; then the public checkers run.
    ranks = [lt[x].bit_count() for x in range(size)]
    if any((ranks[i] > ranks[j]) - (ranks[i] < ranks[j]) != value[r] * s
           for r in roots for i, j, s in members[r]):
        raise AssertionError("internal error: witness ranks disagree with the classes")
    witness = OrderAssignment(b2, rank=ranks)
    if not check_axioms(witness).passed or not check_invariance(witness, f, b).passed:
        raise AssertionError("internal error: witness failed re-verification")
    return SearchResult("sat", witness, None, branches)


# -- compactness extraction -----------------------------------------------------


@dataclass(frozen=True)
class ExtractResult:
    assignment: OrderAssignment
    supporters: tuple[int, ...]


def compactness_extract(chain: Sequence[OrderAssignment], target: Ball) -> ExtractResult:
    """Pigeonhole step: the restriction to ``target`` shared by most members.

    Each chain member that covers the target ball contributes its restriction
    signature; the most frequent signature wins (ties break to the smallest),
    together with the indices of the members that support it.
    """
    pairs = list(combinations(range(len(target)), 2))
    signatures: dict[tuple[int, ...], list[int]] = {}
    for k, phi in enumerate(chain):
        # a member that lacks a target element or a pair has a None and is skipped
        at = [phi.ball._find(g) for g in target.elements]
        sig = tuple(phi.get_sign(at[i], at[j]) for i, j in pairs)
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
    is None: a comparison visits only the set bits of the two keys' masks of
    imaged probes, lowest first.  Skipped probes can make that comparison
    intransitive, so the sorted result is checked against every pair.  Raises
    ``OrderingError`` when the probes leave two elements equal, naming why (no
    probe has an image under both, or every probe that has agrees), or when
    the order is not transitive.
    """
    masks = [sum(1 << r for r, v in enumerate(key) if v is not None) for key in keys]

    def compare(a: int, b: int) -> int:
        ka, kb, shared = keys[a], keys[b], masks[a] & masks[b]
        while shared:
            r = (shared & -shared).bit_length() - 1
            if ka[r] != kb[r]:
                return 1 if ka[r] > kb[r] else -1
            shared &= shared - 1
        return 0

    ascending = sorted(range(len(ball)), key=functools.cmp_to_key(compare))
    for i, a in enumerate(ascending):
        for b in ascending[i + 1:]:
            c = compare(a, b)
            if c == 0:
                raise OrderingError(
                    "probes insufficient: every shared probe agrees "
                    "(action not almost free at this scale)" if masks[a] & masks[b] else
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
    if phi.rank is None:
        triples = sorted([i, j, s] for (i, j), s in phi.signs.items() if i < j)
    else:  # made in sorted order
        rk, n = phi.rank, len(phi.rank)
        triples = [[i, j, 1 if rk[i] > rk[j] else -1] for i in range(n) for j in range(i + 1, n)]
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
