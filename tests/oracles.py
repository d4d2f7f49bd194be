"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and separate from the package: nested
list matrix arithmetic with cofactor determinants, exhaustive enumeration of
determinant-one matrices, subgroup lattices by closure, and the exact
checkers' original loops.  Tests compare package output against these,
never the other way round.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import product

from treeact.ordering import (
    OrderAssignment,
    OrderingError,
    SearchBudgetExhausted,
    SearchResult,
    TraceStep,
    UnsatTrace,
    format_word,
)
from treeact.realize import NEG_INF, POS_INF
from treeact.tower import ProjectionGrowth, TowerError, orbit as tower_orbit
from treeact.trees import TreeAutomorphism, _rooted_children, _sibling_classes, first_point_map


def mat_mul(a, b, mod=None):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = sum(a[i][k] * b[k][j] for k in range(n))
            out[i][j] = s % mod if mod else s
    return out


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * mat_det(minor)
    return total


def mat_pow(a, k, mod=None):
    n = len(a)
    out = mat_identity(n)
    base = [row[:] for row in a]
    if k < 0:
        base = mat_inv(base)
        k = -k
    for _ in range(k):
        out = mat_mul(out, base, mod)
    return out


def mat_inv(a):
    # adjugate; only used on determinant-1 integer matrices
    n = len(a)
    assert mat_det(a) == 1
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ]
            out[j][i] = (-1) ** (i + j) * mat_det(minor)
    return out


def unipotent(n, i, j, v):
    out = mat_identity(n)
    out[i - 1][j - 1] = v
    return out


def sl_by_det_filter(n, m):
    """Exhaustively enumerate matrices over Z/m with det = 1 mod m."""
    count = 0
    elements = []
    for entries in product(range(m), repeat=n * n):
        a = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
        if mat_det(a) % m == 1 % m:
            count += 1
            elements.append(entries)
    return count, elements


def words_up_to(gens, max_len, mod=None):
    """All products of at most max_len generator/inverse factors."""
    n = len(gens[0])
    steps = []
    for g in gens:
        steps.append(g)
        steps.append(mat_inv(g))
    seen = {tuple(map(tuple, mat_identity(n)))}
    frontier = [mat_identity(n)]
    for _ in range(max_len):
        new = []
        for x in frontier:
            for s in steps:
                y = mat_mul(x, s, mod)
                key = tuple(map(tuple, y))
                if key not in seen:
                    seen.add(key)
                    new.append(y)
        frontier = new
    return seen


def subgroup_lattice(elements, mul, inv, identity):
    """All subgroups of a small group given by opaque hashable elements."""

    def close(seed):
        out = {identity}
        frontier = [identity]
        steps = []
        for g in seed:
            steps.append(g)
            steps.append(inv(g))
        while frontier:
            new = []
            for x in frontier:
                for s in steps:
                    y = mul(x, s)
                    if y not in out:
                        out.add(y)
                        new.append(y)
            frontier = new
        return frozenset(out)

    found = {close([])}
    work = [close([])]
    while work:
        current = work.pop()
        for x in elements:
            if x in current:
                continue
            bigger = close(list(current) + [x])
            if bigger not in found:
                found.add(bigger)
                work.append(bigger)
    return found


def max_normal_subgroup_inside(elements, mul, inv, identity, inside):
    """Largest normal subgroup (of the whole group) contained in ``inside``."""
    lattice = subgroup_lattice(elements, mul, inv, identity)
    best = frozenset({identity})
    for sub in lattice:
        if not sub <= inside:
            continue
        normal = all(mul(mul(inv(x), k), x) in sub for k in sub for x in elements)
        if normal and len(sub) > len(best):
            best = sub
    return best


def bfs(start, neighbours):
    """Textbook queue breadth-first search.

    Returns the discovery order and, per node, its parent and depth.
    """
    parent = {start: None}
    depth = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in neighbours(x):
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
                queue.append(y)
    return order, parent, depth


def orbit(act, v, cap=None):
    """The tower orbit as first written: (sorted vertices, closed).

    Every call inverts each generator's map afresh, and the search takes
    every generator and then every inverse at each vertex, however long.
    A vertex is kept when its word length is at most cap; ``closed`` is
    False exactly when some kept vertex has word length cap.
    """
    steps = []
    for name in sorted(act.generators):
        forward = act.generators[name].mapping
        steps += [forward, {w: u for u, w in forward.items()}]
    order, _parent, depth = bfs(v, lambda x: [step[x] for step in steps])
    if cap is None:
        return tuple(sorted(order)), True
    limit = max(cap, 0)
    kept = [y for y in order if depth[y] <= limit]
    return tuple(sorted(kept)), all(depth[y] != limit for y in kept)


def parent_path(parent, b):
    """Follow parent pointers from b back to the search root, root first."""
    out = [b]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def projection_orbit_growth(sys, decorated, x, cap=None):
    """The projection growth as first written (only ``orbit`` renamed):
    first-point projections and orbits in the decorated tree and action
    themselves, both made in full."""
    tree = decorated.action.tree
    if x not in tree.adjacency:
        raise TowerError("vertex not in decorated tree")
    sizes = []
    closed = []
    for act in sys.levels:
        level_set = frozenset(act.tree.vertices)
        r = first_point_map(tree, level_set, x)
        res = tower_orbit(decorated.action, r, cap)
        sizes.append(len(res))
        closed.append(res.closed)
    return ProjectionGrowth(tuple(sizes), tuple(closed))


# -- test inputs -----------------------------------------------------------------


def random_automorphism_fixing_leaf(t, e, rng):
    """A random automorphism fixing leaf e (uniform over sibling shuffles)."""
    children = _rooted_children(t, e)
    memo = {}
    mapping = {e: e}

    def rec(v, w):
        mapping[v] = w
        groups_w = _sibling_classes(w, children, memo)
        for key, srcs in _sibling_classes(v, children, memo).items():
            dsts = list(groups_w[key])
            rng.shuffle(dsts)
            for s, d in zip(srcs, dsts):
                rec(s, d)

    rec(e, e)
    return TreeAutomorphism(mapping)


# -- naive twins of the exact checkers in ordering and realize ------------------
#
# The loops below are the checkers as first written: every product and every
# segment scan is redone inside the innermost loop.  They read only public
# fields and return the report fields as plain tuples, in report order.


def check_axioms(phi):
    """O(n^3) twin of ``ordering.check_axioms``: (passed, r_bad, t_bad)."""
    idx = range(len(phi.ball))
    r_bad = []
    for a in idx:
        for c in idx:
            if a < c:
                if phi.sign_idx(a, c) != -phi.sign_idx(c, a):
                    r_bad.append((a, c))
    t_bad = []
    for f in idx:
        for g in idx:
            if g == f:
                continue
            if phi.sign_idx(f, g) != 1:
                continue
            for h in idx:
                if h == f or h == g:
                    continue
                if phi.sign_idx(g, h) == 1 and phi.sign_idx(f, h) != 1:
                    t_bad.append((f, g, h))
    return (not r_bad and not t_bad, tuple(r_bad), tuple(t_bad))


def check_invariance(phi, f, b, b2=None):
    """Twin of ``ordering.check_invariance``: (passed, violations)."""
    outer = b2 if b2 is not None else phi.ball
    bad = []
    for fm in f:
        for g in b.elements:
            for h in b.elements:
                if g == h:
                    continue
                fg, fh = fm * g, fm * h
                if fg not in outer or fh not in outer:
                    raise OrderingError("ball containment violated")
                if phi.sign(fg, fh) != phi.sign(g, h):
                    bad.append(
                        (outer.index(fm) if fm in outer else -1,
                         outer.index(g), outer.index(h))
                    )
    return (not bad, tuple(bad))


def pl_eval(m, x):
    """Linear-scan twin of ``PLHomeo.__call__``, reading only ``breakpoints``."""
    if x is NEG_INF or x is POS_INF:
        return x
    x = Fraction(x)
    pts = m.breakpoints
    if x <= pts[0][0]:
        return pts[0][1] + (x - pts[0][0])
    if x >= pts[-1][0]:
        return pts[-1][1] + (x - pts[-1][0])
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("unreachable")


def verify_realization(rm, maps):
    """Twin of ``realize.verify_realization`` with linear-scan map evaluation:
    (passed, monotonicity, equivariance, composition)."""
    mono = []
    equiv = []
    comp = []
    for gm in maps:
        bps = gm.homeo.breakpoints
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if not (x0 < x1 and y0 < y1):
                mono.append(f"{gm.word}: breakpoints out of order at {x0}")
        for x in gm.domain:
            gx = gm.element * x
            if gx in rm:
                if pl_eval(gm.homeo, rm.value(x)) != rm.value(gx):
                    equiv.append(f"{gm.word}: map(t(x)) != t(g*x) at t(x)={rm.value(x)}")
    by_element = {gm.element: gm for gm in maps}
    pool = [gm.element for gm in maps]
    for g in pool:
        for h in pool:
            gh = g * h
            if g not in by_element or h not in by_element or gh not in by_element:
                continue
            mg, mh, mgh = by_element[g], by_element[h], by_element[gh]
            for x in mh.domain:
                hx = h * x
                if hx not in rm or g * hx not in rm or x not in rm:
                    continue
                lhs = pl_eval(mg.homeo, pl_eval(mh.homeo, rm.value(x)))
                rhs = pl_eval(mgh.homeo, rm.value(x))
                if lhs != rhs:
                    comp.append(f"compose mismatch at t={rm.value(x)}")
    return (not mono and not equiv and not comp, tuple(mono), tuple(equiv), tuple(comp))


# -- naive twin of the invariant-order search -------------------------------------


class _NaivePairVars:
    """Union-find with parity over unordered pairs, as first written."""

    def __init__(self):
        self.parent = {}
        self.parity = {}
        self.edges = {}

    def add(self, p):
        if p not in self.parent:
            self.parent[p] = p
            self.parity[p] = 1
            self.edges[p] = []

    def find(self, p):
        chain = []
        while self.parent[p] != p:
            chain.append(p)
            p = self.parent[p]
        root = p
        s = 1
        for q in reversed(chain):
            s = self.parity[q] * s
            self.parent[q] = root
            self.parity[q] = s
        return root, (s if chain else 1)

    def union(self, p, q, rel, label):
        self.add(p)
        self.add(q)
        rp, sp = self.find(p)
        rq, sq = self.find(q)
        if rp == rq:
            if sp != rel * sq:
                return False
        else:
            self.parent[rp] = rq
            self.parity[rp] = rel * sp * sq
        self.edges[p].append((q, rel, label))
        self.edges[q].append((p, rel, label))
        return True

    def chain_between(self, p, q):
        _order, parent, _depth = bfs(p, lambda v: [w for w, _rel, _label in self.edges[v]])
        out = []
        cur = q
        while parent.get(cur) is not None:
            x = parent[cur]
            out.append((cur, next(lb for w, _rel, lb in self.edges[x] if w == cur)))
            cur = x
        out.reverse()
        return out


def _canonical_pair(i, j):
    return ((i, j), 1) if i < j else ((j, i), -1)


def search_invariant(f, b, b2, budget=500_000, shuffle_seed=None):
    """The invariant-order search as first written: (SearchResult, units).

    Every pair of every f in F is multiplied afresh, every forced pair is
    looked up in the union-find, and each new edge a > b scans all k for
    k > a and b > k.  ``units`` is the number of budget units (queue pops)
    the search used; it raises what ``ordering.search_invariant`` raises.
    """
    for g in b.elements:
        if g not in b2:
            raise OrderingError("ball containment violated")
    size = len(b2)
    order = list(range(size))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    rank = {i: r for r, i in enumerate(order)}

    vars_ = _NaivePairVars()
    for i in range(size):
        for j in range(i + 1, size):
            vars_.add((i, j))
    first_contradiction = []
    for fm in f:
        for g in b.elements:
            ig = b2.index(g)
            for h in b.elements:
                ih = b2.index(h)
                if ig >= ih:
                    continue
                fg, fh = fm * g, fm * h
                if fg not in b2 or fh not in b2:
                    raise OrderingError("ball containment violated")
                p1, s1 = _canonical_pair(ig, ih)
                p2, s2 = _canonical_pair(b2.index(fg), b2.index(fh))
                fw = format_word(b2.word(fm)) if fm in b2 else "f"
                label = f"left multiplication by {fw}"
                if not vars_.union(p1, p2, s1 * s2, label):
                    steps = [TraceStep(p1, +1, "assume a sign for this pair")]
                    steps += [
                        TraceStep(pr, 0, f"forced equal/opposite via {lb}")
                        for pr, lb in vars_.chain_between(p1, p2)
                    ]
                    steps.append(TraceStep(p2, -1, f"also forced opposite via {label}"))
                    return SearchResult("unsat", None, UnsatTrace(0, tuple(steps)), 0), 0

    members = {}
    for i in range(size):
        for j in range(i + 1, size):
            root, s = vars_.find((i, j))
            members.setdefault(root, []).append(((i, j), s))
    roots = sorted(members, key=lambda p: (min(rank[p[0]], rank[p[1]]),
                                           max(rank[p[0]], rank[p[1]])))

    rel = [[0] * size for _ in range(size)]
    trail = []
    stats = {"nodes": 0, "branches": 0}
    stack = []

    def set_rel(i, j, s):
        cur = rel[i][j]
        if cur != 0:
            return cur == s
        rel[i][j] = s
        rel[j][i] = -s
        trail.append((i, j))
        return True

    def assign(root, val, chain):
        queue = deque([(root, val, "decision or forced class")])
        while queue:
            stats["nodes"] += 1
            if stats["nodes"] > budget:
                raise SearchBudgetExhausted(
                    branches=stats["branches"], depth=len(stack),
                    classes_assigned=sum(1 for r in roots if rel[r[0]][r[1]]),
                    classes=len(roots), propagation_steps=budget,
                )
            r, v, why = queue.popleft()
            fixed = rel[r[0]][r[1]]
            if fixed:
                if fixed != v:
                    chain.append(TraceStep(r, v, f"class already fixed opposite ({why})"))
                    return False
                continue
            chain.append(TraceStep(r, v, why))
            for (i, j), s in members[r]:
                if not set_rel(i, j, v * s):
                    chain.append(TraceStep((i, j), v * s, "pair already oriented opposite"))
                    return False
                a, bb = (i, j) if v * s == 1 else (j, i)
                for k in range(size):
                    if k == a or k == bb:
                        continue
                    if rel[k][a] == 1 and rel[k][bb] != 1:
                        if rel[k][bb] == -1:
                            chain.append(TraceStep((k, bb), 1, "transitivity conflict"))
                            return False
                        p, s2 = _canonical_pair(k, bb)
                        r2, s3 = vars_.find(p)
                        queue.append((r2, s2 * s3, "forced by transitivity"))
                    if rel[bb][k] == 1 and rel[a][k] != 1:
                        if rel[a][k] == -1:
                            chain.append(TraceStep((a, k), 1, "transitivity conflict"))
                            return False
                        p, s2 = _canonical_pair(a, k)
                        r2, s3 = vars_.find(p)
                        queue.append((r2, s2 * s3, "forced by transitivity"))
        return True

    def undo(mark):
        while len(trail) > mark:
            i, j = trail.pop()
            rel[i][j] = 0
            rel[j][i] = 0

    def next_pos(pos):
        while pos < len(roots) and rel[roots[pos][0]][roots[pos][1]]:
            pos += 1
        return pos

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
            stats["branches"] += 1
            chain = []
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
        trace = UnsatTrace(stats["branches"], tuple(first_contradiction))
        return SearchResult("unsat", None, trace, stats["branches"]), stats["nodes"]
    signs = {
        (i, j): rel[i][j]
        for i in range(size)
        for j in range(size)
        if i != j and rel[i][j] != 0
    }
    witness = OrderAssignment(b2, signs)
    if not (check_axioms(witness)[0] and check_invariance(witness, f, b, b2)[0]):
        raise AssertionError("internal error: witness failed re-verification")
    return SearchResult("sat", witness, None, stats["branches"]), stats["nodes"]
