"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and separate from the package: nested
list matrix arithmetic with cofactor determinants, exhaustive enumeration of
determinant-one matrices, subgroup lattices by closure, and the exact
checkers' original loops.  Tests compare package output against these,
never the other way round.
"""

import functools
import random
from collections import deque
from fractions import Fraction
from itertools import chain, product

from treeact.matrices import MatrixError, commutator
from treeact.ordering import (
    OrderAssignment,
    OrderingError,
    SearchBudgetExhausted,
    SearchResult,
    TraceStep,
    UnsatTrace,
    format_word,
)
from treeact.realize import NEG_INF, POS_INF, FixedSet
from treeact.tower import (
    FiniteTreeAction,
    Pendant,
    ProjectionGrowth,
    TowerError,
    build_congruence_tower,
    system_to_json,
)
from treeact.trees import (
    Tree,
    TreeAutomorphism,
    TreeError,
    ValidationResult,
    _rooted_children,
    _sibling_classes,
)


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
    if n == 0:
        return 1  # the empty minor of a 1x1 adjugate
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
    # only used on determinant-1 integer matrices
    assert mat_det(a) == 1
    return mat_adj(a)


def mat_adj(a):
    """The adjugate, each entry a signed cofactor determinant."""
    n = len(a)
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


def ll_identity_case(a, b, c, r, p, q, m):
    """Whether (b^-1 c^q)^m (a^-1 c^p)^m b^m a^m = c^(-m^2 r + m(p+q)) at one
    case, the preconditions re-checked and every inverse and power remade."""
    a._check_compatible(b)
    a._check_compatible(c)
    if commutator(a, b) != c ** r:
        raise MatrixError(
            "identity preconditions violated: need [a,b] = c^r with c central"
        )
    if a * c != c * a or b * c != c * b:
        raise MatrixError(
            "identity preconditions violated: need [a,b] = c^r with c central"
        )
    lhs = ((b.inverse() * c ** q) ** m) * ((a.inverse() * c ** p) ** m) * b ** m * a ** m
    rhs = c ** (-m * m * r + m * (p + q))
    return lhs == rhs


def ll_identity_failures(a, b, c, r, ms, ps, qs):
    """``ll_identity_case`` looped over the cases, m outermost: the failing
    (m, p, q)."""
    return [(m, p, q) for m in ms for p in ps for q in qs
            if not ll_identity_case(a, b, c, r, p, q, m)]


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


def group_closure(gens, m, cap):
    """The group that nested-list matrices gens make mod m, by breadth-first
    left products from the identity: (elements, table) with the elements as
    sorted entry tuples and table[k][i] the index of gens[k] * elements[i],
    or None once the group has more than cap elements."""
    n = len(gens[0])
    e = tuple(x for row in mat_identity(n) for x in row)
    seen, queue, image = {e}, deque([e]), {}
    while queue:
        x = queue.popleft()
        rows = [list(x[i * n:(i + 1) * n]) for i in range(n)]
        for k, g in enumerate(gens):
            y = tuple(v for row in mat_mul(g, rows, m) for v in row)
            image[k, x] = y
            if y not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(y)
                queue.append(y)
    elements = sorted(seen)
    index = {x: i for i, x in enumerate(elements)}
    return elements, [[index[image[k, x]] for x in elements] for k in range(len(gens))]


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


def subgroup_closure(seed, mul, inv, identity):
    """The subgroup generated by seed, by breadth-first search over the seed
    elements and their inverses."""
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


def subgroup_lattice(elements, mul, inv, identity):
    """All subgroups of a small group given by opaque hashable elements."""

    def close(seed):
        return subgroup_closure(seed, mul, inv, identity)

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


def max_normal_subgroup_inside(lattice, elements, mul, inv, inside):
    """Largest normal subgroup (of the whole group) contained in ``inside``.

    ``lattice`` is the group's ``subgroup_lattice``; the trivial subgroup in
    it is normal, so there always is one.
    """
    return max(
        (sub for sub in lattice
         if sub <= inside
         and all(mul(mul(inv(x), k), x) in sub for k in sub for x in elements)),
        key=len,
    )


def adjacency(t):
    """Each vertex's neighbours, one per edge to another vertex of t, each
    list sorted on its own."""
    nbrs = {v: [] for v in t.vertices}
    for u, v in t.edges:
        if u in nbrs and v in nbrs and u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return {v: tuple(sorted(ws)) for v, ws in nbrs.items()}


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


def path(t, a, b):
    """The path as first written: a breadth-first search of the string
    adjacency from a, followed back from b."""
    adj = adjacency(t)
    if a not in adj or b not in adj:
        raise TreeError("vertex not in tree")
    _order, parent, _depth = bfs(a, adj.__getitem__)
    if b not in parent:
        raise TreeError("vertices not connected")
    return parent_path(parent, b)


def is_tree_automorphism(t, a):
    """The automorphism check as first written: the map's keys and images
    against the vertex set, then each edge's image, in ``t.edges`` order,
    against the set of edges."""
    vset, eset = set(t.vertices), set(t.edges)
    image = a.mapping
    if set(image) != vset:
        return ValidationResult(False, "domain mismatch")
    if set(image.values()) != vset:
        return ValidationResult(False, "not a bijection")
    for u, v in t.edges:
        if tuple(sorted((image[u], image[v]))) not in eset:
            return ValidationResult(False, f"edge ({u},{v}) not preserved")
    return ValidationResult(True, None)


def first_point_map(t, sub, x):
    """The first-point map as first written: check that sub is a connected
    set of vertices, take the path from x to min(sub) and return its first
    vertex in sub."""
    subset = frozenset(sub)
    adj = t.adjacency
    if x not in adj:
        raise TreeError("vertex not in tree")
    if not subset or not subset <= set(t.vertices):
        raise TreeError("subtree required")
    inside, _parent, _depth = bfs(next(iter(subset)), lambda y: [z for z in adj[y] if z in subset])
    if len(inside) != len(subset):
        raise TreeError("subtree required")
    _order, parent, _depth = bfs(x, adj.__getitem__)
    target = min(subset)
    if target not in parent:
        raise TreeError("vertices not connected")
    return next(v for v in parent_path(parent, target) if v in subset)


def decorated_action(decorated):
    """The decorated tree, with every generator extended to permute the
    pendant arcs as it permutes their anchors, made in full."""
    act = decorated.base
    verts = list(act.tree.vertices)
    edges = list(act.tree.edges)
    for p in decorated.pendants:
        verts += (p.mid, p.tip)
        edges += ((p.anchor, p.mid), (p.mid, p.tip))
    anchors = [p.anchor for p in decorated.pendants]
    position = {anchor: i for i, anchor in enumerate(anchors)}
    mids = [p.mid for p in decorated.pendants]
    tips = [p.tip for p in decorated.pendants]
    gens = {}
    for name, auto in act.generators.items():
        # the arc over the i-th orbit vertex goes to the arc over its image
        to = [position[auto(anchor)] for anchor in anchors]
        gens[name] = TreeAutomorphism(chain(
            auto.mapping.items(),
            zip(mids, map(mids.__getitem__, to)),
            zip(tips, map(tips.__getitem__, to)),
        ))
    return FiniteTreeAction(Tree(tuple(verts), tuple(edges)), gens)


def projection_orbit_growth(sys, decorated, x, cap=None):
    """The projection growth as first written: first-point projections and
    orbits in the decorated tree and action themselves, both made in full,
    by the naive ``first_point_map`` and ``orbit`` above."""
    action = decorated_action(decorated)
    tree = action.tree
    if x not in tree.adjacency:
        raise TowerError("vertex not in decorated tree")
    sizes = []
    closed = []
    for act in sys.levels:
        level_set = frozenset(act.tree.vertices)
        vertices, is_closed = orbit(action, first_point_map(tree, level_set, x), cap)
        sizes.append(len(vertices))
        closed.append(is_closed)
    return ProjectionGrowth(tuple(sizes), tuple(closed))


def decoration(sys, seed):
    """The pendants over the orbit of seed in the deepest level, as first
    written: a textbook search through the generators alone, sorted by
    name, and the i-th pendant (from 1) named pend{i}m and pend{i}t."""
    act = sys.levels[-1]
    maps = [act.generators[name].mapping for name in sorted(act.generators)]
    order, _parent, _depth = bfs(seed, lambda x: [m[x] for m in maps])
    return tuple(Pendant(anchor, f"pend{i}m", f"pend{i}t")
                 for i, anchor in enumerate(order, 1))


def numbered_views(num):
    """Each level's generator maps and each bond of a vertex numbering,
    made vertex by vertex from its lists: level a is the first counts[a]
    ids, the k-th name maps id v to the id images[k][v] (a later name
    overwrites an earlier one, and a name without an image list is left
    out), and bond a sends each vertex of level a+1 below counts[a] to
    itself and any other with a parent to the id of its parent."""
    ids, parent, counts = num.ids, num.parent, num.counts
    levels = []
    for size in counts:
        gens = {}
        for name, image in zip(num.names, num.images):
            mapping = {}
            for v in range(min(size, len(ids), len(image))):
                mapping[ids[v]] = ids[image[v]]
            gens[name] = TreeAutomorphism(mapping)
        levels.append(gens)
    bonds = []
    for lower, size in zip(counts, counts[1:]):
        bond = {}
        for v in range(min(size, len(ids))):
            if v < lower:
                bond[ids[v]] = ids[v]
            elif v < len(parent):
                bond[ids[v]] = ids[parent[v]]
        bonds.append(bond)
    return levels, bonds


def numbered_edges(num):
    """Each level's edges, read vertex by vertex off a vertex numbering:
    each vertex v > 0 of the level with a parent hangs from the id of its
    parent, even one outside the level; each edge with its ends in order,
    the edges sorted.  An empty level has none."""
    ids, parent = num.ids, num.parent
    return [sorted(tuple(sorted((ids[parent[v]], ids[v])))
                   for v in range(1, min(size, len(ids), len(parent))))
            for size in num.counts]


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


def _times_u12(vid):
    """The level-1 id of x*u12 (mod 2), given the level-1 id of x.  Right
    multiplication commutes with the generators' left translation."""
    a, b, c, d = (int(e) for e in vid.split("|")[1].split(","))
    return f"1|{a},{(a + b) % 2},{c},{(c + d) % 2}"


def broken_towers():
    """The serialized n=2 p=2 depth-2 tower broken in five ways, one for each
    kind of reason `tower verify` gives: label -> JSON payload."""
    def broken(edit):
        payload = system_to_json(build_congruence_tower(2, 2, 2))
        edit(payload)
        return payload

    def scramble(bond):
        # two new leaves with different parents trade parents
        new = [v for v in bond if v.startswith("2|")]
        a = new[0]
        b = next(v for v in new if bond[v] != bond[a])
        bond[a], bond[b] = bond[b], bond[a]

    def regraft(bond):
        # equivariant, onto and the identity below, but each new leaf goes to
        # its parent times u12, which is not adjacent to it
        bond.update([(v, _times_u12(w)) for v, w in bond.items() if v.startswith("2|")])

    return {
        "invalid_level": broken(lambda t: t["levels"][1]["tree"]["edges"].append(
            t["levels"][1]["tree"]["edges"][0])),
        "scrambled_bond": broken(lambda t: scramble(t["bonds"][1])),
        "bond_moves_lower_copy": broken(lambda t: t["bonds"][1].update(
            dict.fromkeys(t["bonds"][1], "0|e"))),
        "disconnected_preimage": broken(lambda t: regraft(t["bonds"][1])),
        "provenance_p_3": broken(lambda t: t["provenance"].update(p=3)),
    }


# -- naive twins of the exact checkers in ordering and realize ------------------
#
# The loops below are the checkers as first written: every product and every
# segment scan is redone inside the innermost loop.  They read only public
# fields and return the report fields as plain tuples, in report order.


def ball_row(b, g):
    """Twin of ``Ball.row``: for each element x, one product g x and its lookup."""
    return [b.index(g * x) if g * x in b else None for x in b.elements]


def _sign(phi, i, j):
    """phi's explicit sign for (i, j), read off ``phi.signs`` (never ``sign_idx``)."""
    try:
        return phi.signs[(i, j)]
    except KeyError:
        raise OrderingError("incomplete assignment") from None


def check_axioms(phi):
    """O(n^3) twin of ``ordering.check_axioms``: (passed, r_bad, t_bad)."""
    idx = range(len(phi.ball))
    r_bad = []
    for a in idx:
        for c in idx:
            if a < c:
                if _sign(phi, a, c) != -_sign(phi, c, a):
                    r_bad.append((a, c))
    t_bad = []
    for f in idx:
        for g in idx:
            if g == f:
                continue
            if _sign(phi, f, g) != 1:
                continue
            for h in idx:
                if h == f or h == g:
                    continue
                if _sign(phi, g, h) == 1 and _sign(phi, f, h) != 1:
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
                if (_sign(phi, phi.ball.index(fg), phi.ball.index(fh))
                        != _sign(phi, phi.ball.index(g), phi.ball.index(h))):
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


def fixed_set(m):
    """Twin of ``realize.fixed_set`` as first written: the slope of every
    segment, and for each one not of slope one its fixed point x*."""
    pts = m.breakpoints
    points = []
    intervals = []

    def add_point(x):
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
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(b, merged[-1][1]))
        else:
            merged.append((a, b))
    clean_points = tuple(
        sorted(x for x in points if not any(a <= x <= b for a, b in merged))
    )
    return FixedSet(clean_points, tuple(merged))


def verify_realization(rm, maps):
    """Twin of ``realize.verify_realization`` with linear-scan map evaluation:
    (passed, equivariance, composition)."""
    equiv = []
    comp = []
    for gm in maps:
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
    return (not equiv and not comp, tuple(equiv), tuple(comp))


def order_from_probe_keys(ball, keys):
    """Twin of ``ordering.order_from_probe_keys``, as first written, with the
    cause of a tie named."""
    def compare(a, b):
        for va, vb in zip(keys[a], keys[b]):
            if va is not None and vb is not None and va != vb:
                return 1 if va > vb else -1
        return 0

    ascending = sorted(ball.elements, key=functools.cmp_to_key(compare))
    for i, a in enumerate(ascending):
        for b in ascending[i + 1:]:
            c = compare(a, b)
            if c == 0:
                if any(va is not None and vb is not None for va, vb in zip(keys[a], keys[b])):
                    raise OrderingError("probes insufficient: every shared probe agrees "
                                        "(action not almost free at this scale)")
                raise OrderingError(
                    "probes insufficient: no probe is realized for both elements")
            if c > 0:
                raise OrderingError("probe order not transitive at this scale")
    return OrderAssignment.from_total_order(ball, ascending)


def order_from_realization(rm, ball):
    """Twin of ``realize.order_from_realization`` with Fraction keys: every
    ball element times every realized point, one matrix product each."""
    points = sorted(rm.t, key=rm.t.get)
    keys = {g: tuple(rm.t.get(g * x) for x in points) for g in ball.elements}
    return order_from_probe_keys(ball, keys)


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
    k > a and b > k.  ``units`` is the number of budget units the search
    used: queue pops that assign a class or find it fixed the other way, not
    the repeated entries it also queues.  It raises what
    ``ordering.search_invariant`` raises.
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
                fw = format_word(b2.words[fm]) if fm in b2 else "f"
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
            r, v, why = queue.popleft()
            fixed = rel[r[0]][r[1]]
            if fixed == v:
                continue  # a repeated entry is no budget unit
            stats["nodes"] += 1
            if stats["nodes"] > budget:
                raise SearchBudgetExhausted(
                    branches=stats["branches"], depth=len(stack),
                    classes_assigned=sum(1 for r in roots if rel[r[0]][r[1]]),
                    classes=len(roots), propagation_steps=budget,
                )
            if fixed:
                chain.append(TraceStep(r, v, f"class already fixed opposite ({why})"))
                return False
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
