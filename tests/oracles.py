"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and separate from the package: nested
list matrix arithmetic with cofactor determinants, exhaustive enumeration of
determinant-one matrices, and subgroup lattices by closure.  Tests compare
package output against these, never the other way round.
"""

from collections import deque
from itertools import product


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


def parent_path(parent, b):
    """Follow parent pointers from b back to the search root, root first."""
    out = [b]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]
