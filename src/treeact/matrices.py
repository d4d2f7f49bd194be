"""Exact matrix-group arithmetic over Z and Z/mZ.

Integral matrices use Python's unbounded integers; modular matrices carry
their modulus and keep entries reduced to [0, m).  Only determinant-1
matrices are admitted into group computations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from ._walk import walk


class MatrixError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """An enumeration grew past its explicit desk-scale cap."""


# -- flat-tuple and packed kernels (hot paths skip GroupMatrix) ----------------
# enumerate_group, whose Cayley table gives the tower its generator images,
# holds each element mod m as one int: n rows of n fields, each w bits wide,
# the first entry most significant, so the ints sort as their entry tuples do.
# A field has room for a row of s x before reduction, at most n (m-1)^2, so
# a changed row of a left factor s is a sum of v-multiples of whole packed
# rows of x with no carry between fields.  The closure multiplies on the left
# by sparse matrices (u_ij adds row j to row i): one row sum per changed row,
# not an O(n^3) product.


def _mul_flat(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    rows = [a[i:i + n] for i in range(0, n * n, n)]
    cols = [b[j::n] for j in range(n)]
    return tuple([sum(map(operator.mul, row, col)) for row in rows for col in cols])


def _left_plan(s: Sequence[int], n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The rows of s that differ from the identity, as (i, [(k, s_ik), ...])."""
    plan = []
    for i in range(n):
        row = s[i * n:(i + 1) * n]
        if any(v != (k == i) for k, v in enumerate(row)):
            plan.append((i, [(k, v) for k, v in enumerate(row) if v]))
    return plan


def _field_width(n: int, m: int) -> int:
    return (n * (m - 1) ** 2).bit_length()


def _pack(entries: Iterable[int], w: int) -> int:
    x = 0
    for e in entries:
        x = (x << w) | e
    return x


def _unpack(x: int, count: int, w: int) -> tuple[int, ...]:
    mask = (1 << w) - 1
    return tuple([(x >> (w * k)) & mask for k in range(count - 1, -1, -1)])


def _left_kernel(s: Sequence[int], n: int, m: int, memo: dict[int, int]):
    """x -> s x mod m on packed elements reduced mod m, s with entries in [0, m).

    ``memo`` maps a summed row to its reduction mod m; one dict serves every
    left factor with the same n and m.
    """
    w = _field_width(n, m)
    rowmask = (1 << n * w) - 1
    full = (1 << n * n * w) - 1
    shift = [(n - 1 - i) * n * w for i in range(n)]
    rows = [(full ^ (rowmask << shift[i]), shift[i], [(shift[k], v) for k, v in terms])
            for i, terms in _left_plan(s, n)]

    def apply(x: int) -> int:
        y = x
        for clear, at, terms in rows:
            acc = 0
            for sh, v in terms:
                acc += v * ((x >> sh) & rowmask)
            r = memo.get(acc)
            if r is None:
                r = memo[acc] = _pack([e % m for e in _unpack(acc, n, w)], w)
            y = (y & clear) | (r << at)
        return y

    return apply


def _det_flat(entries: Sequence[int], n: int) -> int:
    # Bareiss fraction-free elimination; exact over Z.
    if n == 1:
        return entries[0]
    a = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _identity_flat(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


@dataclass(frozen=True)
class GroupMatrix:
    """Square matrix over Z (mod=None) or Z/mZ, row-major entries."""

    n: int
    entries: tuple[int, ...]
    mod: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.n * self.n:
            raise MatrixError("entry count does not match dimension")
        if self.mod is not None:
            if self.mod < 2:
                raise MatrixError("modulus must be at least 2")
            object.__setattr__(
                self, "entries", tuple(e % self.mod for e in self.entries)
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], mod: int | None = None) -> "GroupMatrix":
        n = len(rows)
        flat = tuple(int(x) for row in rows for x in row)
        m = GroupMatrix(n, flat, mod)
        if m.det() != (1 % mod if mod is not None else 1):
            raise MatrixError("determinant must be 1")
        return m

    @staticmethod
    def identity(n: int, mod: int | None = None) -> "GroupMatrix":
        return GroupMatrix(n, _identity_flat(n), mod)

    def rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.n:(i + 1) * self.n]) for i in range(self.n)]

    def det(self) -> int:
        d = _det_flat(self.entries, self.n)
        return d % self.mod if self.mod is not None else d

    def is_identity(self) -> bool:
        return self == GroupMatrix.identity(self.n, self.mod)

    def _check_compatible(self, other: "GroupMatrix") -> None:
        if self.n != other.n:
            raise MatrixError("dimension mismatch")
        if self.mod != other.mod:
            raise MatrixError("coefficient domain mismatch")

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        self._check_compatible(other)
        # __post_init__ reduces a modular product
        return GroupMatrix(self.n, _mul_flat(self.entries, other.entries, self.n), self.mod)

    def inverse(self) -> "GroupMatrix":
        # det = 1, so the adjugate is the exact inverse (also mod m).
        n = self.n
        if self.det() != (1 % self.mod if self.mod is not None else 1):
            raise MatrixError("only determinant-1 matrices are invertible here")
        if n == 1:
            return self
        cof = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                minor = [
                    self.entries[r * n + c]
                    for r in range(n) if r != i
                    for c in range(n) if c != j
                ]
                s = -1 if (i + j) % 2 else 1
                cof[j * n + i] = s * _det_flat(minor, n - 1)
        return GroupMatrix(n, tuple(cof), self.mod)

    def __pow__(self, k: int) -> "GroupMatrix":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = GroupMatrix.identity(self.n, self.mod)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def reduce_mod(self, m: int) -> "GroupMatrix":
        return GroupMatrix(self.n, self.entries, m)

    def __repr__(self) -> str:
        dom = "Z" if self.mod is None else f"Z/{self.mod}"
        return f"GroupMatrix({self.rows()}, {dom})"


def elementary(n: int, i: int, j: int, v: int, mod: int | None = None) -> GroupMatrix:
    """Identity plus v at the (i, j) entry, 1-indexed, i != j."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise MatrixError("index out of range")
    if i == j:
        raise MatrixError("off-diagonal indices required")
    flat = list(_identity_flat(n))
    flat[(i - 1) * n + (j - 1)] = v
    return GroupMatrix(n, tuple(flat), mod)


def commutator(a: GroupMatrix, b: GroupMatrix) -> GroupMatrix:
    """a^-1 b^-1 a b, exactly."""
    a._check_compatible(b)
    return a.inverse() * b.inverse() * a * b


def transvection_generators(n: int, mod: int | None = None) -> dict[str, GroupMatrix]:
    """All n(n-1) elementary transvections u_ij, named deterministically."""
    return {
        f"u{i}{j}": elementary(n, i, j, 1, mod)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }


def six_generators(r: int) -> list[GroupMatrix]:
    """The six 3x3 unipotent generators with parameter r, in hexagon order."""
    if r < 1:
        raise MatrixError("parameter must be positive")
    return [
        GroupMatrix.from_rows([[1, r, 0], [0, 1, 0], [0, 0, 1]]),
        GroupMatrix.from_rows([[1, 0, r], [0, 1, 0], [0, 0, 1]]),
        GroupMatrix.from_rows([[1, 0, 0], [0, 1, r], [0, 0, 1]]),
        GroupMatrix.from_rows([[1, 0, 0], [r, 1, 0], [0, 0, 1]]),
        GroupMatrix.from_rows([[1, 0, 0], [0, 1, 0], [r, 0, 1]]),
        GroupMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, r, 1]]),
    ]


def six_generators_embedded(n: int, i: int, j: int, l: int) -> list[GroupMatrix]:
    """The six n x n transvection powers keyed by a pair 1 <= i < j <= n-1."""
    if n < 3:
        raise MatrixError("dimension must be at least 3")
    if not (1 <= i < j <= n - 1):
        raise MatrixError("indices must satisfy 1 <= i < j <= n-1")
    if l < 1:
        raise MatrixError("power must be positive")
    return [
        elementary(n, i, j, l),
        elementary(n, i, j + 1, l),
        elementary(n, j, j + 1, l),
        elementary(n, j, i, l),
        elementary(n, j + 1, i, l),
        elementary(n, j + 1, j, l),
    ]


@dataclass(frozen=True)
class HexagonCheck:
    i: int                 # position in Z/6, 1-indexed
    commutes: bool         # [a_i, a_{i+1}] = e
    power_ok: bool         # [a_{i-1}, a_{i+1}] in {a_i^r, a_i^-r}
    sign: int | None       # realized sign, +1/-1, None if power_ok is False


@dataclass(frozen=True)
class HexagonReport:
    passed: bool
    checks: tuple[HexagonCheck, ...]

    def failures(self) -> tuple[int, ...]:
        return tuple(c.i for c in self.checks if not (c.commutes and c.power_ok))


def verify_hexagon_relations(gens: Sequence[GroupMatrix], r: int) -> HexagonReport:
    """Check the cyclic relations [a_i, a_{i+1}] = e, [a_{i-1}, a_{i+1}] = a_i^{+-r}."""
    if len(gens) != 6:
        raise MatrixError("exactly six matrices required")
    n, mod = gens[0].n, gens[0].mod
    for g in gens[1:]:
        if g.n != n or g.mod != mod:
            raise MatrixError("matrices must share dimension and domain")
    e = GroupMatrix.identity(n, mod)
    checks = []
    for i in range(1, 7):
        a_prev = gens[(i - 2) % 6]
        a_i = gens[i - 1]
        a_next = gens[i % 6]
        commutes = commutator(a_i, a_next) == e
        c = commutator(a_prev, a_next)
        plus, minus = a_i ** r, a_i ** (-r)
        if c == plus:
            power_ok, sign = True, 1
        elif c == minus:
            power_ok, sign = True, -1
        else:
            power_ok, sign = False, None
        checks.append(HexagonCheck(i, commutes, power_ok, sign))
    return HexagonReport(all(c.commutes and c.power_ok for c in checks), tuple(checks))


def verify_ll_identity(
    a: GroupMatrix, b: GroupMatrix, c: GroupMatrix,
    r: int, p: int, q: int, m: int,
) -> bool:
    """Exact check of (b^-1 c^q)^m (a^-1 c^p)^m b^m a^m = c^(-m^2 r + m(p+q)).

    Requires [a,b] = c^r with c commuting with both a and b; with c central
    the left side collapses to [b^m, a^m] c^(m(p+q)).
    """
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


# -- finite quotients ----------------------------------------------------------

_SUBGROUP_CAP = 10_000  # at most this many subgroups in FiniteMatrixGroup.all_subgroups


@dataclass(eq=False)
class FiniteMatrixGroup:
    """A finite matrix group mod m, stored as canonically sorted entry tuples.

    ``cayley[k][i]`` is the index of ``generators[k] * entries[i]``, as
    ``enumerate_group`` found it.  ``elements``, the same elements as
    ``GroupMatrix`` objects, and ``_mul``, the full product table the
    subgroup methods run on, are made on first read.
    """

    n: int
    mod: int
    entries: tuple[tuple[int, ...], ...]
    generators: tuple[GroupMatrix, ...]
    cayley: tuple[list[int], ...]

    @cached_property
    def elements(self) -> tuple[GroupMatrix, ...]:
        return tuple(GroupMatrix(self.n, e, self.mod) for e in self.entries)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {e: k for k, e in enumerate(self.entries)}

    @cached_property
    def _mul(self) -> tuple[list[int], ...]:
        """``_mul[i][j]`` is the index of ``entries[i] * entries[j]``."""
        n, m, index = self.n, self.mod, self._index
        return tuple(
            [index[tuple(v % m for v in _mul_flat(a, b, n))] for b in self.entries]
            for a in self.entries
        )

    def __len__(self) -> int:
        return len(self.entries)

    def _find(self, g: GroupMatrix) -> int | None:
        """The index of g, or None when g is not in the group."""
        return self._index.get(g.entries) if (g.n, g.mod) == (self.n, self.mod) else None

    def __contains__(self, g: GroupMatrix) -> bool:
        return self._find(g) is not None

    def _close(self, steps: Sequence[int]) -> tuple[int, ...]:
        # finite: the monoid the steps generate is the subgroup
        mul = self._mul
        found = walk(self._index[_identity_flat(self.n)],
                     lambda x: map(mul[x].__getitem__, steps))
        return tuple(sorted(x for x, *_ in found))

    def all_subgroups(self) -> list[tuple[GroupMatrix, ...]]:
        """Every subgroup, found by closing each subgroup extended by one
        element; more than ``_SUBGROUP_CAP`` of them raise ``CapExceeded``."""
        trivial = self._close([])
        found = {trivial}
        worklist = [trivial]
        while worklist:
            current = worklist.pop()
            member = set(current)
            for x in range(len(self)):
                if x in member:
                    continue
                bigger = self._close(current + (x,))
                if bigger not in found:
                    if len(found) >= _SUBGROUP_CAP:
                        raise CapExceeded("subgroup lattice too large for cap")
                    found.add(bigger)
                    worklist.append(bigger)
        # index order is entry order, so this sorts as the entry tuples would
        return [tuple(self.elements[i] for i in sub) for sub in sorted(found)]


def enumerate_group(
    n: int, m: int, gens: Sequence[GroupMatrix], cap: int = 10 ** 6
) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators inside SL_n(Z/m).

    The group is finite, so products of the generators alone reach every
    element: the closure takes no inverse steps.  Every product it makes is
    kept, as an index, in the group's Cayley table.
    """
    if m < 2:
        raise MatrixError("modulus must be at least 2")
    reduced = []
    for g in gens:
        if g.n != n:
            raise MatrixError("dimension mismatch")
        if g.mod is None:
            g = g.reduce_mod(m)
        elif g.mod != m:
            raise MatrixError("generator modulus mismatch")
        if g.det() != 1 % m:
            raise MatrixError("determinant must be 1")
        reduced.append(g)
    w = _field_width(n, m)
    memo: dict[int, int] = {}
    steps = [_left_kernel(g.entries, n, m, memo) for g in reduced]
    if cap < 1:
        raise CapExceeded("group too large for cap")
    seen = [_pack(_identity_flat(n), w)]
    found = {seen[0]: 0}                    # packed element -> position in seen
    columns = [[] for _ in steps]           # columns[k][i]: position of s_k seen[i]
    for x in seen:   # seen grows while the loop reads it: a breadth-first closure
        for step, column in zip(steps, columns):
            y = step(x)
            j = found.get(y)
            if j is None:
                if len(seen) >= cap:
                    raise CapExceeded("group too large for cap")
                j = found[y] = len(seen)
                seen.append(y)
            column.append(j)
    del found
    order = sorted(range(len(seen)), key=seen.__getitem__)
    rank = [0] * len(seen)
    for r, i in enumerate(order):
        rank[i] = r
    cayley = tuple([rank[c[i]] for i in order] for c in columns)
    del columns, rank
    # decode each element once, row by row through a memo of decoded rows
    rw = n * w
    rowmask = (1 << rw) - 1
    shifts = range((n - 1) * rw, -1, -rw)
    decoded: dict[int, tuple[int, ...]] = {}
    entries = []
    for i in order:
        x = seen[i]
        t: tuple[int, ...] = ()
        for sh in shifts:
            r = (x >> sh) & rowmask
            d = decoded.get(r)
            if d is None:
                d = decoded[r] = _unpack(r, n, w)
            t += d
        entries.append(t)
    return FiniteMatrixGroup(n, m, tuple(entries), tuple(reduced), cayley)


def normal_core(
    g: FiniteMatrixGroup, h: Iterable[GroupMatrix]
) -> tuple[GroupMatrix, ...]:
    """Kernel of the action of g on left cosets g/h.

    This is the largest normal subgroup of g inside h: the elements k with
    x^-1 k x in h for every x.  Conjugating by one representative per coset
    suffices, since h is closed under conjugation by its own elements.
    """
    mul = g._mul
    e = g._index[_identity_flat(g.n)]
    hset = {g._find(x) for x in h}   # h may be an iterator: read it once
    # a finite set closed under products is a subgroup: no inverse test needed
    if None in hset or e not in hset or any(mul[a][b] not in hset for a in hset for b in hset):
        raise MatrixError("not a subgroup")
    reps = []
    covered: set[int] = set()
    for x in range(len(g)):
        if x not in covered:
            reps.append((mul[x].index(e), x))   # (x^-1, x)
            covered.update(mul[x][k] for k in hset)
    core = [k for k in sorted(hset) if all(mul[mul[xi][k]][x] in hset for xi, x in reps)]
    return tuple(g.elements[k] for k in core)


def congruence_membership(a: GroupMatrix, k: int) -> bool:
    """Whether the integral matrix a reduces to the identity mod k."""
    if a.mod is not None:
        raise MatrixError("integral matrix required")
    if a.det() != 1:
        raise MatrixError("determinant must be 1")
    if k < 2:
        raise MatrixError("level must be at least 2")
    ident = _identity_flat(a.n)
    return all((x - y) % k == 0 for x, y in zip(a.entries, ident))


def sl_order(n: int, p: int, alpha: int) -> int:
    """|SL_n(Z/p^alpha)| for prime p, alpha >= 0."""
    if alpha == 0:
        return 1
    base = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        base *= p ** k - 1
    return base * p ** ((n * n - 1) * (alpha - 1))


# -- serialization -------------------------------------------------------------


def matrix_to_json(g: GroupMatrix) -> dict:
    return {"n": g.n, "mod": g.mod, "entries": list(g.entries)}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def matrix_from_json(obj: Mapping) -> GroupMatrix:
    """Parse ``{"n", "mod", "entries"}``, rejecting anything but exact ints."""
    if not isinstance(obj, Mapping):
        raise MatrixError("matrix must be a JSON object")
    n, mod, entries = obj.get("n"), obj.get("mod"), obj.get("entries")
    if not _is_int(n) or n < 1:
        raise MatrixError("matrix n must be an integer >= 1")
    if mod is not None and (not _is_int(mod) or mod < 2):
        raise MatrixError("matrix mod must be null or an integer >= 2")
    if not (isinstance(entries, list) and len(entries) == n * n
            and all(_is_int(e) for e in entries)):
        raise MatrixError(f"matrix entries must be a list of {n * n} integers")
    return GroupMatrix(n, tuple(entries), mod)

