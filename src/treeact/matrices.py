"""Exact matrix-group arithmetic over Z and Z/mZ.

Integral matrices use Python's unbounded integers; modular matrices carry
their modulus and keep entries reduced to [0, m).  Only determinant-1
matrices are admitted into group computations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Mapping, Sequence

from ._walk import walk


class MatrixError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """An enumeration grew past its explicit desk-scale cap."""


# -- flat-tuple kernels (hot paths skip GroupMatrix) --------------------------
# enumerate_group, whose Cayley table gives the tower its level-1 images,
# closes on entry tuples reduced mod m.  It multiplies on the left by sparse
# matrices (u_ij adds row j to row i), so a step rewrites only the rows of
# its left factor that differ from the identity, not an O(n^3) product.


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


def _left_mul(s: Sequence[int], n: int, m: int):
    """x -> s x mod m on entry tuples: only the rows that _left_plan lists are
    rewritten, each entry as the sum of its terms, reduced mod m."""
    cells = [(i * n + c, [(k * n + c, v) for k, v in terms])
             for i, terms in _left_plan(s, n) for c in range(n)]

    def apply(x: tuple[int, ...]) -> tuple[int, ...]:
        y = list(x)
        for at, terms in cells:
            acc = 0
            for k, v in terms:
                acc += v * x[k]
            y[at] = acc % m
        return tuple(y)

    return apply


def _eliminate(rows: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan (Bareiss) on the first n columns of rows,
    in place, every division exact; returns the determinant of that block A.
    Unless it is 0, the block ends as det I and the columns to its right as
    adj(A) times them."""
    sign = prev = 1
    for k in range(n):
        top = rows[k]
        if not top[k]:
            piv = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if piv is None:
                return 0
            rows[k], rows[piv] = rows[piv], top
            top = rows[k]
            sign = -sign
        p = top[k]
        for i, row in enumerate(rows):
            f = row[k]
            if (f or p != prev) and i != k:  # else the step leaves row i as it is
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    if sign < 0:
        rows[:] = [[-x for x in row] for row in rows]
    return sign * prev


@cache
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
        d = _eliminate(self.rows(), self.n)
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
        # _eliminate on [A | I] leaves [det I | adj(A)]; det = 1 makes the
        # adjugate the inverse, and mod m the adjugate of the entries'
        # integer lift reduces to it.
        n = self.n
        rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.rows())]
        det = _eliminate(rows, n)
        if (det if self.mod is None else det % self.mod) != 1:
            raise MatrixError("only determinant-1 matrices are invertible here")
        return GroupMatrix(n, tuple([x for row in rows for x in row[n:]]), self.mod)

    def __pow__(self, k: int) -> "GroupMatrix":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = GroupMatrix.identity(self.n, self.mod)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
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
    return six_generators_embedded(3, 1, 2, r)


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


def _powers(x: GroupMatrix, exps: Iterable[int]) -> dict[int, GroupMatrix]:
    """x^k for every k from min(exps, 0) to max(exps, 0), each one product from
    the power next to it towards 0; x is inverted only if some k < 0."""
    exps = tuple(exps)
    out = {0: GroupMatrix.identity(x.n, x.mod)}
    y = out[0]
    for k in range(1, max(exps, default=0) + 1):
        y = out[k] = y * x
    if min(exps, default=0) < 0:
        xinv, y = x.inverse(), out[0]
        for k in range(-1, min(exps) - 1, -1):
            y = out[k] = y * xinv
    return out


def verify_ll_identity(
    a: GroupMatrix, b: GroupMatrix, c: GroupMatrix, r: int,
    ms: Iterable[int], ps: Iterable[int], qs: Iterable[int],
) -> list[tuple[int, int, int]]:
    """The (m, p, q), m outermost, where (b^-1 c^q)^m (a^-1 c^p)^m b^m a^m
    differs from c^(-m^2 r + m(p+q)), by exact products.

    Requires [a,b] = c^r with c commuting with both a and b, checked once per
    call; with c central the left side collapses to [b^m, a^m] c^(m(p+q)).
    Every factor is made once per call (b^-1, a^-1, the powers of c, a, b,
    b^-1 c^q and a^-1 c^p, and b^m a^m), so beside one product per (m, p) a
    case costs one product and a look-up of c^k.  Associativity is exact, so
    the verdicts are those of the products as written.
    """
    a._check_compatible(b)
    a._check_compatible(c)
    if commutator(a, b) != c ** r or a * c != c * a or b * c != c * b:
        raise MatrixError(
            "identity preconditions violated: need [a,b] = c^r with c central"
        )
    ms, ps, qs = tuple(ms), tuple(ps), tuple(qs)
    cpow = _powers(c, ps + qs)
    binv, ainv = b.inverse(), a.inverse()
    left_b = {q: _powers(binv * cpow[q], ms) for q in qs}
    left_a = {p: _powers(ainv * cpow[p], ms) for p in ps}
    bpow, apow = _powers(b, ms), _powers(a, ms)
    failures = []
    for m in ms:
        ba = bpow[m] * apow[m]
        for p in ps:
            tail = left_a[p][m] * ba
            for q in qs:
                k = -m * m * r + m * (p + q)
                rhs = cpow.get(k)
                if rhs is None:
                    rhs = cpow[k] = c ** k
                if left_b[q][m] * tail != rhs:
                    failures.append((m, p, q))
    return failures


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
    steps = [_left_mul(g.entries, n, m) for g in reduced]
    if cap < 1:
        raise CapExceeded("group too large for cap")
    seen = [_identity_flat(n)]
    found = {seen[0]: 0}                    # element -> position in seen
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
    entries = tuple([seen[i] for i in order])
    return FiniteMatrixGroup(n, m, entries, tuple(reduced), cayley)


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

