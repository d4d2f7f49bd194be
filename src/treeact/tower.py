"""Congruence coset trees, bonding maps, decorations, and orbit growth.

The tower at level a is the coset tree whose vertices are the elements of
SL_n(Z/p^b), b <= a, each hanging from its reduction mod p^(b-1);
generators act by left translation and every bonding map collapses the
newest leaves onto their parents.  Only SL_n(Z/p) is enumerated: each
deeper quotient is lifted from the one below through the congruence kernel
{I + p^(b-1) X : tr X = 0 mod p}, and each generator image is read off the
image one level down.  Also here: the harmonic star tree with exact symbolic
arm angles, and the pendant-arc decoration whose projection orbits grow
without bound as depth increases.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, product
from math import cos, pi, sin
from operator import add, itemgetter, le, mul
from typing import NamedTuple

from .matrices import (
    CapExceeded,
    GroupMatrix,
    _eliminate,
    _is_int,
    _mul_flat,
    enumerate_group,
    matrix_from_json,
    matrix_to_json,
    sl_order,
    transvection_generators,
)
from .trees import (
    Tree,
    TreeAutomorphism,
    _is_str_map,
    _sound_parents,
    _subset_top,
    first_point_map,
    is_tree_automorphism,
    tree_from_json,
    tree_to_json,
    validate_tree,
)


class TowerError(ValueError):
    pass


class _View(Mapping):
    """A read-only mapping whose dict ``make()`` makes on first read and keeps."""

    __slots__ = ("_make", "_dict")

    def __init__(self, make: Callable[[], dict]):
        self._make, self._dict = make, None

    def _data(self) -> dict:
        if self._dict is None:
            self._dict, self._make = self._make(), None
        return self._dict

    def __getitem__(self, key):
        return self._data()[key]

    def __iter__(self):
        return iter(self._data())

    def __len__(self) -> int:
        return len(self._data())


@dataclass(eq=False, frozen=True)
class FiniteTreeAction:
    """A tree together with named generator automorphisms."""

    tree: Tree
    generators: Mapping[str, TreeAutomorphism]
    # the numbering that made a built level, whose verdict holds; not an argument
    _numbered: _Numbering | None = field(default=None, init=False, repr=False)

    def validate(self) -> None:
        """Raise TowerError naming the first failure: the tree, then each
        generator in turn.  A built level keeps its numbering and is accepted
        at once, since a numbering makes levels only when its verdict holds;
        any other is checked on the strings, which give the reason."""
        if self._numbered is not None:
            return
        ok = validate_tree(self.tree)
        if not ok:
            raise TowerError(f"invalid tree: {ok.reason}")
        for name, auto in self.generators.items():
            res = is_tree_automorphism(self.tree, auto)
            if not res:
                raise TowerError(f"generator {name}: {res.reason}")


@dataclass(eq=False, frozen=True)
class InverseSystem:
    """Finite truncation of an inverse limit: levels plus bonding vertex maps,
    and the integral matrix each generator name stands for, when known.

    A system has one state for each way it is made.  One that
    ``build_congruence_tower`` makes keeps its vertex numbering, as
    ``_numbering``, whose verdict holds: its levels and bonds are tuples of
    read-only views of the numbering, every check accepts it at once, and
    the checks, orbits, decorations and ``system_to_json`` read the
    numbering's ints, so a tower built, verified, decorated, walked and
    written makes no dict of strings.  Each level's ``generators`` and each
    bond makes its dict of strings on first read and keeps it; each level's
    tree is made at once.  One made here from levels and bonds, by
    ``dataclasses.replace`` (even from a built tower) or by
    ``system_from_json`` keeps none and is checked on its strings.
    """

    levels: Sequence[FiniteTreeAction]
    bonds: Sequence[Mapping[str, str]]   # bonds[a]: level a+1 vertices -> level a
    provenance: dict = field(default_factory=dict)
    matrices: dict[str, GroupMatrix] = field(default_factory=dict)
    _numbering: _Numbering | None = field(default=None, init=False, repr=False)


class _Numbering:
    """A built tower's vertices, numbered once, and the verdict on them.

    Level a is the first counts[a] vertices; vertex v > 0 hangs from
    parent[v] (the root is its own parent) and generator names[k] sends v
    to images[k][v].  ``system`` makes every level's tree from these lists
    at once, and every level's generator maps and every bond as views
    whose dicts are made from them on first read.  It requires the verdict
    ``holds``, under which every check of the views passes, so the system
    keeps the numbering and the checks do not read the views.
    """

    def __init__(self, ids: list[str], parent: list[int], images: list[list[int]],
                 counts: list[int], names: list[str]):
        self.ids, self.parent, self.images = ids, parent, images
        self.counts, self.names = counts, names

    def system(self, provenance: dict, matrices: dict[str, GroupMatrix]) -> InverseSystem:
        """The system whose levels and bonds are views of these lists.

        The verdict must hold, which implies a sound parent list and no
        empty level; a numbering whose verdict fails is an internal error.
        Each level's tree is ``Tree.from_parents`` of its prefix of the
        lists, its generator maps a ``_View`` of ``maps`` and each bond one
        of ``bond``: the identity on level a-1, each newer vertex onto its
        parent.  The system and every level keep the numbering.
        """
        if not self.holds:
            raise AssertionError("internal error: the vertex numbering fails its verdict")
        ids, parent, counts = self.ids, self.parent, self.counts
        levels, bonds = [], []
        for a, size in enumerate(counts):
            if a:
                bonds.append(_View(partial(self.bond, counts[a - 1], size)))
            levels.append(FiniteTreeAction(Tree.from_parents(ids[:size], parent[:size]),
                                           _View(partial(self.maps, size))))
        sys = InverseSystem(tuple(levels), tuple(bonds), provenance, matrices)
        # both classes are frozen, and neither takes a numbering as an argument
        object.__setattr__(sys, "_numbering", self)
        for act in levels:
            object.__setattr__(act, "_numbered", self)
        return sys

    def maps(self, size: int) -> dict[str, TreeAutomorphism]:
        """The generator maps of the level of the first size vertices."""
        ids = self.ids
        verts = ids[:size]
        return {name: TreeAutomorphism(zip(verts, map(ids.__getitem__, image)))
                for name, image in zip(self.names, self.images)}

    def bond(self, lower: int, size: int) -> dict[str, str]:
        """The bond from the first size vertices onto the first lower ones."""
        ids = self.ids
        verts = ids[:size]
        return dict(zip(verts, verts[:lower] + [ids[u] for u in self.parent[lower:size]]))

    def _by_name(self) -> list[tuple[str, list[int]]]:
        return sorted(zip(self.names, self.images), key=itemgetter(0))

    @cached_property
    def holds(self) -> bool:
        """Sound lists (distinct ids, one parent per vertex, levels that grow
        to all of them, distinct names, one image list each), the root its own
        parent and every other parent earlier, every newer vertex of level
        a+1 hung from level a, and each generator a permutation of every
        level prefix that commutes with parent.

        Then every level and bond check of the views passes.  Bonds are
        equivariant in two cases: a generator keeps v < lo (level a's
        count) below lo, where the bond is the identity, and lo <= v < hi
        in [lo, hi), where the bond is parent, which it commutes with.
        """
        ids, parent, counts = self.ids, self.parent, self.counts
        if not (_sound_parents(ids, parent) and all(map(le, counts, counts[1:]))
                and counts[-1:] == [len(ids)]
                and len(self.images) == len(self.names) == len(set(self.names))
                and all(max(parent[lo:hi], default=0) < lo for lo, hi in zip(counts, counts[1:]))):
            return False
        vertices = set(range(len(ids)))
        return all(set(image) == vertices and all(max(image[:s]) < s for s in counts)
                   and list(map(parent.__getitem__, image)) == list(map(image.__getitem__, parent))
                   for image in self.images)

    @cached_property
    def inverses(self) -> dict[str, list[int]]:
        """Each generator's inverse image list by name: vertices sorted by image."""
        return {name: sorted(range(len(image)), key=image.__getitem__)
                for name, image in zip(self.names, self.images)}

    def to_json(self) -> tuple[list[dict[str, list[str]]], list[dict[str, str]]]:
        """Each level's generator images and each bond, as ``system_to_json``
        writes them from the views: names and bond keys sorted."""
        ids, parent, counts = self.ids, self.parent, self.counts
        by_name = self._by_name()
        gens = [{name: list(map(ids.__getitem__, image[:size])) for name, image in by_name}
                for size in counts]
        bonds = [{ids[v]: ids[v if v < lower else parent[v]]
                  for v in sorted(range(size), key=ids.__getitem__)}
                 for lower, size in zip(counts, counts[1:])]
        return gens, bonds


# -- congruence tower ------------------------------------------------------------


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _level_ids(b: int, reps: list[tuple[int, ...]]) -> list[str]:
    """The ids of the cosets mod p^b, b >= 1, with these representatives:
    b, "|" and the entries; the root's id is "0|e"."""
    template = f"{b}|" + ",".join(["%d"] * len(reps[0]))
    return [template % x for x in reps]


def _code_table(parts: list[list[int]]) -> list[int]:
    """The list, over every code of a digit tuple Y (base p, first digit
    most significant), of the sum of parts[d][Y_d]."""
    table = [0]
    for part in parts:
        table = [s + v for s in table for v in part]
    return table


def _number_cosets(
    n: int, p: int, depth: int, gens: list[GroupMatrix], cap: int
) -> tuple[list[str], list[int], list[list[int]], list[int]]:
    """Number the coset tree's vertices once, level by level: each modulus
    p^b adds its cosets in the order of their representatives, so level a
    is the first counts[a] numbers.  Returns each vertex's id, its parent
    (the root is its own), each generator's image of it, and counts.

    Level 1 is SL_n(Z/p), from ``enumerate_group``, whose Cayley table
    gives its images; that it has ``sl_order(n, p, 1)`` vertices is
    checked, and any other size is an internal error.  Level b >= 2 is
    lifted from level b-1.  With q = p^(b-1), q^2 = 0 mod p^b, so for a
    vertex x of level b-1 with representative x~:

    - its children are x~ + qY for the Y in {0..p-1}^(n x n) with
      c + tr(adj(x~) Y) = 0 mod p, where det x~ = 1 + qc mod p^b, since
      det(x~ + qY) = det x~ + q tr(adj(x~) Y) mod p^b;
    - if z = g.x and g x~ = z~ + qC mod p^b, then g.(x~ + qY) is the child
      z~ + q((C + gY) mod p) of z.

    Y is coded as one base-p int, so a child's image takes the carry C,
    made once per parent and generator, and a few list reads.  Each level
    is numbered by sorting its representatives, as an enumeration of the
    whole quotient mod p^b would number it.  This is exact because the u_ij
    generate SL_n(Z), which maps onto every SL_n(Z/p^b): each lifted level
    is a whole quotient, as the enumerated level 1 is.
    """
    names, parent, counts = ["0|e"], [0], [1]
    images: list[list[int]] = [[0] for _ in gens]
    if not depth:
        return names, parent, images, counts
    group = enumerate_group(n, p, gens, cap=cap)
    reps = list(group.entries)   # the newest level's representatives, in number order
    if len(reps) != sl_order(n, p, 1):
        raise AssertionError("internal error: the generators do not generate SL_n(Z/p)")
    names.extend(_level_ids(1, reps))
    parent.extend([0] * len(reps))
    for image, column in zip(images, group.cayley):
        image.extend([v + 1 for v in column])
    counts.append(len(names))
    if depth == 1:
        return names, parent, images, counts

    size = n * n
    place = [p ** (size - 1 - d) for d in range(size)]   # a digit's weight in a code
    digits = list(product(range(p), repeat=size))         # digits[y]: the digits of code y
    # gy[k][y]: the code of g_k Y mod p
    gy = [[sum([e % p * w for e, w in zip(_mul_flat(g.entries, y, n), place)]) for y in digits]
          for g in gens]
    solutions: dict[tuple, list[int]] = {}   # (coefficients, residue) -> codes
    carried: dict[tuple, list[int]] = {}     # (k, C's digits) -> [code of C + g_k Y mod p]
    for b in range(2, depth + 1):
        q, m = p ** (b - 1), p ** b
        lo, hi = counts[-2], counts[-1]
        # the packed sort key of x~ + qY is that of x~ plus shift[y]
        weights = [m ** (size - 1 - d) for d in range(size)]
        shift = _code_table([[q * t * w for t in range(p)] for w in weights])
        lifts = [tuple([q * t for t in y]) for y in digits]
        keys, kids, ups, slots = [], [], [], []   # one entry per child, parent by parent
        codes_of = []
        for i, x in enumerate(reps):
            rows = [list(x[r * n:(r + 1) * n]) + [int(r == j) for j in range(n)]
                    for r in range(n)]
            c = (_eliminate(rows, n) - 1) // q % p
            # tr(adj(x~) Y) sums adj_rj Y_jr: Y's digit j*n + r takes adj_rj
            coef = tuple([rows[r][n + j] % p for j in range(n) for r in range(n)])
            codes = solutions.get((coef, c))
            if codes is None:
                values = _code_table([[a * t for t in range(p)] for a in coef])
                codes = solutions[coef, c] = [y for y, v in enumerate(values)
                                              if (v + c) % p == 0]
            codes_of.append(codes)
            key = sum(map(mul, x, weights))
            keys.extend([key + s for s in map(shift.__getitem__, codes)])
            kids.extend([tuple(map(add, x, lift)) for lift in map(lifts.__getitem__, codes)])
            ups.extend([lo + i] * len(codes))
            base = i * len(digits)
            slots.extend([base + y for y in codes])
        order = sorted(range(len(keys)), key=keys.__getitem__)
        where = [0] * (len(reps) * len(digits))   # where[i * p^(n^2) + y]: child y of reps[i]
        for v, t in enumerate(order, hi):
            where[slots[t]] = v
        for k, (g, image) in enumerate(zip(gens, images)):
            found = []
            for i, (x, codes) in enumerate(zip(reps, codes_of)):
                z = image[lo + i] - lo
                carry = tuple([(e % m - f) // q
                               for e, f in zip(_mul_flat(g.entries, x, n), reps[z])])
                table = carried.get((k, carry))
                if table is None:
                    moved = _code_table([[(t + cd) % p * w for t in range(p)]
                                         for cd, w in zip(carry, place)])
                    table = carried[k, carry] = list(map(moved.__getitem__, gy[k]))
                base = z * len(digits)
                found.extend([where[base + y] for y in map(table.__getitem__, codes)])
            image.extend(map(found.__getitem__, order))
        parent.extend(map(ups.__getitem__, order))
        reps = list(map(kids.__getitem__, order))
        names.extend(_level_ids(b, reps))
        counts.append(len(names))
    return names, parent, images, counts


def build_congruence_tower(
    n: int, p: int, depth: int, cap: int = 2_000_000
) -> InverseSystem:
    """Coset tree of the mod p^depth quotient with left-translation action.

    Level a has one vertex per coset at each modulus p^b, b <= a; a coset is
    labelled by its canonical representative, the reduction with entries in
    [0, p^b).  New leaves attach to their mod-p^(b-1) parents, and the bond
    collapses them back onto those parents.  The vertices are numbered
    once, level after level, so every level's tree, generator maps and bond
    are read off slices of the same lists; the system keeps them, and the
    checks read them.

    Only level 1 comes from enumerating a group, SL_n(Z/p).  Each deeper
    level is lifted from the one below (see ``_number_cosets``): a vertex's
    children are the solutions of one linear equation mod p over its
    representative, and a generator's image of a child is a child of the
    parent's image.  This is exact: the generators u_ij generate SL_n(Z),
    which maps onto SL_n(Z/p^b), so the lifts are the whole quotient.  The
    cap bounds |SL_n(Z/p^depth)| and is checked before any level is made.
    """
    if n < 2:
        raise TowerError("dimension must be at least 2")
    if not _is_prime(p):
        raise TowerError("p must be prime")
    if depth < 0:
        raise TowerError("depth must be nonnegative")
    if sl_order(n, p, depth) > cap:
        raise CapExceeded("group too large for cap")

    integral = transvection_generators(n)
    gen_names = sorted(integral)
    numbering = _Numbering(*_number_cosets(
        n, p, depth, [integral[name] for name in gen_names], cap), gen_names)
    return numbering.system(
        provenance={
            "n": n,
            "p": p,
            "depth": depth,
            "representative_rule": "entries reduced to [0, p^beta)",
            "generators": gen_names,
        },
        matrices={name: integral[name] for name in gen_names},
    )


@dataclass(frozen=True)
class BondReport:
    passed: bool
    checked: int
    violations: tuple[tuple[str, str], ...]   # (generator, vertex)


def verify_all_bonds(sys: InverseSystem) -> BondReport:
    """Exhaustively check bond(g.x) = g.bond(x) for every bond, generator and vertex.

    A built tower, which keeps its numbering (see ``_Numbering.holds``),
    passes at once; any other compares the string maps.
    """
    numbering = sys._numbering
    if numbering is not None:
        return BondReport(True, sum(numbering.counts[1:]) * len(numbering.names), ())
    checked = 0
    bad: list[tuple[str, str]] = []
    for lower, upper, bond in zip(sys.levels, sys.levels[1:], sys.bonds):
        for name, auto in upper.generators.items():
            up, down = auto._map, lower.generators[name]._map
            bad += [(name, v) for v in upper.tree.vertices if bond[up[v]] != down[bond[v]]]
            checked += len(upper.tree.vertices)
    return BondReport(not bad, checked, tuple(bad))


@dataclass(frozen=True)
class BondStructureReport:
    passed: bool
    reasons: tuple[str, ...]


def verify_bond_structure(sys: InverseSystem, level: int) -> BondStructureReport:
    """Bond must be surjective, monotone, and the identity on the lower copy.

    A built tower, which keeps its numbering, passes at once; any other is
    checked on its strings."""
    if level < 0 or level + 1 >= len(sys.levels):
        raise TowerError("no bond at this level")
    if sys._numbering is not None:
        return BondStructureReport(True, ())
    upper = sys.levels[level + 1].tree
    lower = sys.levels[level].tree
    bond = sys.bonds[level]
    reasons = []
    if set(bond) != set(upper.vertices):
        reasons.append("bond domain mismatch")
    if set(bond.values()) != set(lower.vertices):
        reasons.append("bond not surjective")
    for v in lower.vertices:
        if bond.get(v) != v:
            reasons.append("bond not the identity on the lower copy")
            break
    # monotone: preimage of each vertex induces a connected subtree
    preimage: dict[str, set[str]] = {}
    for v, w in bond.items():
        preimage.setdefault(w, set()).add(v)
    for w, block in preimage.items():
        if _subset_top(upper, frozenset(block)) is None:
            reasons.append(f"preimage of {w} is disconnected")
            break
    return BondStructureReport(not reasons, tuple(reasons))


@dataclass(frozen=True)
class OrbitResult:
    vertices: tuple[str, ...]
    closed: bool

    def __len__(self) -> int:
        return len(self.vertices)


def _orbit_order(act: FiniteTreeAction, v: str, cap: int | None) -> tuple[list[str], bool]:
    """The orbit of v in the order a breadth-first walk meets it, and closed:
    the generators sorted by name, each then its inverse when a cap bounds
    word length.  No vertex past word length cap is met, and ``closed`` is
    False exactly when one at cap is.  A built level, which keeps its
    numbering, is walked on the numbering's ints, its inverses made once
    per numbering; any other on the string maps."""
    capped = cap is not None
    numbering = act._numbered
    if numbering is not None:
        ids, start = numbering.ids, act.tree._index[v]
        steps = [s for name, image in numbering._by_name()
                 for s in ((image, numbering.inverses[name]) if capped else (image,))]
    else:
        ids, start = None, v
        autos = [act.generators[name] for name in sorted(act.generators)]
        steps = [s._map for a in autos for s in ((a, a.inverse()) if capped else (a,))]
    limit = max(cap, 0) if capped else -1
    order, level, seen, depth = [start], [start], {start}, 0
    while level and depth != limit:
        depth += 1
        found = []
        for x in level:
            for step in steps:
                y = step[x]
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        order += found
        level = found
    # a level left unwalked lies at word length cap
    return (order if ids is None else list(map(ids.__getitem__, order))), not level


def orbit(act: FiniteTreeAction, v: str, cap: int | None = None) -> OrbitResult:
    """Closure of {v} under the generators and inverses, up to a word-length cap.

    ``closed`` is False exactly when some orbit vertex has word length cap.
    The generators must be permutations of the vertex set, as
    ``FiniteTreeAction.validate`` checks.  A permutation of a finite set has
    finite order, so its inverse is one of its powers: without a cap the
    walk (``_orbit_order``) takes the generators alone.  With a cap it takes
    the inverses too, since they count one letter each towards word length.
    A level that keeps its numbering is walked on the numbering's ints
    either way, so no string map is made.
    """
    if v not in act.tree:
        raise TowerError("vertex not in tree")
    found, closed = _orbit_order(act, v, cap)
    return OrbitResult(tuple(sorted(found)), closed)


@dataclass(frozen=True)
class DegreeProfile:
    max_degrees: tuple[int, ...]
    expected_stable: int | None
    stabilized: bool | None


def degree_profile(sys: InverseSystem) -> DegreeProfile:
    """Per-level maximum vertex degree, read off each level tree's degree
    table; checks the stable bound when known."""
    degs = [max(act.tree._degrees, default=0) for act in sys.levels]
    expected = None
    stabilized = None
    prov = sys.provenance
    if "n" in prov and "p" in prov:
        expected = prov["p"] ** (prov["n"] ** 2 - 1) + 1
        stabilized = all(d == expected for d in degs[2:])
    return DegreeProfile(tuple(degs), expected, stabilized)


@dataclass(frozen=True)
class TowerReport:
    reasons: tuple[str, ...]   # empty exactly when the tower is verified
    bonds: BondReport
    degrees: DegreeProfile


def verify_tower(sys: InverseSystem) -> TowerReport:
    """Check a tower; it is verified exactly when the report gives no reason.

    Each level must be a tree that its generators act on by automorphisms;
    every bond equivariant, surjective, monotone and the identity on the
    lower copy; and the degree profile stable at the bound the provenance
    gives.  The reasons come in that order.  Bond a's structure reasons are
    added only when level a+1 passes ``FiniteTreeAction.validate``: the
    monotone test reads that level's tree, which must be one.  A built
    tower, which keeps its numbering, passes the level and bond checks at
    once; any other tower is checked on its strings, which give the
    reasons.
    """
    reasons, invalid = [], set()
    for k, act in enumerate(sys.levels):
        try:
            act.validate()
        except TowerError as exc:
            reasons.append(f"level {k}: {exc}")
            invalid.add(k)
    bonds = verify_all_bonds(sys)
    if not bonds.passed:
        reasons.append(f"equivariance violations: {len(bonds.violations)}")
    for level in range(len(sys.bonds)):
        if level + 1 not in invalid:
            reasons.extend(verify_bond_structure(sys, level).reasons)
    degrees = degree_profile(sys)
    if degrees.stabilized is False:
        reasons.append("degree profile did not stabilize at the expected bound")
    return TowerReport(tuple(reasons), bonds, degrees)


# -- star dendrite (harmonic star with exact symbolic angles) ---------------------


@dataclass(frozen=True)
class StarArm:
    index: int                # nonzero arm index
    angle_coeff: Fraction     # angle = angle_coeff * pi, exact
    length: Fraction

    @property
    def angle_float(self) -> float:
        return float(self.angle_coeff) * pi

    def tip_xy(self) -> tuple[float, float]:
        r = float(self.length)
        return (r * cos(self.angle_float), r * sin(self.angle_float))


@dataclass(eq=False)
class StarDendrite:
    tree: Tree
    arms: tuple[StarArm, ...]


def star_dendrite(count: int) -> StarDendrite:
    """Star with arms indexed +-1..+-count: angle sgn(i)(1 - 1/(2|i|))pi, length 1/|i|.

    Angles are stored exactly as rational multiples of pi; float coordinates
    are derived and labelled approximate in exports.
    """
    if count < 1:
        raise TowerError("at least one arm pair required")
    arms = []
    verts = ["o"]
    edges = []
    for i in sorted(range(-count, count + 1), key=lambda k: (abs(k), -k)):
        if i == 0:
            continue
        sign = 1 if i > 0 else -1
        coeff = sign * (1 - Fraction(1, 2 * abs(i)))
        arms.append(StarArm(i, coeff, Fraction(1, abs(i))))
        tip = f"a{i}"
        verts.append(tip)
        edges.append(("o", tip))
    return StarDendrite(Tree(tuple(verts), tuple(edges)), tuple(arms))


def star_to_json(sd: StarDendrite) -> dict:
    return {
        "tree": tree_to_json(sd.tree),
        "arms": [
            {
                "index": arm.index,
                "angle_pi_multiple": f"{arm.angle_coeff.numerator}/{arm.angle_coeff.denominator}",
                "length": f"{arm.length.numerator}/{arm.length.denominator}",
                "angle_float": arm.angle_float,
                "tip_xy_float": list(arm.tip_xy()),
                "floats_approximate": True,
            }
            for arm in sd.arms
        ],
    }


def star_to_svg(sd: StarDendrite) -> str:
    size = 400
    half = size / 2
    scale = (size / 2 - 10)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
    ]
    for arm in sd.arms:
        x, y = arm.tip_xy()
        lines.append(
            f'  <line x1="{half:.1f}" y1="{half:.1f}" '
            f'x2="{half + scale * x:.2f}" y2="{half - scale * y:.2f}" '
            f'stroke="#1f77b4" stroke-width="1.5"/>'
        )
    lines.append(f'  <circle cx="{half:.1f}" cy="{half:.1f}" r="2.5" fill="#000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- decorations (pendant arcs over an orbit of leaves) ---------------------------


class Pendant(NamedTuple):
    anchor: str
    mid: str
    tip: str


# the name of the middle or tip vertex of the i-th pendant arc, i >= 1
_PENDANT_NAME = re.compile(r"pend([1-9][0-9]*)[mt]")


def _pendant_number(name: str, count: int) -> int:
    """i when name is ``pend{i}m`` or ``pend{i}t`` with 1 <= i <= count, else 0."""
    found = _PENDANT_NAME.fullmatch(name)
    # more digits than count has is past it, and may be too long for int()
    if found is None or len(found[1]) > len(str(count)):
        return 0
    i = int(found[1])
    return i if i <= count else 0


class _Pendants(Sequence):
    """The pendant arcs over anchors, each made when read: the i-th from 1
    is ``Pendant(anchors[i-1], f"pend{i}m", f"pend{i}t")``.  A slice reads
    as a tuple."""

    __slots__ = ("_anchors",)

    def __init__(self, anchors: Sequence[str]):
        self._anchors = anchors

    def _arc(self, i: int) -> Pendant:
        return Pendant(self._anchors[i - 1], f"pend{i}m", f"pend{i}t")

    def __len__(self) -> int:
        return len(self._anchors)

    def __getitem__(self, index):
        nums = range(1, len(self._anchors) + 1)[index]
        return tuple(map(self._arc, nums)) if isinstance(nums, range) else self._arc(nums)

    def __iter__(self):
        return map(self._arc, range(1, len(self._anchors) + 1))


@dataclass(eq=False)
class DecoratedAction:
    """The deepest level's action with a pendant arc over each orbit vertex.

    Every generator permutes the arcs as it permutes their anchors, so the
    decorated tree and its maps are never made: ``base`` and ``anchors``,
    the orbit in the order ``attach_decorations`` walked it, determine
    them.  ``pendants`` is a read-only sequence view that makes each
    ``Pendant`` and its two names when it is read.
    """

    base: FiniteTreeAction
    anchors: tuple[str, ...]

    @property
    def pendants(self) -> _Pendants:
        return _Pendants(self.anchors)


def attach_decorations(sys: InverseSystem, seed: str) -> DecoratedAction:
    """Attach a subdivided pendant arc over each vertex in the orbit of seed.

    The orbit is numbered from the seed along the walk ``orbit`` takes
    without a cap (``_orbit_order``): breadth-first, through the generators
    alone, sorted by name.  The arc over the i-th orbit vertex
    carries length label 1/i and has vertices ``pend{i}m`` and
    ``pend{i}t``, which must name no vertex of the tower.  Every generator
    extends to permute the pendant arcs with the orbit.
    """
    act = sys.levels[-1]
    tree = act.tree
    if seed not in tree:
        raise TowerError("seed not in deepest tree")
    if len(tree.vertices) > 1 and tree.degree(seed) != 1:
        raise TowerError("seed must be a leaf")

    order, _closed = _orbit_order(act, seed, None)
    taken = chain.from_iterable(level.tree.vertices for level in sys.levels)
    # the first clash in pendant order: pend1m, pend1t, pend2m, ...
    clashes = [(i, name[-1], name) for name in taken
               if name.startswith("pend") and (i := _pendant_number(name, len(order)))]
    if clashes:
        raise TowerError(f"pendant vertex {min(clashes)[2]} is already a vertex of the tower")
    return DecoratedAction(act, tuple(order))


@dataclass(frozen=True)
class ProjectionGrowth:
    sizes: tuple[int, ...]
    closed: tuple[bool, ...]

    def strictly_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.sizes, self.sizes[1:]))


def projection_orbit_growth(
    sys: InverseSystem,
    decorated: DecoratedAction,
    x: str,
    cap: int | None = None,
) -> ProjectionGrowth:
    """Orbit size of the first-point projection of x into each level subtree.

    ``decorated`` must come from ``attach_decorations(sys, ...)``.  The
    decorated tree is never made: a pendant hangs off its anchor, so a
    pendant vertex projects through its anchor, and a level's projection is
    taken in the deepest level's tree.  The decorated generators extend the
    deepest level's unchanged on its vertices, so the orbit of a projection
    is taken in the deepest level's action.

    The deepest level is the whole tree, so x (or its anchor) is its own
    projection there.  Without a cap, the deepest orbit of a pendant vertex
    is read off the decoration: its anchor lies in the orbit that
    ``attach_decorations`` walked, and an orbit is the same from each of its
    points, so its size is the number of pendants and it is closed.  This
    relies on generators that permute the vertices, as
    ``FiniteTreeAction.validate`` checks.  A tower vertex, or any cap,
    walks the deepest orbit as the other levels do.
    """
    act = decorated.base
    tree = act.tree
    pendant = x not in tree
    if pendant:
        i = _pendant_number(x, len(decorated.anchors))
        if not i:
            raise TowerError("vertex not in decorated tree")
        x = decorated.anchors[i - 1]
    sizes = []
    closed = []
    for level in sys.levels[:-1]:
        res = orbit(act, first_point_map(tree, frozenset(level.tree.vertices), x), cap)
        sizes.append(len(res))
        closed.append(res.closed)
    if pendant and cap is None:
        sizes.append(len(decorated.pendants))
        closed.append(True)
    else:
        res = orbit(act, x, cap)
        sizes.append(len(res))
        closed.append(res.closed)
    return ProjectionGrowth(tuple(sizes), tuple(closed))


# -- serialization ----------------------------------------------------------------


def system_to_json(sys: InverseSystem) -> dict:
    """The system as a JSON object: each level's tree and generator images
    (one per vertex, in vertex order), and each bond with sorted keys.  A
    built tower, which keeps its numbering, writes the images and bonds from
    the numbering's ints, not from its views."""
    numbering = sys._numbering
    if numbering is not None:
        gens, bonds = numbering.to_json()
    else:
        gens = [{name: list(map(auto._map.__getitem__, act.tree.vertices))
                 for name, auto in sorted(act.generators.items())} for act in sys.levels]
        bonds = [{v: bond[v] for v in sorted(bond)} for bond in sys.bonds]
    return {
        "provenance": sys.provenance,
        "generator_matrices": {name: matrix_to_json(m) for name, m in sys.matrices.items()},
        "levels": [{"tree": tree_to_json(act.tree), "generators": level_gens}
                   for act, level_gens in zip(sys.levels, gens)],
        "bonds": bonds,
    }


def system_from_json(obj: Mapping) -> InverseSystem:
    """Parse a tower written by ``system_to_json``.

    Every level must name the generators of level 0, every generator image
    and bond entry must name a vertex of its level, and each bond must map
    every vertex of the level above it.  The levels themselves are not
    validated: ``FiniteTreeAction.validate`` does that.  A provenance ``n`` or
    ``p`` must be an integer of at least 2: ``degree_profile`` computes with it.
    A file whose (n^2 - 1) * (bit length of p - 1) is 64 or more is rejected
    before the power is taken: its degree bound p^(n^2-1) + 1 is then at
    least 2^64, which no vertex of a tower reaches.
    """
    levels_in = obj.get("levels") if isinstance(obj, Mapping) else None
    if not (isinstance(levels_in, list) and levels_in
            and all(isinstance(lv, Mapping) and isinstance(lv.get("generators"), Mapping)
                    for lv in levels_in)
            and isinstance(obj.get("bonds"), list) and len(obj["bonds"]) == len(levels_in) - 1
            and all(_is_str_map(b) for b in obj["bonds"])
            and isinstance(obj.get("generator_matrices", {}), Mapping)
            and isinstance(obj.get("provenance", {}), Mapping)):
        raise TowerError("tower must be an object with a nonempty 'levels' list (each with "
                         "'tree' and 'generators') and one 'bonds' map per level above 0")
    provenance = dict(obj.get("provenance", {}))
    for key in ("n", "p"):
        if key in provenance and not (_is_int(provenance[key]) and provenance[key] >= 2):
            raise TowerError(f"provenance {key} must be an integer >= 2")
    if ("n" in provenance and "p" in provenance
            and (provenance["n"] ** 2 - 1) * (provenance["p"].bit_length() - 1) >= 64):
        raise TowerError("provenance p^(n^2-1) is too large to be a vertex degree")
    matrices = {
        name: matrix_from_json(m)
        for name, m in obj.get("generator_matrices", {}).items()
    }
    levels = []
    for a, lv in enumerate(levels_in):
        tree = tree_from_json(lv.get("tree"))
        gens = {}
        for name, images in lv["generators"].items():
            if not (isinstance(images, list) and len(images) == len(tree.vertices)
                    and all(isinstance(v, str) for v in images)):
                raise TowerError(f"generator {name}: one image per vertex required")
            if not set(images) <= set(tree.vertices):
                raise TowerError(f"level {a}: generator {name} has an image outside the level")
            gens[name] = TreeAutomorphism(dict(zip(tree.vertices, images)))
        if levels and set(gens) != set(levels[0].generators):
            raise TowerError(f"level {a}: its generators are not those of level 0")
        levels.append(FiniteTreeAction(tree, gens))
    bonds = [dict(b) for b in obj["bonds"]]
    for a, bond in enumerate(bonds):
        if set(bond) != set(levels[a + 1].tree.vertices):
            raise TowerError(f"bond {a}: its keys must be the vertices of level {a + 1}")
        if not set(bond.values()) <= set(levels[a].tree.vertices):
            raise TowerError(f"bond {a}: a value is not a vertex of level {a}")
    return InverseSystem(levels, bonds, provenance, matrices)
