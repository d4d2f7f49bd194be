"""Finite combinatorial trees and their automorphisms.

Vertices are opaque strings and all tie-breaking is lexicographic on the
identifier (after a primary distance key where one is stated).  Trees are
immutable after construction; construction itself is permissive so that
``validate_tree`` can report on malformed input instead of refusing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, permutations
from operator import eq, lt
from typing import Iterable, Iterator, Mapping, Sequence

from ._walk import walk


class TreeError(ValueError):
    """Raised when a tree operation's preconditions are violated."""


def _norm_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _sound_parents(vertices: Sequence[str], parent: Sequence[int]) -> bool:
    """Whether parent makes the distinct vertices a rooted tree: one parent
    per vertex, the root (vertex 0) its own parent, every other parent an
    earlier vertex."""
    return (len(parent) == len(vertices) == len(set(vertices)) > 0
            and min(parent) == parent[0] == 0 and all(map(lt, parent[1:], range(1, len(parent)))))


@dataclass(eq=False)
class Tree:
    """A finite graph intended to be a tree, with an optional exact embedding.

    ``embedding`` maps vertices to rational coordinates in the plane or in
    3-space.  Nothing is validated at construction time (use
    ``validate_tree``), with one exception: ``from_parents`` checks its
    parent list, and a tree made from a sound one keeps the list, which
    also vouches for it in ``validate_tree``.  Every tree answers
    ``leaves``, ``degree`` and membership from one table per vertex,
    ``_degrees``, and paths, first points, connected subsets and
    automorphisms from one rooted form of int lists, ``_rooted``.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    embedding: dict[str, tuple[Fraction, ...]] | None = None
    # vertex i > 0 hangs from vertex _parent[i]; kept only by from_parents, when sound
    _parent: list[int] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.vertices = tuple(self.vertices)
        self.edges = tuple(sorted(_norm_edge(u, v) for u, v in self.edges))
        if self.embedding is not None:
            self.embedding = {
                v: tuple(Fraction(c) for c in coords)
                for v, coords in self.embedding.items()
            }

    @classmethod
    def from_parents(cls, vertices: Sequence[str], parent: Sequence[int]) -> Tree:
        """The tree with an edge from vertices[parent[i]] to vertices[i] for
        each i >= 1.  A parent indexes vertices as a Python index does, so a
        negative one counts from the end; one out of range is a TreeError.

        The tree keeps the list only when it is sound: as long as vertices,
        parent[0] == 0 and 0 <= parent[i] < i, with distinct vertices.  Such
        a tree is rooted at vertices[0] by construction.
        """
        vertices, parent = tuple(vertices), list(parent)
        try:
            ups = list(map(vertices.__getitem__, parent[1:]))
        except IndexError:
            raise TreeError("parent index out of range") from None
        tree = cls(vertices, zip(ups, vertices[1:]))
        if _sound_parents(vertices, parent):
            tree._parent = parent
        return tree

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        # the edges are sorted with u <= v, so each vertex meets its smaller
        # neighbours in order, then its larger ones: each list comes sorted
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            if u in nbrs and v in nbrs and u != v:
                nbrs[u].append(v)
                nbrs[v].append(u)
        return {v: tuple(ws) for v, ws in nbrs.items()}

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _degrees(self) -> list[int]:
        """Each vertex's degree, in vertex order: off the parent list when the
        tree keeps one (its children, and its parent unless it is the root),
        else its number of neighbours."""
        if self._parent is None:
            adj = self.adjacency
            return [len(adj[v]) for v in self.vertices]
        degrees = [1] * len(self._parent)
        degrees[0] = 0
        for u in self._parent[1:]:
            degrees[u] += 1
        return degrees

    @cached_property
    def _rooted(self) -> tuple[list[int], Sequence[int]]:
        """Each vertex index's parent and breadth-first position in the
        spanning forest grown from each vertex not yet reached, in vertex
        order; a root is its own parent.  A kept parent list is this form
        with positions in vertex order."""
        if self._parent is not None:
            return self._parent, range(len(self._parent))
        vertices, index, adj = self.vertices, self._index, self.adjacency
        parent, position = list(range(len(vertices))), [-1] * len(vertices)
        # a name stands for the last index _index gives it, so an earlier
        # index of a name given twice stays a root that no walk reaches
        grown = chain.from_iterable(walk(v, adj.__getitem__) for v in vertices
                                    if position[index[v]] < 0)
        for count, (v, up, _k, _depth) in enumerate(grown):
            i = index[v]
            parent[i], position[i] = i if up is None else index[up], count
        return parent, position

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def degree(self, v: str) -> int:
        if v not in self:
            raise TreeError("vertex not in tree")
        return self._degrees[self._index[v]]

    def leaves(self) -> tuple[str, ...]:
        return tuple(sorted(v for v, d in zip(self.vertices, self._degrees) if d == 1))


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_tree(t: Tree) -> ValidationResult:
    """Check the tree invariants, naming the first violated one.  A tree
    made from a sound parent list, with no embedding, is one by
    construction and is accepted at once.  Connectivity is read off the
    rooted form: a connected graph has one root."""
    if t._parent is not None and t.embedding is None:
        return ValidationResult(True, None)
    if not t.vertices:
        return ValidationResult(False, "no vertices")
    vset = set(t.vertices)
    if len(vset) != len(t.vertices):
        return ValidationResult(False, "duplicate vertex")
    seen = set()
    for u, v in t.edges:
        if u == v:
            return ValidationResult(False, "self-loop")
        if u not in vset or v not in vset:
            return ValidationResult(False, "edge references unknown vertex")
        if (u, v) in seen:
            return ValidationResult(False, "duplicate edge")
        seen.add((u, v))
    if len(t.edges) > len(t.vertices) - 1:
        return ValidationResult(False, "cycle")
    if len(t.edges) < len(t.vertices) - 1:
        return ValidationResult(False, "disconnected")
    # |E| = |V|-1 holds; connectivity now rules out a cycle+island split.
    parent = t._rooted[0]
    if sum(map(eq, parent, range(len(parent)))) != 1:
        return ValidationResult(False, "disconnected")
    if t.embedding is not None:
        if set(t.embedding) != vset:
            return ValidationResult(False, "embedding does not cover vertices")
        dims = {len(c) for c in t.embedding.values()}
        if not dims <= {2} and not dims <= {3}:
            return ValidationResult(False, "embedding dimension must be uniform 2 or 3")
        if len(set(t.embedding.values())) != len(t.vertices):
            return ValidationResult(False, "embedding not injective")
    return ValidationResult(True, None)


def path(t: Tree, a: str, b: str) -> list[str]:
    """The unique simple path from a to b; ``path(t, a, a) == [a]``.

    The end with the later position in the rooted form climbs to its
    parent until the two meet; one that would climb past a root lies in
    another component than the other end."""
    if a not in t or b not in t:
        raise TreeError("vertex not in tree")
    parent, position = t._rooted
    up, down = [t._index[a]], [t._index[b]]
    while up[-1] != down[-1]:
        side = up if position[up[-1]] > position[down[-1]] else down
        if parent[side[-1]] == side[-1]:
            raise TreeError("vertices not connected")
        side.append(parent[side[-1]])
    return [t.vertices[i] for i in up + down[-2::-1]]


def _subset_top(t: Tree, sub: frozenset[str]) -> int | None:
    """The index of the one member of sub that is a root of the rooted form
    or has its parent outside sub, when sub is a set of t's vertices with
    exactly one such member, that is, a connected one; else None."""
    index, parent = t._index, t._rooted[0]
    if not sub <= index.keys():
        return None
    members = set(map(index.__getitem__, sub))
    tops = [i for i in members if parent[i] == i or parent[i] not in members]
    return tops[0] if len(tops) == 1 else None


def first_point_map(t: Tree, sub: Iterable[str], x: str) -> str:
    """The unique entry point r(x) of the arc from x into the subtree.

    ``sub`` must induce a connected subtree; the path from x meets it
    exactly in the returned vertex, and r(x) = x for x already inside.
    In a tree every path from x into a connected subtree enters it at that
    one vertex, and the path from there to any member stays inside, so it
    is the first member on the path from x to sub's top member in the
    rooted form, its one member that is a root or has its parent outside.
    """
    subset = frozenset(sub)
    if x not in t:
        raise TreeError("vertex not in tree")
    top = _subset_top(t, subset)
    if top is None:
        raise TreeError("subtree required")
    return next(v for v in path(t, x, t.vertices[top]) if v in subset)


def point_order(t: Tree, x: str) -> int:
    """Number of connected components of the tree minus x (= its degree)."""
    if len(t.vertices) < 2:
        raise TreeError("order undefined on degenerate tree")
    return t.degree(x)


def convex_hull(t: Tree, s: Iterable[str]) -> frozenset[str]:
    """Union of all pairwise paths between members of s; induces a subtree."""
    pts = sorted(set(s))
    if not pts:
        raise TreeError("empty vertex set")
    if any(v not in t for v in pts):
        raise TreeError("vertex not in tree")
    hull: set[str] = set(pts)
    base = pts[0]
    for v in pts[1:]:
        hull.update(path(t, base, v))
    # Paths from one base vertex already span the minimal subtree, but the
    # contract is the union over all pairs; the two agree inside a tree.
    return frozenset(hull)


class TreeAutomorphism:
    """A bijection on the vertices of a fixed tree, applied as a left action.

    The map never changes after construction, so its inverse is made once,
    on first use, and kept (outside eq, hash and repr).
    """

    __slots__ = ("_map", "_hash", "_inv")

    def __init__(self, mapping: Mapping[str, str] | Iterable[tuple[str, str]]):
        self._map = dict(mapping)
        self._hash: int | None = None
        self._inv: TreeAutomorphism | None = None

    def __call__(self, v: str) -> str:
        return self._map[v]

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self._map)

    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def inverse(self) -> "TreeAutomorphism":
        if self._inv is None:
            self._inv = TreeAutomorphism({w: v for v, w in self._map.items()})
        return self._inv

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TreeAutomorphism) and self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self) -> str:
        moved = {v: w for v, w in sorted(self._map.items()) if v != w}
        return f"TreeAutomorphism({moved or 'id'})"


def is_tree_automorphism(t: Tree, a: TreeAutomorphism) -> ValidationResult:
    """Whether a permutes the vertices and maps each edge, in ``t.edges``
    order, to a parent and child of the rooted form; else the first
    failure."""
    index, image, parent = t._index, a._map, t._rooted[0]
    if image.keys() != index.keys():
        return ValidationResult(False, "domain mismatch")
    if set(image.values()) != index.keys():
        return ValidationResult(False, "not a bijection")
    for u, v in t.edges:
        i, j = index[image[u]], index[image[v]]
        if i == j or (parent[i] != j and parent[j] != i):
            return ValidationResult(False, f"edge ({u},{v}) not preserved")
    return ValidationResult(True, None)


def common_fixed_point(t: Tree, gens: Sequence[TreeAutomorphism], z: str) -> str:
    """A vertex other than the leaf z fixed by every map (each must fix z).

    Each map is checked to be an automorphism before it is evaluated.  One
    fixing the leaf z fixes z's only neighbour, the canonical witness: the
    fixed vertex nearest to z.
    """
    if len(t.vertices) < 2:
        raise TreeError("tree must have at least two vertices")
    if z not in t or t.degree(z) != 1:
        raise TreeError("z must be a leaf")
    for h in gens:
        ok = is_tree_automorphism(t, h)
        if not ok:
            raise TreeError(f"not an automorphism: {ok.reason}")
        if h(z) != z:
            raise TreeError("generator moves the fixed endpoint")
    return t.adjacency[z][0]


# -- automorphism enumeration (rooted at a fixed leaf) ------------------------


def _rooted_children(t: Tree, root: str) -> dict[str, tuple[str, ...]]:
    adj = t.adjacency
    return {
        x: tuple(y for y in adj[x] if y != up)
        for x, up, _k, _depth in walk(root, adj.__getitem__)
    }


def _canon(v: str, children: dict[str, tuple[str, ...]], memo: dict) -> tuple:
    if v not in memo:
        memo[v] = tuple(sorted(_canon(c, children, memo) for c in children[v]))
    return memo[v]


def _sibling_classes(
    v: str, children: dict[str, tuple[str, ...]], memo: dict
) -> dict[tuple, list[str]]:
    """The children of v grouped by the isomorphism type of their subtrees."""
    groups: dict[tuple, list[str]] = {}
    for c in children[v]:
        groups.setdefault(_canon(c, children, memo), []).append(c)
    return groups


def count_automorphisms_fixing_leaf(t: Tree, e: str) -> int:
    """Order of the stabiliser of leaf e in the automorphism group."""
    children = _rooted_children(t, e)
    memo: dict = {}

    def count(v: str) -> int:
        total = 1
        for members in _sibling_classes(v, children, memo).values():
            total *= math.factorial(len(members))
            for c in members:
                total *= count(c)
        return total

    return count(e)


def automorphisms_fixing_leaf(t: Tree, e: str) -> Iterator[TreeAutomorphism]:
    """All automorphisms fixing leaf e, generated lazily.

    Enumeration is by permuting isomorphic sibling subtrees of the tree
    rooted at e; deterministic given the vertex identifiers.
    """
    if e not in t or t.degree(e) != 1:
        raise TreeError("e must be a leaf")
    children = _rooted_children(t, e)
    memo: dict = {}

    def maps(v: str, w: str) -> Iterator[dict[str, str]]:
        # Yields all isomorphisms subtree(v) -> subtree(w); canon(v)==canon(w).
        groups_v = _sibling_classes(v, children, memo)
        groups_w = _sibling_classes(w, children, memo)

        def rec(keys: list[tuple], acc: dict[str, str]) -> Iterator[dict[str, str]]:
            if not keys:
                yield acc
                return
            key, rest = keys[0], keys[1:]
            srcs = groups_v[key]
            for perm in permutations(groups_w[key]):
                def fill(i: int, acc2: dict[str, str]) -> Iterator[dict[str, str]]:
                    if i == len(srcs):
                        yield from rec(rest, acc2)
                        return
                    for sub in maps(srcs[i], perm[i]):
                        merged = dict(acc2)
                        merged.update(sub)
                        yield from fill(i + 1, merged)
                yield from fill(0, dict(acc))
        yield from rec(sorted(groups_v), {v: w})

    for m in maps(e, e):
        yield TreeAutomorphism(m)


# -- serialization -------------------------------------------------------------


def tree_to_json(t: Tree) -> dict:
    out: dict = {
        "vertices": list(t.vertices),
        "edges": [list(e) for e in t.edges],
    }
    if t.embedding is not None:
        out["embedding"] = {
            v: [frac_str(c) for c in coords] for v, coords in sorted(t.embedding.items())
        }
    return out


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def tree_from_json(obj: Mapping) -> Tree:
    """Parse ``{"vertices", "edges", "embedding"?}`` with string vertex ids."""
    if not (isinstance(obj, Mapping) and _is_str_list(obj.get("vertices"))
            and isinstance(obj.get("edges"), list)
            and all(_is_str_list(e) and len(e) == 2 for e in obj["edges"])):
        raise TreeError("tree must be an object with a 'vertices' list of strings "
                        "and an 'edges' list of [u, v] string pairs")
    embedding = obj.get("embedding")
    if embedding is not None and not (isinstance(embedding, Mapping)
                                      and all(_is_str_list(c) for c in embedding.values())):
        raise TreeError("tree embedding must map vertex ids to lists of 'p/q' strings")
    try:
        return Tree(tuple(obj["vertices"]), tuple(map(tuple, obj["edges"])), embedding)
    except (ValueError, ZeroDivisionError) as exc:  # a coordinate that is no fraction
        raise TreeError(f"tree embedding: {exc}") from None


def _is_str_map(x) -> bool:
    return isinstance(x, Mapping) and all(isinstance(v, str) for kv in x.items() for v in kv)


def automorphism_from_json(obj: Mapping) -> TreeAutomorphism:
    """Parse ``{"mapping": {vertex: image}}`` with string vertex ids."""
    if not (isinstance(obj, Mapping) and _is_str_map(obj.get("mapping"))):
        raise TreeError("map file must be an object with a 'mapping' from strings to strings")
    return TreeAutomorphism(obj["mapping"])


def tree_to_dot(t: Tree, name: str = "tree") -> str:
    lines = [f"graph {name} {{"]
    for v in sorted(t.vertices):
        lines.append(f'  "{v}";')
    for u, v in t.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
