"""Tree primitives: validation, paths, entry points, hulls, fixed vertices."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from treeact.trees import (
    Tree,
    TreeAutomorphism,
    TreeError,
    ValidationResult,
    automorphisms_fixing_leaf,
    common_fixed_point,
    convex_hull,
    count_automorphisms_fixing_leaf,
    first_point_map,
    is_tree_automorphism,
    path,
    point_order,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    validate_tree,
)

import oracles
from conftest import pruefer_tree
from oracles import random_automorphism_fixing_leaf


def star3():
    return Tree(("c", "l1", "l2", "l3"), (("c", "l1"), ("c", "l2"), ("c", "l3")))


def path4():
    return Tree(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d")))


@st.composite
def random_trees(draw, min_size=2, max_size=30):
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return pruefer_tree(n, random.Random(seed))


class TestValidate:
    def test_singleton(self):
        assert validate_tree(Tree(("x",), ())).ok

    def test_path(self):
        assert validate_tree(Tree(("a", "b", "c"), (("a", "b"), ("b", "c")))).ok

    def test_triangle_is_cycle(self):
        res = validate_tree(Tree(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))))
        assert not res.ok and res.reason == "cycle"

    def test_self_loop(self):
        res = validate_tree(Tree(("a", "b"), (("a", "a"), ("a", "b"))))
        assert res.reason == "self-loop"

    def test_duplicate_edge(self):
        res = validate_tree(Tree(("a", "b", "c"), (("a", "b"), ("b", "a"), ("b", "c"))))
        assert res.reason == "duplicate edge"

    def test_disconnected(self):
        res = validate_tree(Tree(("a", "b", "c", "d"), (("a", "b"),)))
        assert res.reason == "disconnected"

    def test_embedding_injective(self):
        t = Tree(
            ("a", "b"),
            (("a", "b"),),
            {"a": (Fraction(0), Fraction(0)), "b": (Fraction(0), Fraction(0))},
        )
        assert validate_tree(t).reason == "embedding not injective"


class TestPath:
    def test_star(self):
        assert path(star3(), "l1", "l2") == ["l1", "c", "l2"]

    def test_degenerate(self):
        assert path(star3(), "c", "c") == ["c"]

    def test_path_graph(self):
        assert path(path4(), "a", "d") == ["a", "b", "c", "d"]

    def test_unknown_vertex(self):
        with pytest.raises(TreeError, match="vertex not in tree"):
            path(star3(), "l1", "zz")

    @given(random_trees())
    def test_reversal(self, t):
        vs = sorted(t.vertices)
        a, b = vs[0], vs[-1]
        assert path(t, a, b) == list(reversed(path(t, b, a)))

    @given(random_trees())
    def test_path_invariants(self, t):
        vs = sorted(t.vertices)
        p = path(t, vs[0], vs[-1])
        assert p[0] == vs[0] and p[-1] == vs[-1]
        assert len(set(p)) == len(p)
        for u, v in zip(p, p[1:]):
            assert v in t.adjacency[u]


class TestFirstPointMap:
    def test_path_example(self):
        assert first_point_map(path4(), {"a", "b"}, "d") == "b"

    def test_inside_is_identity(self):
        assert first_point_map(path4(), {"a", "b"}, "a") == "a"

    def test_star(self):
        assert first_point_map(star3(), {"l1"}, "l2") == "l1"

    def test_disconnected_sub(self):
        with pytest.raises(TreeError, match="subtree required"):
            first_point_map(star3(), {"l1", "l2"}, "l3")

    @given(random_trees())
    def test_entry_point_property(self, t):
        # [x, r(x)] meets the subtree exactly in r(x); and r is idempotent
        vs = sorted(t.vertices)
        sub = set(path(t, vs[0], vs[len(vs) // 2]))
        for x in vs:
            r = first_point_map(t, sub, x)
            assert set(path(t, x, r)) & sub == {r}
            assert first_point_map(t, sub, r) == r


class TestPointOrder:
    def test_examples(self):
        assert point_order(star3(), "c") == 3
        assert point_order(star3(), "l1") == 1
        assert point_order(Tree(("a", "b", "c"), (("a", "b"), ("b", "c"))), "b") == 2

    def test_degenerate(self):
        with pytest.raises(TreeError, match="degenerate"):
            point_order(Tree(("x",), ()), "x")

    def test_component_count_oracle(self):
        # order really is the number of components of the complement
        t = pruefer_tree(9, random.Random(5))
        for x in t.vertices:
            rest = [v for v in t.vertices if v != x]
            comps = 0
            seen = set()
            for s in rest:
                if s in seen:
                    continue
                comps += 1
                stack = [s]
                seen.add(s)
                while stack:
                    y = stack.pop()
                    for w in t.adjacency[y]:
                        if w != x and w not in seen:
                            seen.add(w)
                            stack.append(w)
            assert point_order(t, x) == comps

    @given(random_trees())
    def test_degree_sum(self, t):
        assert sum(point_order(t, v) for v in t.vertices) == 2 * len(t.edges)


class TestConvexHull:
    def test_singleton(self):
        assert convex_hull(star3(), {"l1"}) == {"l1"}

    def test_star(self):
        assert convex_hull(star3(), {"l1", "l2"}) == {"l1", "c", "l2"}

    def test_path_ends(self):
        assert convex_hull(path4(), {"a", "d"}) == {"a", "b", "c", "d"}

    def test_empty(self):
        with pytest.raises(TreeError):
            convex_hull(star3(), set())

    @pytest.mark.parametrize("s", [{"zz"}, {""}])
    def test_unknown_vertex(self, s):
        with pytest.raises(TreeError, match="vertex not in tree"):
            convex_hull(star3(), s)

    @settings(max_examples=30)
    @given(random_trees(max_size=10), st.data())
    def test_minimality_brute_force(self, t, data):
        vs = sorted(t.vertices)
        s = data.draw(st.sets(st.sampled_from(vs), min_size=1, max_size=4))
        hull = convex_hull(t, s)
        # brute force: smallest connected vertex superset of s
        from itertools import combinations

        def connected(sub):
            sub = set(sub)
            start = next(iter(sub))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in t.adjacency[x]:
                    if y in sub and y not in seen:
                        seen.add(y)
                        stack.append(y)
            return len(seen) == len(sub)

        best = None
        others = [v for v in vs if v not in s]
        for extra in range(len(vs) - len(s) + 1):
            for combo in combinations(others, extra):
                cand = set(s) | set(combo)
                if connected(cand):
                    best = cand
                    break
            if best is not None:
                break
        assert hull == best


class TestAutomorphisms:
    def test_compose_inverse(self):
        t = star3()
        h = TreeAutomorphism({"c": "c", "l1": "l2", "l2": "l3", "l3": "l1"})
        assert is_tree_automorphism(t, h).ok
        assert all(h.inverse()(h(v)) == v for v in t.vertices)
        assert all(h(h(h(v))) == v for v in t.vertices)

    def test_inverse_is_made_once(self):
        h = TreeAutomorphism({"c": "c", "l1": "l2", "l2": "l3", "l3": "l1"})
        assert h.inverse() is h.inverse()
        assert h.inverse().inverse() == h
        assert h.inverse() == TreeAutomorphism({"c": "c", "l1": "l3", "l2": "l1", "l3": "l2"})

    def test_cached_inverse_leaves_eq_hash_repr_alone(self):
        pairs = {"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"}
        h, fresh = TreeAutomorphism(pairs), TreeAutomorphism(pairs)
        before = (hash(h), repr(h))
        h.inverse()
        assert h == fresh and fresh == h
        assert (hash(h), repr(h)) == before == (hash(fresh), repr(fresh))
        assert repr(h) == "TreeAutomorphism({'l1': 'l2', 'l2': 'l1'})"
        assert len({h, fresh, h.inverse()}) == 1   # a swap is its own inverse

    def test_rejects_non_automorphism(self):
        t = path4()
        swap_ends = TreeAutomorphism({"a": "d", "b": "b", "c": "c", "d": "a"})
        assert not is_tree_automorphism(t, swap_ends).ok

    def test_enumeration_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(10):
            t = pruefer_tree(rng.randint(2, 7), rng)
            e = t.leaves()[0]
            brute = []
            for perm in permutations(t.vertices):
                m = dict(zip(t.vertices, perm))
                if m[e] != e:
                    continue
                cand = TreeAutomorphism(m)
                if oracles.is_tree_automorphism(t, cand).ok:
                    brute.append(cand)
            enumerated = list(automorphisms_fixing_leaf(t, e))
            assert len(enumerated) == len(brute) == count_automorphisms_fixing_leaf(t, e)
            assert set(enumerated) == set(brute)

    def test_random_automorphism_is_automorphism(self):
        rng = random.Random(11)
        for _ in range(20):
            t = pruefer_tree(rng.randint(3, 40), rng)
            e = t.leaves()[0]
            h = random_automorphism_fixing_leaf(t, e, rng)
            assert is_tree_automorphism(t, h).ok
            assert h(e) == e


class TestSecondFixedPoint:
    def test_identity_returns_neighbor(self):
        t = path4()
        o = common_fixed_point(t, [TreeAutomorphism({v: v for v in t.vertices})], "a")
        assert o == "b"

    def test_star_swap(self):
        t = star3()
        h = TreeAutomorphism({"c": "c", "l1": "l1", "l2": "l3", "l3": "l2"})
        assert common_fixed_point(t, [h], "l1") == "c"

    def test_path3_only_identity(self):
        t = Tree(("a", "b", "c"), (("a", "b"), ("b", "c")))
        autos = list(automorphisms_fixing_leaf(t, "a"))
        assert len(autos) == 1 and all(autos[0](v) == v for v in t.vertices)
        assert common_fixed_point(t, autos, "a") in {"b", "c"}

    def test_endpoint_not_fixed(self):
        t = star3()
        h = TreeAutomorphism({"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"})
        with pytest.raises(TreeError, match="moves the fixed endpoint"):
            common_fixed_point(t, [h], "l1")

    @settings(max_examples=40)
    @given(random_trees(max_size=50), st.integers(0, 2 ** 31))
    def test_two_fixed_points_always(self, t, seed):
        # automorphisms fixing a leaf always fix at least one more vertex
        e = t.leaves()[0]
        h = random_automorphism_fixing_leaf(t, e, random.Random(seed))
        o = common_fixed_point(t, [h], e)
        assert o != e and h(o) == o
        assert sum(1 for v in t.vertices if h(v) == v) >= 2


class TestCommonFixedPoint:
    def test_identity(self):
        t = path4()
        assert common_fixed_point(t, [TreeAutomorphism({v: v for v in t.vertices})], "a") == "b"

    def test_four_star_all_autos(self):
        t = Tree(
            ("c", "z", "l2", "l3", "l4"),
            (("c", "z"), ("c", "l2"), ("c", "l3"), ("c", "l4")),
        )
        autos = list(automorphisms_fixing_leaf(t, "z"))
        assert len(autos) == 6
        assert common_fixed_point(t, autos, "z") == "c"

    def test_path_z_m_w(self):
        t = Tree(("z", "m", "w"), (("z", "m"), ("m", "w")))
        assert common_fixed_point(t, [TreeAutomorphism({v: v for v in t.vertices})], "z") == "m"

    def test_generator_moves_z(self):
        t = star3()
        h = TreeAutomorphism({"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"})
        with pytest.raises(TreeError, match="moves the fixed endpoint"):
            common_fixed_point(t, [h], "l1")


class TestSerialization:
    def test_json_round_trip_with_embedding(self):
        t = Tree(
            ("a", "b"),
            (("a", "b"),),
            {"a": (Fraction(1, 2), Fraction(0)), "b": (Fraction(3), Fraction(-1, 4))},
        )
        again = tree_from_json(tree_to_json(t))
        assert again.vertices == t.vertices
        assert again.edges == t.edges
        assert again.embedding == t.embedding

    def test_json_rationals_as_strings(self):
        t = Tree(("a", "b"), (("a", "b"),), {"a": (Fraction(1, 2), Fraction(0)), "b": (Fraction(1), Fraction(1))})
        payload = tree_to_json(t)
        assert payload["embedding"]["a"] == ["1/2", "0/1"]

    def test_dot_export(self):
        dot = tree_to_dot(star3())
        assert '"c" -- "l1";' in dot and dot.startswith("graph")


def triangle_with_pendant():
    """The 3-cycle a-b-c with d hung from c: no tree.  Its rooted form hangs
    b and c from a and d from c, so the edge b-c is no parent and child."""
    return Tree(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")))


def answer(call):
    """What call returns, or the message of the TreeError it raises."""
    try:
        return "value", call()
    except TreeError as exc:
        return "raised", str(exc)


def embedded_from_parents(embedding):
    """The edge a-b made from a parent list, with an embedding set after."""
    t = Tree.from_parents(("a", "b"), [0, 0])
    t.embedding = embedding
    return t


class TestRejections:
    """Each refusal of a malformed tree or argument, one row each."""

    @pytest.mark.parametrize("tree, reason", [
        pytest.param(Tree(("a", "b"), (("a", "z"),)), "edge references unknown vertex",
                     id="unknown-vertex"),
        # as many edges as a tree has, but a 3-cycle leaves d out
        pytest.param(Tree(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("a", "c"))),
                     "disconnected", id="cycle-and-island"),
        pytest.param(Tree(("a", "b"), (("a", "b"),), {"a": (0, 0)}),
                     "embedding does not cover vertices", id="embedding-cover"),
        pytest.param(Tree(("a", "b"), (("a", "b"),), {"a": (0, 0), "b": (1, 0, 0)}),
                     "embedding dimension must be uniform 2 or 3", id="embedding-dimension"),
        # a sound parent list vouches for the edges, not for an embedding
        pytest.param(embedded_from_parents({"a": (0, 0)}), "embedding does not cover vertices",
                     id="parent-list-embedding-cover"),
    ])
    def test_invalid_tree(self, tree, reason):
        res = validate_tree(tree)
        assert (res.ok, res.reason) == (False, reason)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: star3().degree("zz"), "vertex not in tree", id="degree"),
        pytest.param(lambda: path(Tree(("a", "b", "c"), (("a", "b"),)), "a", "c"),
                     "vertices not connected", id="path-disconnected"),
        pytest.param(lambda: common_fixed_point(Tree(("x",), ()), [], "x"),
                     "tree must have at least two vertices", id="fixed-point-size"),
        pytest.param(lambda: common_fixed_point(star3(), [], "c"), "z must be a leaf",
                     id="fixed-point-leaf"),
        pytest.param(lambda: list(automorphisms_fixing_leaf(star3(), "c")), "e must be a leaf",
                     id="automorphisms-leaf"),
        pytest.param(lambda: tree_from_json({"vertices": ["a"], "edges": [], "embedding": ["0"]}),
                     "tree embedding must map vertex ids to lists of 'p/q' strings",
                     id="json-embedding"),
        pytest.param(lambda: Tree.from_parents(("a", "b"), [0, 2]), "parent index out of range",
                     id="parent-past-the-end"),
        pytest.param(lambda: Tree.from_parents(("a", "b"), [0, -3]), "parent index out of range",
                     id="parent-before-the-start"),
    ])
    def test_refusal(self, call, message):
        with pytest.raises(TreeError) as exc:
            call()
        assert str(exc.value) == message

    # what each primitive answers on a graph with a cycle, which it reads
    # through the rooted form's spanning tree
    @pytest.mark.parametrize("call, want", [
        pytest.param(lambda: path(triangle_with_pendant(), "b", "c"),
                     ("value", ["b", "a", "c"]), id="path"),
        pytest.param(lambda: first_point_map(triangle_with_pendant(), {"b", "c"}, "d"),
                     ("raised", "subtree required"), id="first-point-map"),
        pytest.param(lambda: is_tree_automorphism(
            triangle_with_pendant(), TreeAutomorphism({v: v for v in "abcd"})),
                     ("value", ValidationResult(False, "edge (b,c) not preserved")),
                     id="automorphism"),
    ])
    def test_graph_with_a_cycle(self, call, want):
        assert answer(call) == want
