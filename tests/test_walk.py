"""The shared breadth-first walk against a textbook queue search."""

import random

import pytest

import oracles
from conftest import pruefer_tree
from treeact._walk import walk
from treeact.matrices import CapExceeded, elementary, enumerate_group
from treeact.ordering import ball_generate
from treeact.tower import build_congruence_tower, orbit
from treeact.trees import path


def check_against_oracle(start, neighbours):
    order, parent, depth = oracles.bfs(start, neighbours)
    got = list(walk(start, neighbours))
    assert [node for node, *_ in got] == order
    for node, up, k, d in got:
        assert up == parent[node] and d == depth[node]
        if up is None:
            assert k is None and node == start
        else:
            assert list(neighbours(up))[k] == node


@pytest.mark.parametrize("seed", range(40))
def test_pruefer_trees_match_oracle(seed):
    rng = random.Random(seed)
    t = pruefer_tree(rng.randint(1, 40), rng)
    check_against_oracle(rng.choice(t.vertices), t.adjacency.__getitem__)


@pytest.mark.parametrize("seed", range(40))
def test_path_is_oracle_parent_path(seed):
    rng = random.Random(seed)
    t = pruefer_tree(rng.randint(1, 40), rng)
    a, b = rng.choice(t.vertices), rng.choice(t.vertices)
    _, parent, _ = oracles.bfs(a, t.adjacency.__getitem__)
    assert path(t, a, b) == oracles.parent_path(parent, b)


def test_group_steps_match_oracle():
    # SL_2(Z/5) from the two unit transvections and their inverses
    mod = 5
    gens = [oracles.unipotent(2, 1, 2, 1), oracles.unipotent(2, 2, 1, 1)]
    steps = [s for g in gens for s in (g, oracles.mat_inv(g))]

    def neighbours(x):
        rows = [list(r) for r in x]
        return [tuple(map(tuple, oracles.mat_mul(rows, s, mod))) for s in steps]

    start = tuple(map(tuple, oracles.mat_identity(2)))
    check_against_oracle(start, neighbours)
    assert sum(1 for _ in walk(start, neighbours)) == 120


def test_stopping_early_expands_nothing_further():
    calls = []

    def neighbours(x):
        calls.append(x)
        return [x + 1, x + 2]

    for node, *_ in walk(0, neighbours):
        if node == 2:
            break
    assert calls == [0]


def test_orbit_cap_matches_oracle_depths():
    act = build_congruence_tower(2, 3, 1).levels[1]
    leaf = act.tree.leaves()[0]
    steps = [f for a in act.generators.values() for f in (a, a.inverse())]
    _, _, depth = oracles.bfs(leaf, lambda x: [s(x) for s in steps])
    for cap in range(max(depth.values()) + 2):
        res = orbit(act, leaf, cap)
        assert res.vertices == tuple(sorted(v for v, d in depth.items() if d <= cap))
        assert res.closed == (cap not in depth.values())


def test_caps_admit_exactly_cap_elements():
    gens = [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)]
    assert len(enumerate_group(2, 3, gens, cap=24)) == 24
    with pytest.raises(CapExceeded, match="group too large for cap"):
        enumerate_group(2, 3, gens, cap=23)
    size = len(ball_generate(gens, 2))
    assert len(ball_generate(gens, 2, cap=size)) == size
    with pytest.raises(CapExceeded, match="ball exceeds cap"):
        ball_generate(gens, 2, cap=size - 1)
