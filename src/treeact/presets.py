"""Named desk-scale instances, each wired to one CLI subcommand."""

from __future__ import annotations

from .matrices import GroupMatrix, elementary
from .ordering import Ball, OrderAssignment, OrderingError, ball_generate, invariance_set


# order-search instances: generators, invariance set, inner/outer radii
SEARCH_PRESETS: dict[str, dict] = {
    "torsion-z2": {
        "doc": "cyclic order-2 subgroup {e, -I} of SL_2(Z); any invariant order is contradictory",
        "rows": [[[-1, 0], [0, -1]]],
        "names": ["t"],
        "inner_radius": 1,
        "outer_radius": 2,
        "invariant": "gens",
    },
    "torsion-z3": {
        "doc": "order-3 element of SL_2(Z); torsion obstructs invariant orders",
        "rows": [[[0, -1], [1, -1]]],
        "names": ["t"],
        "inner_radius": 1,
        "outer_radius": 2,
        "invariant": "gens",
    },
    "torsion-z4": {
        "doc": "order-4 element of SL_2(Z); the radius-2 ball wraps the cycle and obstructs invariant orders",
        "rows": [[[0, -1], [1, 0]]],
        "names": ["t"],
        "inner_radius": 2,
        "outer_radius": 3,
        "invariant": "gens",
    },
    "z-ball-3": {
        "doc": "infinite cyclic group as upper-triangular 2x2; radius-3 ball, invariance under both unit translations",
        "rows": [[[1, 1], [0, 1]]],
        "names": ["g"],
        "inner_radius": 3,
        "outer_radius": 4,
        "invariant": "gens+inv",
    },
    "z2-ball-1": {
        "doc": "rank-2 free abelian group via two commuting transvections; radius-1 ball",
        "rows": [
            [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        ],
        "names": ["a", "b"],
        "inner_radius": 1,
        "outer_radius": 2,
        "invariant": "gens",
    },
    "heisenberg-ball-2": {
        "doc": "integer Heisenberg group via u12, u23; radius-2 ball",
        "rows": [
            [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        ],
        "names": ["a", "b"],
        "inner_radius": 2,
        "outer_radius": 3,
        "invariant": "gens",
    },
}


PRESETS: dict[str, dict] = {
    "hexagon-r1": {
        "command": "identities hexagon -r 1",
        "doc": "six 3x3 unipotent generators with parameter 1; cyclic commutation and power relations",
        "params": {"r": 1},
    },
    "hexagon-r2": {
        "command": "identities hexagon -r 2",
        "doc": "hexagon relations at parameter 2",
        "params": {"r": 2},
    },
    "hexagon-r3": {
        "command": "identities hexagon -r 3",
        "doc": "hexagon relations at parameter 3",
        "params": {"r": 3},
    },
    "hexagon-embedded-4-1-2-l2": {
        "command": "identities hexagon -r 2 --embedded 4 1 2 2",
        "doc": "hexagon relations for the 4x4 embedded transvection squares (i=1, j=2)",
        "params": {"n": 4, "i": 1, "j": 2, "l": 2},
    },
    "ll-heisenberg": {
        "command": "identities ll",
        "doc": "central-commutator power identity over the Heisenberg triple, all small exponents",
        "params": {"r_max": 3, "m_max": 5, "p_max": 5, "q_max": 5},
    },
    "congruence-tower-3-2-1": {
        "command": "tower build -n 3 -p 2 --depth 1",
        "doc": "coset tree of SL_3 mod 2: 168 leaves",
        "params": {"n": 3, "p": 2, "depth": 1},
    },
    "congruence-tower-3-2-2": {
        "command": "tower build -n 3 -p 2 --depth 2",
        "doc": "coset tree of SL_3 mod 4: 43008 leaves, branching 256",
        "params": {"n": 3, "p": 2, "depth": 2},
    },
    "decorated-tower-3-2-1": {
        "command": "tower decorate -n 3 -p 2 --depth 1",
        "doc": "depth-1 tower with pendant arcs over the leaf orbit; projection orbit growth",
        "params": {"n": 3, "p": 2, "depth": 1},
    },
    "star-dendrite-1": {
        "command": "tower build --star 1",
        "doc": "two-arm star, a path through the origin",
        "params": {"count": 1},
    },
    "star-dendrite-8": {
        "command": "tower build --star 8",
        "doc": "sixteen-arm harmonic star with exact symbolic angles",
        "params": {"count": 8},
    },
    "core-sl2z2": {
        "command": "identities core --group sl2z2",
        "doc": "normal cores of every subgroup of the order-6 group SL_2(Z/2)",
        "params": {"group": "sl2z2"},
    },
    "core-sl2z3": {
        "command": "identities core --group sl2z3",
        "doc": "normal cores of every subgroup of the order-24 group SL_2(Z/3)",
        "params": {"group": "sl2z3"},
    },
    "congruence-u12": {
        "command": "identities congruence --level 2 -n 3 --elementary 1,2,2",
        "doc": "congruence membership scan for a transvection power",
        "params": {"n": 3, "i": 1, "j": 2, "v": 2, "level": 2},
    },
    "realize-z-21": {
        "command": "realize --preset realize-z-21",
        "doc": "dynamical realization of the naturally ordered 21-element cyclic ball; round-trips through the probe order",
        "params": {"radius": 10},
    },
}

for _name, _cfg in SEARCH_PRESETS.items():
    PRESETS[_name] = {
        "command": f"order search --preset {_name}",
        "doc": _cfg["doc"],
        "params": {
            "inner_radius": _cfg["inner_radius"],
            "outer_radius": _cfg["outer_radius"],
            "invariant": _cfg["invariant"],
        },
    }


def presets() -> dict[str, dict]:
    """The preset catalog: name -> command, parameters, one-line description."""
    return {name: dict(PRESETS[name]) for name in sorted(PRESETS)}


def search_instance(name: str) -> tuple[list[GroupMatrix], Ball, Ball]:
    """Materialize (F, inner ball, outer ball) for an order-search preset."""
    if name not in SEARCH_PRESETS:
        raise OrderingError(f"unknown search preset: {name}")
    cfg = SEARCH_PRESETS[name]
    gens = [GroupMatrix.from_rows(rows) for rows in cfg["rows"]]
    names = tuple(cfg["names"])
    inner = ball_generate(gens, cfg["inner_radius"], names)
    outer = ball_generate(gens, cfg["outer_radius"], names)
    return invariance_set(gens, cfg["invariant"]), inner, outer


def realize_instance(radius: int) -> tuple[Ball, OrderAssignment, list[GroupMatrix]]:
    """(ball, order, enumeration) for the cyclic ball of u = u12 in SL_2(Z):
    the radius ball, ordered naturally by u's exponent, and enumerated as
    e, u, u^-1, u^2, u^-2, ..."""
    u = elementary(2, 1, 2, 1)
    ball = ball_generate([u], radius, ["g"])
    ascending = sorted(ball.elements, key=lambda m: m.entries[1])
    order = OrderAssignment.from_total_order(ball, ascending)
    enumeration = [GroupMatrix.identity(2)]
    for k in range(1, radius + 1):
        enumeration += [u ** k, u ** (-k)]
    return ball, order, enumeration
