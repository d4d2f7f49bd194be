"""The benchmark's three workloads: inputs, jobs and output checks.

A workload is a list of jobs.  ``Job.run`` is the timed call into treeact;
``Job.check`` then compares its output with expected values written here
from closed forms (never computed through treeact) and returns the exact
work counters plus a digest of the output.  The digest lets two runs with
one seed, or a traced and an untraced run, be compared for identical
outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from treeact import cli, ordering, presets, tower, trees
from treeact.matrices import GroupMatrix, elementary, six_generators

# the package re-exports the function realize() under the module's name
realize = importlib.import_module("treeact.realize")


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    # check(output) -> (counters, digest, problems)
    check: Callable[[Any], tuple[dict, str, list]]


@dataclass
class Workload:
    jobs: list[Job]
    # counters that describe the inputs (made during set-up)
    input_counters: dict = field(default_factory=dict)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# -- tower -------------------------------------------------------------------------

# |SL_n(Z/p^a)| = |SL_n(Z/p)| * p^((n^2-1)(a-1)), with |SL_3(Z/2)| = 168 and
# |SL_2(Z/3)| = 24.  Level a of the tower has that many leaves.
TOWER_CASES = (
    {
        "n": 3, "p": 2, "depth": 2,
        "leaves": (1, 168, 43008),
        # SHA-256 and length of the serialized report, recorded when this
        # benchmark was added: reports must stay byte-identical
        "sha256": "8e51fa46af04d7b8acc7ff5682c17fd8c50a359e8ad602508001607aa94825ee",
        "bytes": 16335267,
    },
    {
        "n": 2, "p": 3, "depth": 3,
        "leaves": (1, 24, 648, 17496),
        "sha256": "ab39f78fddbb57ba25e61497b6d1448ae471a19c1c98949f0d1e3ecfdfac182e",
        "bytes": 3525689,
    },
)


@dataclass
class TowerOutput:
    system: Any
    valid: list
    bonds: Any
    structure: list
    profile: Any
    seed_leaf: str
    pendants: int
    growth: Any
    text: str


def _run_tower(case: dict, leaf_fraction: float, span) -> TowerOutput:
    sys_ = tower.build_congruence_tower(case["n"], case["p"], case["depth"])
    valid = [bool(trees.validate_tree(act.tree)) for act in sys_.levels]
    for act in sys_.levels:
        act.validate()
    bonds = tower.verify_all_bonds(sys_)
    structure = [
        tower.verify_bond_structure(sys_, level).passed
        for level in range(len(sys_.bonds))
    ]
    profile = tower.degree_profile(sys_)
    leaves = sys_.levels[-1].tree.leaves()
    seed_leaf = leaves[int(leaf_fraction * len(leaves))]
    decorated = tower.attach_decorations(sys_, seed_leaf)
    growth = tower.projection_orbit_growth(sys_, decorated, decorated.pendants[0].tip)
    with span("tower.serialize"):
        # the form `treeact tower build --out` writes
        text = json.dumps(tower.system_to_json(sys_), sort_keys=True, indent=2) + "\n"
    return TowerOutput(sys_, valid, bonds, structure, profile, seed_leaf,
                       len(decorated.pendants), growth, text)


def _check_tower(case: dict, out: TowerOutput):
    n, p, depth = case["n"], case["p"], case["depth"]
    leaves = case["leaves"]
    problems: list = []
    top = out.system.levels[-1].tree
    level_leaves = [
        len(act.tree.leaves()) if len(act.tree.vertices) > 1 else 1
        for act in out.system.levels
    ]
    _expect(problems, "level leaf counts", tuple(level_leaves), leaves)
    _expect(problems, "vertices", len(top.vertices), sum(leaves))
    # the root has |SL_n(Z/p)| children; every deeper non-leaf has the
    # congruence kernel's p^(n^2-1) children
    children = Counter(parent for parent, _child in top.edges)
    branching = {
        children[v] for v in top.vertices if 0 < int(v.split("|")[0]) < depth
    }
    _expect(problems, "root children", children["0|e"], leaves[1])
    _expect(problems, "branching", branching, {p ** (n * n - 1)} if depth > 1 else set())
    _expect(problems, "valid levels", out.valid, [True] * (depth + 1))
    gens = n * (n - 1)
    level_sizes = [sum(leaves[: a + 1]) for a in range(depth + 1)]
    _expect(problems, "equivariance pairs", out.bonds.checked, gens * sum(level_sizes[1:]))
    _expect(problems, "equivariant", out.bonds.passed, True)
    _expect(problems, "bond structure", out.structure, [True] * depth)
    stable = p ** (n * n - 1) + 1
    _expect(problems, "max degrees", out.profile.max_degrees,
            (0, leaves[1]) + (stable,) * (depth - 1))
    _expect(problems, "pendants", out.pendants, leaves[-1])
    _expect(problems, "projection orbits", out.growth.sizes, leaves)
    _expect(problems, "orbits closed", out.growth.closed, (True,) * (depth + 1))
    data = out.text.encode()
    digest = hashlib.sha256(data).hexdigest()
    _expect(problems, "serialized sha256", digest, case["sha256"])
    _expect(problems, "serialized bytes", len(data), case["bytes"])
    counters = {
        "tower.vertices": len(top.vertices),
        "tower.generator_images": sum(
            len(auto.domain())
            for act in out.system.levels
            for auto in act.generators.values()
        ),
        "tower.equivariance_pairs": out.bonds.checked,
        "tower.pendants": out.pendants,
        "tower.orbit_vertices": sum(out.growth.sizes),
        "tower.serialize.bytes": len(data),
    }
    return counters, _sha(f"{digest} {out.seed_leaf} {out.profile.max_degrees}"), problems


def tower_workload(seed: int, span) -> Workload:
    # the seed picks the decoration leaf; the leaf orbit is transitive, so
    # every counter is the same for every seed
    rng = random.Random(seed)
    jobs = []
    for case in TOWER_CASES:
        frac = rng.random()
        jobs.append(Job(
            f"tower n={case['n']} p={case['p']} depth={case['depth']}",
            lambda case=case, frac=frac: _run_tower(case, frac, span),
            lambda out, case=case: _check_tower(case, out),
        ))
    return Workload(jobs)


# -- search ------------------------------------------------------------------------

SEARCH_BUDGET = 10 ** 8
TORSION_PRESETS = {"torsion-z2", "torsion-z3", "torsion-z4"}


def _score_sequence_ok(signs: dict, size: int) -> bool:
    """A complete antisymmetric relation is a strict total order exactly when
    its out-degrees are 0, 1, ..., size-1 (a transitive tournament)."""
    for i in range(size):
        for j in range(size):
            if i != j and signs.get((i, j)) != -signs.get((j, i), 0):
                return False
    scores = Counter(i for (i, _j), s in signs.items() if s == 1)
    return sorted(scores.get(i, 0) for i in range(size)) == list(range(size))


def _check_search(expect_sat: bool, size: int, result):
    problems: list = []
    _expect(problems, "verdict", result.status, "sat" if expect_sat else "unsat")
    if result.is_sat:
        signs = result.witness.signs
        if not _score_sequence_ok(signs, size):
            problems.append("witness is not a strict total order")
        payload = sorted((i, j, s) for (i, j), s in signs.items())
    else:
        payload = result.trace.to_json()
    counters = {
        "ordering.decisions": result.decisions,
        "ordering.sat": int(result.is_sat),
        "ordering.unsat": int(not result.is_sat),
    }
    return counters, _sha(f"{result.status} {json.dumps(payload)}"), problems


def search_workload(seed: int, span) -> Workload:
    # The seed is ignored: shuffled variable orders have a heavy tail (see
    # RATIONALE.md), so every job searches in the canonical order.
    del seed, span
    instances = []
    for name in sorted(presets.SEARCH_PRESETS):
        instances.append((name, *presets.search_instance(name), name not in TORSION_PRESETS))
    hexagon = six_generators(1)
    hex_names = [f"a{k}" for k in range(1, 7)]
    u12, u23 = elementary(3, 1, 2, 1), elementary(3, 2, 3, 1)
    a = GroupMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = GroupMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    u = elementary(2, 1, 2, 1)
    for name, gens, names, radius, f in (
        ("hexagon-ball-1", hexagon, hex_names, 1, hexagon),
        ("heisenberg-ball-3", [u12, u23], ["u12", "u23"], 3, [u12, u23]),
        ("z2-ball-4", [a, b], ["a", "b"], 4, [a, b]),
        ("z-ball-80", [u], ["g"], 80, [u, u.inverse()]),
    ):
        inner = ordering.ball_generate(gens, radius, names)
        outer = ordering.ball_generate(gens, radius + 1, names)
        instances.append((name, f, inner, outer, True))
    jobs = [
        Job(
            f"search {name} ({len(inner)}/{len(outer)})",
            lambda f=f, inner=inner, outer=outer: ordering.search_invariant(
                f, inner, outer, budget=SEARCH_BUDGET
            ),
            lambda res, sat=sat, size=len(outer): _check_search(sat, size, res),
        )
        for name, f, inner, outer, sat in instances
    ]
    balls = sum(len(inner) + len(outer) for _n, _f, inner, outer, _s in instances)
    return Workload(jobs, {"ordering.ball_elements": balls})


# -- realize-identities ----------------------------------------------------------

DEMO_RADIUS = 14
DEMO_SCRAMBLES = 3
CLI_RADIUS = 100


@dataclass
class RealizeOutput:
    rm: Any
    maps: list
    verified: bool
    almost_free: bool
    recovered: Any
    axioms_passed: bool | None


def _z_ball(radius: int):
    """Ball of radius R in <u> = Z, with its natural order as the input order."""
    u = elementary(2, 1, 2, 1)
    ball = ordering.ball_generate([u], radius, ["g"])
    natural = sorted(ball.elements, key=lambda m: m.entries[1])
    return u, ball, ordering.OrderAssignment.from_total_order(ball, natural)


def _run_realize(ball, order, enumeration, map_elements, check_axioms) -> RealizeOutput:
    rm = realize.realize(enumeration, order)
    maps = [
        realize.generator_pl_map(rm, g, ball, label=label) for label, g in map_elements
    ]
    ver = realize.verify_realization(rm, maps)
    free = realize.almost_free_report(maps)
    back = realize.order_from_realization(rm, ball)
    axioms = ordering.check_axioms(back).passed if check_axioms else None
    return RealizeOutput(rm, maps, ver.passed, free.almost_free, back, axioms)


def _check_realize(radius: int, order, standard: bool, out: RealizeOutput):
    problems: list = []
    t = out.rm.t
    _expect(problems, "points", len(out.rm), 2 * radius + 1)
    by_t = [g.entries[1] for g in sorted(t, key=t.__getitem__)]
    _expect(problems, "realized order", by_t, list(range(-radius, radius + 1)))
    if standard:
        # the standard enumeration places u^k at k
        _expect(problems, "t(u^k) = k", all(t[g] == g.entries[1] for g in t), True)
    # u^k acts on the 2R+1-|k| points x with u^k x still in the ball
    want_bps = sum(2 * radius + 1 - abs(gm.element.entries[1]) for gm in out.maps)
    breakpoints = sum(len(gm.homeo.breakpoints) for gm in out.maps)
    _expect(problems, "breakpoints", breakpoints, want_bps)
    _expect(problems, "verified", out.verified, True)
    _expect(problems, "almost free", out.almost_free, True)
    _expect(problems, "round trip", out.recovered.signs == order.signs, True)
    if out.axioms_passed is not None:
        _expect(problems, "recovered order axioms", out.axioms_passed, True)
    counters = {
        "realize.points": len(out.rm),
        "realize.max_denominator_bits": max(v.denominator.bit_length() for v in t.values()),
        "realize.breakpoints": breakpoints,
    }
    values = sorted((g.entries[1], str(v)) for g, v in t.items())
    return counters, _sha(json.dumps(values)), problems


HEXAGON_SIGNS = [-1, 1, -1, 1, -1, 1]   # alternating around the hexagon
# SL_2(Z/3) has 15 subgroups: 1, Z2, 4 x Z3, 3 x Z4, 4 x Z6, Q8 and itself.
# Their normal cores: Z3 -> 1; Z4 and Z6 -> the centre Z2; the normal
# subgroups 1, Z2, Q8 and the whole group are their own cores.
CORE_ROWS = [(1, 1), (2, 2)] + [(3, 1)] * 4 + [(4, 2)] * 3 + [(6, 2)] * 4 + [(8, 8), (24, 24)]
SWEEPS = (
    ["identities", "hexagon", "-r", "1"],
    ["identities", "hexagon", "-r", "2"],
    ["identities", "hexagon", "-r", "3"],
    ["identities", "hexagon", "-r", "2", "--embedded", "4", "1", "2", "2"],
    ["identities", "ll"],                       # r<=3, m,p,q<=5: 3*5*5*5 cases
    ["identities", "core", "--group", "sl2z3"],
)


def _run_cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_sweep(argv: list, out: tuple[int, str]):
    code, text = out
    problems: list = []
    _expect(problems, "exit code", code, 0)
    report = json.loads(text)
    _expect(problems, "outcome", report["outcome"], "pass")
    details = report["details"]
    counters = {"matrices.identity_cases": 0, "matrices.subgroups": 0}
    kind = argv[1]
    if kind == "hexagon":
        checks = details["checks"]
        _expect(problems, "relations", [c["commutes"] and c["power_ok"] for c in checks], [True] * 6)
        _expect(problems, "signs", [c["sign"] for c in checks], HEXAGON_SIGNS)
        counters["matrices.identity_cases"] = len(checks)
    elif kind == "ll":
        _expect(problems, "cases", details["cases"], 375)
        _expect(problems, "failures", details["failures"], [])
        counters["matrices.identity_cases"] = details["cases"]
    else:
        rows = details["subgroups"]
        _expect(problems, "group order", details["group_order"], 24)
        _expect(problems, "cores", [(r["subgroup_order"], r["core_order"]) for r in rows], CORE_ROWS)
        counters["matrices.subgroups"] = len(rows)
    return counters, _sha(text), problems


def realize_identities_workload(seed: int, span) -> Workload:
    # the seed picks the scrambled enumerations
    del span
    rng = random.Random(seed)
    jobs = []
    u, ball, order = _z_ball(DEMO_RADIUS)
    # excluded as in scripts/realize_demo.py; u^(2R) lies outside the R-ball,
    # so every element of the ball gets a map
    far = u ** (2 * DEMO_RADIUS)
    map_elements = [(str(g.entries[1]), g) for g in ball.elements if g != far]
    enumerations = {"standard": [GroupMatrix.identity(2)]}
    for k in range(1, DEMO_RADIUS + 1):
        enumerations["standard"] += [u ** k, u ** (-k)]
    for s in range(DEMO_SCRAMBLES):
        elems = list(ball.elements)
        rng.shuffle(elems)
        enumerations[f"scramble{s}"] = elems
    for label, enumeration in enumerations.items():
        jobs.append(Job(
            f"realize demo R={DEMO_RADIUS} {label}",
            lambda e=enumeration: _run_realize(ball, order, e, map_elements, False),
            lambda out, std=(label == "standard"): _check_realize(DEMO_RADIUS, order, std, out),
        ))
    _u, big, big_order = _z_ball(CLI_RADIUS)
    big_enum = list(big.elements)
    rng.shuffle(big_enum)
    gen_maps = list(zip(big.names, big.generators))
    jobs.append(Job(
        f"realize cli R={CLI_RADIUS} scrambled",
        lambda: _run_realize(big, big_order, big_enum, gen_maps, True),
        lambda out: _check_realize(CLI_RADIUS, big_order, False, out),
    ))
    for argv in SWEEPS:
        jobs.append(Job(
            " ".join(argv),
            lambda argv=argv: _run_cli(argv),
            lambda out, argv=argv: _check_sweep(argv, out),
        ))
    return Workload(jobs, {"ordering.ball_elements": len(ball) + len(big)})


WORKLOADS = {
    "tower": tower_workload,
    "search": search_workload,
    "realize-identities": realize_identities_workload,
}
