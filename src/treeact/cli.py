"""Command-line entry point.

Every subcommand prints one JSON report to stdout (validating against
``schemas/report.schema.json``) and exits 0 on pass/Sat, 1 on fail/Unsat,
2 when a budget or cap ran out, 3 on usage errors and bad input files, and
4 on an internal error, with ``internal error:`` and the traceback on
stderr.  Reports carry no timestamps, so identical configurations produce
byte-identical output.

Each subcommand is declared once, in ``COMMANDS``: its handler and its
options, each tagged as a report parameter, an input file or an output path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import __version__, presets as presets_mod
from .matrices import (
    CapExceeded,
    MatrixError,
    _is_int,
    congruence_membership,
    elementary,
    enumerate_group,
    matrix_from_json,
    normal_core,
    six_generators,
    six_generators_embedded,
    verify_hexagon_relations,
    verify_ll_identity,
)
from .ordering import (
    OrderingError,
    SearchBudgetExhausted,
    assignment_from_json,
    assignment_to_json,
    ball_generate,
    check_axioms,
    check_invariance,
    compactness_extract,
    invariance_set,
    search_invariant,
)
from .realize import (
    RealizeError,
    almost_free_report,
    generator_pl_map,
    order_from_realization,
    plhomeo_to_csv,
    plhomeo_to_svg,
    realization_to_csv,
    realize,
    verify_realization,
)
from .tower import (
    TowerError,
    attach_decorations,
    build_congruence_tower,
    degree_profile,
    orbit,
    projection_orbit_growth,
    star_dendrite,
    star_to_json,
    star_to_svg,
    system_from_json,
    system_to_json,
    verify_tower,
)
from .trees import (
    TreeError,
    automorphism_from_json,
    common_fixed_point,
    convex_hull,
    point_order,
    tree_from_json,
    tree_to_dot,
    validate_tree,
)

EXIT_PASS, EXIT_FAIL, EXIT_BUDGET, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3, 4

_OUTCOME_EXIT = {
    "pass": EXIT_PASS,
    "sat": EXIT_PASS,
    "fail": EXIT_FAIL,
    "unsat": EXIT_FAIL,
    "budget-exhausted": EXIT_BUDGET,
}


class UsageError(Exception):
    """A command line that parses but asks for something inconsistent."""


# bad input from the user or the file system: exit 3, never 4
_INPUT_ERRORS = (UsageError, TreeError, TowerError, MatrixError, OrderingError,
                 RealizeError, OSError, json.JSONDecodeError, UnicodeDecodeError)


@dataclass
class RunConfig:
    """One validated invocation: subcommand plus its vetted parameters."""

    command: str
    parameters: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    report_path: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: str, text: str) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_json(path: str, obj) -> None:
    """Write ``_dump(obj)`` chunk by chunk, never holding the whole text."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- tower ------------------------------------------------------------------------


def _tower_from_config(cfg: RunConfig):
    if "infile" in cfg.inputs:
        return system_from_json(_read_json(cfg.inputs["infile"]))
    p = cfg.parameters
    return build_congruence_tower(p["n"], p["p"], p["depth"], cap=p["cap"])


def _walkable_tower(cfg: RunConfig):
    """The tower, with each level of a loaded one validated: orbits need permutations."""
    sys_ = _tower_from_config(cfg)
    if "infile" in cfg.inputs:
        for act in sys_.levels:
            act.validate()
    return sys_


def _first_leaf(act) -> str:
    leaves = act.tree.leaves()
    return leaves[0] if leaves else act.tree.vertices[0]


def _h_tower_build(cfg: RunConfig):
    if "star" in cfg.parameters:
        sd = star_dendrite(cfg.parameters["star"])
        if "out" in cfg.outputs:
            _write_json(cfg.outputs["out"], star_to_json(sd))
        if "svg" in cfg.outputs:
            _write_text(cfg.outputs["svg"], star_to_svg(sd))
        return "pass", {"star": star_to_json(sd)}
    sys_ = _tower_from_config(cfg)
    details = {"levels": [{"vertices": len(act.tree.vertices), "leaves": len(act.tree.leaves())}
                          for act in sys_.levels]}
    dp = degree_profile(sys_)
    details["max_degrees"] = list(dp.max_degrees)
    details["stable_degree_bound"] = dp.expected_stable
    if "out" in cfg.outputs:
        _write_json(cfg.outputs["out"], system_to_json(sys_))
    if "dot_dir" in cfg.outputs:
        for k, act in enumerate(sys_.levels):
            _write_text(
                str(Path(cfg.outputs["dot_dir"]) / f"level_{k}.dot"),
                tree_to_dot(act.tree, f"level_{k}"),
            )
    return "pass", details


def _h_tower_verify(cfg: RunConfig):
    rep = verify_tower(_tower_from_config(cfg))
    details = {
        "checked_equivariance_pairs": rep.bonds.checked,
        "max_degrees": list(rep.degrees.max_degrees),
        "reasons": list(rep.reasons),
    }
    return ("pass" if not rep.reasons else "fail"), details


def _h_tower_orbits(cfg: RunConfig):
    sys_ = _walkable_tower(cfg)
    act = sys_.levels[-1]
    vertex = cfg.parameters.get("vertex", _first_leaf(act))
    res = orbit(act, vertex, cfg.parameters.get("orbit_cap"))
    return "pass", {"vertex": vertex, "orbit_size": len(res), "closed": res.closed}


def _h_tower_decorate(cfg: RunConfig):
    sys_ = _walkable_tower(cfg)
    seed = cfg.parameters.get("seed_leaf", _first_leaf(sys_.levels[-1]))
    decorated = attach_decorations(sys_, seed)
    x = decorated.pendants[0].tip
    growth = projection_orbit_growth(sys_, decorated, x, cfg.parameters.get("orbit_cap"))
    monotone = all(a <= b for a, b in zip(growth.sizes, growth.sizes[1:]))
    details = {
        "pendants": len(decorated.pendants),
        "lengths_head": [f"1/{i}" for i in range(1, min(3, len(decorated.pendants)) + 1)],
        "projection_vertex": x,
        "orbit_sizes": list(growth.sizes),
        "strictly_increasing": growth.strictly_increasing(),
    }
    return ("pass" if monotone else "fail"), details


def _tower_preset(name: str) -> dict:
    """The tower options a preset stands for; presets of other commands are rejected."""
    entry = presets_mod.PRESETS.get(name)
    if entry is None:
        raise TowerError(f"unknown preset: {name}")
    if not entry["command"].startswith("tower "):
        raise TowerError(f"preset {name!r} is not a tower preset: it runs `{entry['command']}`")
    pp = entry["params"]
    return {"star": pp["count"]} if "count" in pp else {k: pp[k] for k in ("n", "p", "depth")}


# -- order ------------------------------------------------------------------------


def _search_inputs(cfg: RunConfig):
    p = cfg.parameters
    if "preset" in p:
        return presets_mod.search_instance(p["preset"])
    payload = _read_json(cfg.inputs["gens"])
    if not (isinstance(payload, dict) and isinstance(payload.get("generators"), list)
            and isinstance(payload.get("names", []), list)):
        raise OrderingError("--gens file must be an object with 'generators' and 'names' lists")
    gens = [matrix_from_json(m) for m in payload["generators"]]
    names = payload.get("names") or None
    inner = ball_generate(gens, p["radius"], names)
    outer = ball_generate(gens, p.get("outer_radius", p["radius"] + 1), names)
    return invariance_set(gens, p["invariant"]), inner, outer


def _h_order_search(cfg: RunConfig):
    f, inner, outer = _search_inputs(cfg)
    result = search_invariant(
        f, inner, outer, budget=cfg.parameters["budget"],
        shuffle_seed=cfg.parameters.get("seed"),
    )
    details = {
        "ball_sizes": {"inner": len(inner), "outer": len(outer)},
        "decisions": result.decisions,
    }
    if result.is_sat:
        payload = details["witness"] = assignment_to_json(result.witness)
        details["witness_pairs"] = len(payload["signs"])
    else:
        payload = details["trace"] = result.trace.to_json()
    if "out" in cfg.outputs:
        _write_json(cfg.outputs["out"], payload)
    return ("sat" if result.is_sat else "unsat"), details


def _h_order_check(cfg: RunConfig):
    mode = cfg.parameters["invariant"]
    if mode == "none" and "inner_radius" in cfg.parameters:
        raise UsageError("--inner-radius applies only with --invariant gens or gens+inv")
    phi = assignment_from_json(_read_json(cfg.inputs["order"]))
    axioms = check_axioms(phi)
    details = {
        "antisymmetry_violations": len(axioms.antisymmetry_violations),
        "transitivity_violations": len(axioms.transitivity_violations),
    }
    ok = axioms.passed
    if mode != "none":
        inner = ball_generate(
            phi.ball.generators,
            cfg.parameters.get("inner_radius", phi.ball.radius - 1),
            phi.ball.names,
        )
        inv = check_invariance(phi, invariance_set(phi.ball.generators, mode), inner)
        details["invariance_violations"] = len(inv.violations)
        ok = ok and inv.passed
    return ("pass" if ok else "fail"), details


def _h_order_extract(cfg: RunConfig):
    chain = [assignment_from_json(_read_json(p)) for p in cfg.inputs["chain"]]
    first = chain[0].ball
    target = ball_generate(
        first.generators, cfg.parameters["target_radius"], first.names
    )
    res = compactness_extract(chain, target)
    payload = assignment_to_json(res.assignment)
    if "out" in cfg.outputs:
        _write_json(cfg.outputs["out"], payload)
    return "pass", {
        "supporters": list(res.supporters),
        "target_size": len(target),
        "assignment": payload,
    }


def _enumeration_from_json(obj, ball) -> list:
    indices = obj.get("indices") if isinstance(obj, dict) else None
    if not (isinstance(indices, list)
            and all(_is_int(i) and 0 <= i < len(ball) for i in indices)):
        raise RealizeError(f"--enum indices must be a list of integers in [0, {len(ball)})")
    return [ball.elements[i] for i in indices]


def _h_realize(cfg: RunConfig):
    if "preset" in cfg.parameters:
        radius = presets_mod.PRESETS[cfg.parameters["preset"]]["params"]["radius"]
        ball, order, enumeration = presets_mod.realize_instance(radius)
    else:
        order = assignment_from_json(_read_json(cfg.inputs["order"]))
        ball = order.ball
        enumeration = _enumeration_from_json(_read_json(cfg.inputs["enum"]), ball)
    rm = realize(enumeration, order)
    maps = [generator_pl_map(rm, g, ball, label=name)
            for name, g in zip(ball.names, ball.generators)]
    report = verify_realization(rm, maps)
    free = almost_free_report(maps)
    try:
        # compare file forms: a rank order writes its pairs without a sign table
        back = order_from_realization(rm, ball)
        round_trip = assignment_to_json(back) == assignment_to_json(order)
    except OrderingError:  # probes insufficient, or the probe order not transitive
        round_trip = False
    outdir = cfg.outputs.get("out")
    if outdir:
        _write_text(str(Path(outdir) / "realization.csv"), realization_to_csv(rm, ball))
        for gm in maps:
            _write_text(str(Path(outdir) / f"map_{gm.word}.csv"), plhomeo_to_csv(gm))
            if cfg.outputs.get("svg"):
                _write_text(str(Path(outdir) / f"map_{gm.word}.svg"), plhomeo_to_svg(gm))
    t_min, t_max = rm.values[0], rm.values[-1]
    details = {
        "elements": len(rm),
        "t_min": f"{t_min.numerator}/{t_min.denominator}",
        "t_max": f"{t_max.numerator}/{t_max.denominator}",
        "verified": report.passed,
        "almost_free": free.almost_free,
        "round_trip": round_trip,
    }
    return ("pass" if report.passed and round_trip else "fail"), details


# -- identities ---------------------------------------------------------------------


def _h_identities_hexagon(cfg: RunConfig):
    if "embedded" in cfg.parameters:
        n, i, j, l = cfg.parameters["embedded"]
        rep = verify_hexagon_relations(six_generators_embedded(n, i, j, l), l)
    else:
        rep = verify_hexagon_relations(six_generators(cfg.parameters["r"]), cfg.parameters["r"])
    details = {
        "checks": [
            {"i": c.i, "commutes": c.commutes, "power_ok": c.power_ok, "sign": c.sign}
            for c in rep.checks
        ]
    }
    return ("pass" if rep.passed else "fail"), details


def _h_identities_ll(cfg: RunConfig):
    r_max = cfg.parameters["r_max"]
    m_max = cfg.parameters["m_max"]
    p_max = cfg.parameters["p_max"]
    q_max = cfg.parameters["q_max"]
    u23 = elementary(3, 2, 3, 1)
    u13 = elementary(3, 1, 3, 1)
    ms, ps, qs = range(1, m_max + 1), range(1, p_max + 1), range(1, q_max + 1)
    failures = []
    for r in range(1, r_max + 1):
        a = elementary(3, 1, 2, r)   # [a, u23] = u13^r
        failures += [{"r": r, "m": m, "p": p, "q": q}
                     for m, p, q in verify_ll_identity(a, u23, u13, r, ms, ps, qs)]
    cases = r_max * m_max * p_max * q_max
    details = {"cases": cases, "failures": failures}
    return ("pass" if not failures else "fail"), details


_CORE_GROUP_MOD = {"sl2z2": 2, "sl2z3": 3}   # SL_2(Z/m) from the two unit transvections


def _h_identities_core(cfg: RunConfig):
    mod = _CORE_GROUP_MOD[cfg.parameters["group"]]
    g = enumerate_group(2, mod, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])
    subs = g.all_subgroups()
    conj = [(x.inverse(), x) for x in g.elements]
    rows = []
    ok = True
    for h in subs:
        core = normal_core(g, h)
        hset = {x.entries for x in h}
        cset = {x.entries for x in core}
        normal = all((xinv * k * x).entries in cset for k in core for xinv, x in conj)
        contained = cset <= hset
        index = len(g) // len(h)
        divides = math.factorial(index) % (len(g) // len(core)) == 0
        ok = ok and normal and contained and divides
        rows.append(
            {
                "subgroup_order": len(h),
                "core_order": len(core),
                "index": index,
                "core_normal": normal,
                "core_inside": contained,
                "core_index_divides_factorial": divides,
            }
        )
    rows.sort(key=lambda r: (r["subgroup_order"], r["core_order"]))
    return ("pass" if ok else "fail"), {"group_order": len(g), "subgroups": rows}


def _h_identities_congruence(cfg: RunConfig):
    k = cfg.parameters["level"]
    if "matrix" in cfg.inputs:
        a = matrix_from_json(_read_json(cfg.inputs["matrix"]))
    else:
        a = elementary(cfg.parameters["n"], *cfg.parameters["elementary"])
    member = congruence_membership(a, k)
    levels_found = [
        lvl for lvl in range(2, max(k, cfg.parameters.get("scan", k)) + 1)
        if congruence_membership(a, lvl)
    ]
    details = {"level": k, "member": member, "levels_found_up_to_scan": levels_found}
    return ("pass" if member else "fail"), details


def _count(text: str) -> int:
    """The argparse type of every count, cap and budget: an integer >= 0."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _int_triple(text: str) -> tuple[int, int, int]:
    try:
        i, j, v = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected i,j,v as three integers, got {text!r}") from None
    return i, j, v


# -- tree --------------------------------------------------------------------------


def _h_tree_info(cfg: RunConfig):
    t = tree_from_json(_read_json(cfg.inputs["infile"]))
    res = validate_tree(t)
    details = {
        "valid": res.ok,
        "reason": res.reason,
        "vertices": len(t.vertices),
        "edges": len(t.edges),
    }
    if res.ok and len(t.vertices) >= 2:
        orders = {v: point_order(t, v) for v in t.vertices}
        details["end_points"] = sum(1 for d in orders.values() if d == 1)
        details["branch_points"] = sum(1 for d in orders.values() if d >= 3)
        details["max_order"] = max(orders.values())
    return ("pass" if res.ok else "fail"), details


def _valid_tree(cfg: RunConfig):
    """The --in tree; one that fails validate_tree is bad input."""
    t = tree_from_json(_read_json(cfg.inputs["infile"]))
    res = validate_tree(t)
    if not res:
        raise TreeError(f"not a tree: {res.reason}")
    return t


def _h_tree_hull(cfg: RunConfig):
    t = _valid_tree(cfg)
    hull = convex_hull(t, cfg.parameters["vertices"])
    return "pass", {"hull": sorted(hull), "size": len(hull)}


def _h_tree_fix(cfg: RunConfig):
    t = _valid_tree(cfg)
    autos = [automorphism_from_json(_read_json(p)) for p in cfg.inputs["maps"]]
    leaf = cfg.parameters["leaf"]
    found = common_fixed_point(t, autos, leaf)
    return "pass", {"fixed_vertex": found, "leaf": leaf, "maps": len(autos)}


def _h_presets(cfg: RunConfig):
    return "pass", {"presets": presets_mod.presets()}


# -- the command table --------------------------------------------------------------

PARAM, INPUT, OUTPUT = "parameters", "inputs", "outputs"


@dataclass(frozen=True)
class Arg:
    """One option of a subcommand and the part of ``RunConfig`` its value goes to.

    ``default`` is applied by ``parse``, not by argparse, so a value the user
    gave can be told apart from a default.  An option with ``unless`` belongs
    to the alternative to those options: once one of them is given, giving
    this option is an error and its default is dropped; otherwise
    ``required`` applies.  An option with ``needs`` applies only once one of
    those options is given.  ``expand`` turns the value into other options
    of the same subcommand instead of recording it.
    """

    flags: tuple[str, ...]
    role: str
    default: object
    unless: tuple[str, ...]
    needs: tuple[str, ...]
    required: bool
    expand: Callable[[str], dict] | None
    options: dict  # passed on to ``add_argument``


def _arg(*flags, role=PARAM, default=None, unless=(), needs=(), required=False, expand=None,
         **options) -> Arg:
    return Arg(flags, role, default, unless, needs, required, expand, options)


@dataclass(frozen=True)
class Command:
    handler: Callable[[RunConfig], tuple[str, dict]]
    args: tuple[Arg, ...] = ()
    provenance: dict = field(default_factory=dict)


_TOWER_ARGS = (
    _arg("-n", type=int, default=3, unless=("star", "infile")),
    _arg("-p", type=int, default=2, unless=("star", "infile")),
    _arg("--depth", type=int, default=1, unless=("star", "infile")),
    _arg("--cap", type=_count, default=2_000_000, unless=("star", "infile")),
    _arg("--in", dest="infile", role=INPUT, unless=("preset", "star")),
    _arg("--preset", expand=_tower_preset),
)
_TOWER_PROVENANCE = {"representative_rule": "entries reduced to [0, p^beta)"}
_IN = _arg("--in", dest="infile", role=INPUT, required=True)
_OUT = _arg("--out", role=OUTPUT)
_ORBIT_CAP = _arg("--orbit-cap", type=_count)

COMMANDS = {
    "tower build": Command(_h_tower_build, _TOWER_ARGS + (
        _arg("--star", type=int), _OUT, _arg("--svg", role=OUTPUT, needs=("star",)),
        _arg("--dot-dir", role=OUTPUT, unless=("star",)),
    ), _TOWER_PROVENANCE),
    "tower verify": Command(_h_tower_verify, _TOWER_ARGS, _TOWER_PROVENANCE),
    "tower orbits": Command(_h_tower_orbits, _TOWER_ARGS + (
        _arg("--vertex"), _ORBIT_CAP,
    ), _TOWER_PROVENANCE),
    "tower decorate": Command(_h_tower_decorate, _TOWER_ARGS + (
        _arg("--seed-leaf"), _ORBIT_CAP,
    ), _TOWER_PROVENANCE),
    "order search": Command(_h_order_search, (
        _arg("--preset"),
        _arg("--gens", role=INPUT, unless=("preset",), required=True),
        _arg("--radius", type=int, default=1, unless=("preset",)),
        _arg("--outer-radius", type=int, unless=("preset",)),
        _arg("--invariant", choices=("gens", "gens+inv"), default="gens+inv", unless=("preset",)),
        _arg("--budget", type=_count, default=500_000),
        _arg("--seed", type=int),
        _OUT,
    )),
    "order check": Command(_h_order_check, (
        _arg("--order", role=INPUT, required=True),
        _arg("--invariant", choices=("none", "gens", "gens+inv"), default="none"),
        _arg("--inner-radius", type=int),
    )),
    "order extract": Command(_h_order_extract, (
        _arg("--chain", role=INPUT, action="append", required=True),
        _arg("--target-radius", type=int, required=True),
        _OUT,
    )),
    "realize": Command(_h_realize, (
        _arg("--preset", choices=("realize-z-21",)),
        _arg("--order", role=INPUT, unless=("preset",), required=True),
        _arg("--enum", role=INPUT, unless=("preset",), required=True),
        _arg("--out", role=OUTPUT, help="directory for the CSV (and SVG) files"),
        _arg("--svg", role=OUTPUT, needs=("out",), action="store_true"),
    )),
    "identities hexagon": Command(_h_identities_hexagon, (
        _arg("-r", type=int, default=1),
        _arg("--embedded", nargs=4, type=int, metavar=("N", "I", "J", "L")),
    )),
    "identities ll": Command(_h_identities_ll, (
        _arg("--r-max", type=_count, default=3), _arg("--m-max", type=_count, default=5),
        _arg("--p-max", type=_count, default=5), _arg("--q-max", type=_count, default=5),
    )),
    "identities core": Command(_h_identities_core, (
        _arg("--group", choices=tuple(_CORE_GROUP_MOD), default="sl2z2"),
    )),
    "identities congruence": Command(_h_identities_congruence, (
        _arg("--level", type=int, required=True),
        _arg("--matrix", role=INPUT),
        _arg("--elementary", type=_int_triple, metavar="I,J,V", unless=("matrix",), required=True),
        _arg("-n", type=int, default=3, unless=("matrix",)),
        _arg("--scan", type=_count),
    )),
    "tree info": Command(_h_tree_info, (_IN,)),
    "tree hull": Command(_h_tree_hull, (
        _IN, _arg("--vertices", type=lambda s: s.split(","), required=True, metavar="V1,V2,..."),
    )),
    "tree fix": Command(_h_tree_fix, (
        _IN, _arg("--leaf", required=True),
        _arg("--map", dest="maps", role=INPUT, action="append", required=True),
    )),
    "presets": Command(_h_presets),
}


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="treeact")
    top = parser.add_subparsers(dest="group_cmd", required=True)
    groups: dict = {}
    for name, command in COMMANDS.items():
        group, _, sub = name.partition(" ")
        if sub and group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(dest="sub_cmd", required=True)
        sp = groups[group].add_parser(sub) if sub else top.add_parser(group)
        sp.add_argument("--report", help="also write the JSON report to this path")
        declared = {  # argparse marks the options required outright in the usage line
            sp.add_argument(*a.flags, default=None, required=a.required and not a.unless,
                            **a.options).dest: a
            for a in command.args
        }
        sp.set_defaults(command=name, declared=declared)
    return parser


def parse(argv=None) -> RunConfig:
    """Parse a command line into a ``RunConfig`` without running it.

    One rule for every option: a value that is not None counts, first the
    one the user gave, else the table's default.  It is recorded where its
    ``Arg`` says and used from there.  Usage errors exit 3 through
    ``SystemExit`` (argparse) or raise ``UsageError``.
    """
    args = build_parser().parse_args(argv)
    declared: dict[str, Arg] = args.declared
    flag = {dest: a.flags[0] for dest, a in declared.items()}
    given = {d: getattr(args, d) for d in declared if getattr(args, d) is not None}
    for dest, a in declared.items():
        if a.expand is not None and dest in given:
            for key, value in a.expand(given[dest]).items():
                if key not in declared:
                    raise UsageError(f"preset {given[dest]!r} sets {key}={value}, "
                                     f"which `{args.command}` does not take")
                if key in given:
                    raise UsageError(f"{flag[key]} conflicts with preset {given[dest]!r}")
                given[key] = value
    config = RunConfig(args.command, report_path=args.report)
    for dest, a in declared.items():
        blocker = next((u for u in a.unless if u in given), None)
        if blocker is not None:
            if dest in given:
                raise UsageError(f"{flag[dest]} does not apply with {flag[blocker]}")
            continue
        if dest in given and a.needs and not any(u in given for u in a.needs):
            raise UsageError(f"{flag[dest]} applies only with "
                             + " or ".join(flag[u] for u in a.needs))
        value = given.get(dest, a.default)
        if value is None and a.required:   # argparse enforces those with no alternative
            raise UsageError(f"{flag[dest]} is required unless "
                             f"{' or '.join(flag[u] for u in a.unless)} is given")
        if value is not None and a.expand is None:
            getattr(config, a.role)[dest] = value
    return config


def run(config: RunConfig) -> int:
    """Execute one subcommand, print its JSON report, return the exit code."""
    command = COMMANDS[config.command]
    provenance = {"package": "treeact", "version": __version__, **command.provenance}
    try:
        outcome, details = command.handler(config)
    except SearchBudgetExhausted as exc:
        outcome, details = "budget-exhausted", {"message": str(exc), **exc.progress()}
    except CapExceeded as exc:
        outcome, details = "budget-exhausted", {"message": str(exc)}
    report = {
        "command": config.command,
        "parameters": config.parameters,
        "provenance": provenance,
        "outcome": outcome,
        "details": details,
    }
    text = _dump(report)
    sys.stdout.write(text)
    if config.report_path:
        _write_text(config.report_path, text)
    return _OUTCOME_EXIT[outcome]


def main(argv=None) -> int:
    try:
        return run(parse(argv))
    except SystemExit as exc:  # argparse: --help and usage errors
        return int(exc.code or 0)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a bug, not bad input: say so and keep the traceback
        import traceback  # only here: importing it costs every run a few milliseconds

        sys.stderr.write(f"internal error: {exc!r}\n")
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
