"""Command-line entry point.

Every subcommand prints one JSON report to stdout (validating against
``schemas/report.schema.json``) and exits 0 on pass/Sat, 1 on fail/Unsat,
2 when a budget or cap ran out, and 3 on usage errors and bad input files.
Reports carry no timestamps, so identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, presets as presets_mod
from .matrices import (
    CapExceeded,
    GroupMatrix,
    MatrixError,
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
    OrderAssignment,
    OrderingError,
    SearchBudgetExhausted,
    assignment_from_json,
    assignment_to_json,
    ball_generate,
    check_axioms,
    check_invariance,
    compactness_extract,
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
    verify_all_bonds,
    verify_bond_structure,
)
from .trees import (
    TreeAutomorphism,
    TreeError,
    common_fixed_point,
    convex_hull,
    point_order,
    second_fixed_point,
    tree_from_json,
    tree_to_dot,
    validate_tree,
)

EXIT_PASS, EXIT_FAIL, EXIT_BUDGET, EXIT_USAGE = 0, 1, 2, 3

_OUTCOME_EXIT = {
    "pass": EXIT_PASS,
    "sat": EXIT_PASS,
    "fail": EXIT_FAIL,
    "unsat": EXIT_FAIL,
    "budget-exhausted": EXIT_BUDGET,
}


@dataclass
class RunConfig:
    """One validated invocation: subcommand plus its vetted parameters."""

    command: str
    parameters: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    seed: int | None = None
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


# -- tower ------------------------------------------------------------------------


def _tower_from_config(cfg: RunConfig):
    if cfg.inputs.get("infile"):
        return system_from_json(_read_json(cfg.inputs["infile"]))
    p = cfg.parameters
    return build_congruence_tower(p["n"], p["p"], p["depth"], cap=p.get("cap", 2_000_000))


def _tower_counts(sys_) -> dict:
    per_level = []
    for act in sys_.levels:
        tree = act.tree
        per_level.append(
            {"vertices": len(tree.vertices), "leaves": len(tree.leaves())}
        )
    return {"levels": per_level}


def _h_tower_build(cfg: RunConfig):
    if "star" in cfg.parameters:
        sd = star_dendrite(cfg.parameters["star"])
        if cfg.outputs.get("outfile"):
            _write_text(cfg.outputs["outfile"], _dump(star_to_json(sd)))
        if cfg.outputs.get("svg"):
            _write_text(cfg.outputs["svg"], star_to_svg(sd))
        return "pass", {"star": star_to_json(sd)}
    sys_ = _tower_from_config(cfg)
    details = _tower_counts(sys_)
    dp = degree_profile(sys_)
    details["max_degrees"] = list(dp.max_degrees)
    details["stable_degree_bound"] = dp.expected_stable
    if cfg.outputs.get("outfile"):
        _write_text(cfg.outputs["outfile"], _dump(system_to_json(sys_)))
    if cfg.outputs.get("dot_dir"):
        for k, act in enumerate(sys_.levels):
            _write_text(
                str(Path(cfg.outputs["dot_dir"]) / f"level_{k}.dot"),
                tree_to_dot(act.tree, f"level_{k}"),
            )
    return "pass", details


def _h_tower_verify(cfg: RunConfig):
    sys_ = _tower_from_config(cfg)
    reasons = []
    for k, act in enumerate(sys_.levels):
        ok = validate_tree(act.tree)
        if not ok:
            reasons.append(f"level {k}: {ok.reason}")
        try:
            act.validate()
        except TowerError as exc:
            reasons.append(f"level {k}: {exc}")
    bonds = verify_all_bonds(sys_)
    if not bonds.passed:
        reasons.append(f"equivariance violations: {len(bonds.violations)}")
    for level in range(len(sys_.bonds)):
        st = verify_bond_structure(sys_, level)
        if not st.passed:
            reasons.extend(st.reasons)
    dp = degree_profile(sys_)
    if dp.stabilized is False:
        reasons.append("degree profile did not stabilize at the expected bound")
    details = {
        "checked_equivariance_pairs": bonds.checked,
        "max_degrees": list(dp.max_degrees),
        "reasons": reasons,
    }
    return ("pass" if not reasons else "fail"), details


def _h_tower_orbits(cfg: RunConfig):
    sys_ = _tower_from_config(cfg)
    act = sys_.levels[-1]
    vertex = cfg.parameters.get("vertex")
    if vertex is None:
        leaves = act.tree.leaves()
        vertex = leaves[0] if leaves else act.tree.vertices[0]
    res = orbit(act, vertex, cfg.parameters.get("orbit_cap"))
    return "pass", {"vertex": vertex, "orbit_size": len(res), "closed": res.closed}


def _h_tower_decorate(cfg: RunConfig):
    sys_ = _tower_from_config(cfg)
    act = sys_.levels[-1]
    seed = cfg.parameters.get("seed_leaf")
    if seed is None:
        leaves = act.tree.leaves()
        seed = leaves[0] if leaves else act.tree.vertices[0]
    decorated = attach_decorations(sys_, seed)
    x = decorated.pendants[0].tip
    growth = projection_orbit_growth(sys_, decorated, x, cfg.parameters.get("orbit_cap"))
    monotone = all(a <= b for a, b in zip(growth.sizes, growth.sizes[1:]))
    details = {
        "pendants": len(decorated.pendants),
        "lengths_head": [
            f"{p.length.numerator}/{p.length.denominator}"
            for p in decorated.pendants[:3]
        ],
        "projection_vertex": x,
        "orbit_sizes": list(growth.sizes),
        "strictly_increasing": growth.strictly_increasing(),
    }
    return ("pass" if monotone else "fail"), details


# -- order ------------------------------------------------------------------------


def _search_inputs(cfg: RunConfig):
    if cfg.parameters.get("preset"):
        return presets_mod.search_instance(cfg.parameters["preset"])
    payload = _read_json(cfg.inputs["gens"])
    gens = [matrix_from_json(m) for m in payload["generators"]]
    names = tuple(payload.get("names") or (f"g{k}" for k in range(len(gens))))
    inner = ball_generate(gens, cfg.parameters["radius"], names)
    outer = ball_generate(
        gens, cfg.parameters.get("outer_radius", cfg.parameters["radius"] + 1), names
    )
    f = list(gens)
    if cfg.parameters.get("invariant", "gens+inv") == "gens+inv":
        f += [g.inverse() for g in gens]
    return f, inner, outer


def _h_order_search(cfg: RunConfig):
    f, inner, outer = _search_inputs(cfg)
    result = search_invariant(
        f, inner, outer, budget=cfg.parameters.get("budget", 500_000),
        shuffle_seed=cfg.seed,
    )
    details = {
        "ball_sizes": {"inner": len(inner), "outer": len(outer)},
        "decisions": result.decisions,
    }
    if result.is_sat:
        payload = assignment_to_json(result.witness)
        details["witness_pairs"] = len(payload["signs"])
        if cfg.outputs.get("outfile"):
            _write_text(cfg.outputs["outfile"], _dump(payload))
        details["witness"] = payload
        return "sat", details
    details["trace"] = result.trace.to_json()
    if cfg.outputs.get("outfile"):
        _write_text(cfg.outputs["outfile"], _dump(result.trace.to_json()))
    return "unsat", details


def _h_order_check(cfg: RunConfig):
    phi = assignment_from_json(_read_json(cfg.inputs["order"]))
    axioms = check_axioms(phi)
    details = {
        "antisymmetry_violations": len(axioms.antisymmetry_violations),
        "transitivity_violations": len(axioms.transitivity_violations),
    }
    ok = axioms.passed
    mode = cfg.parameters.get("invariant", "none")
    if mode != "none":
        f = list(phi.ball.generators)
        if mode == "gens+inv":
            f += [g.inverse() for g in phi.ball.generators]
        inner = ball_generate(
            phi.ball.generators,
            cfg.parameters.get("inner_radius", phi.ball.radius - 1),
            phi.ball.names,
        )
        inv = check_invariance(phi, f, inner)
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
    if cfg.outputs.get("outfile"):
        _write_text(cfg.outputs["outfile"], _dump(payload))
    return "pass", {
        "supporters": list(res.supporters),
        "target_size": len(target),
        "assignment": payload,
    }


def _realize_z_ball(radius: int):
    u = elementary(2, 1, 2, 1)
    ball = ball_generate([u], radius, ["g"])
    ascending = sorted(ball.elements, key=lambda m: m.entries[1])
    order = OrderAssignment.from_total_order(ball, ascending)
    enumeration = [GroupMatrix.identity(2)]
    for k in range(1, radius + 1):
        enumeration.append(u ** k)
        enumeration.append(u ** (-k))
    return u, ball, order, enumeration


def _h_order_from_action(cfg: RunConfig):
    preset = cfg.parameters.get("preset", "realized-z-21")
    if preset != "realized-z-21":
        raise OrderingError(f"unknown from-action preset: {preset}")
    u, ball, order, enumeration = _realize_z_ball(10)
    rm = realize(enumeration, order)
    probes = sorted(rm.t.values())
    count = cfg.parameters.get("probe_count")
    if count is not None:
        probes = probes[:count]
    recovered = order_from_realization(rm, ball, probes)
    reproduced = recovered.signs == order.signs
    details = {
        "ball_size": len(ball),
        "probes": len(probes),
        "reproduced_input_order": reproduced,
    }
    power_cap = cfg.parameters.get("power_cap")
    if power_cap:
        # bounded domination of the unit translation over the identity,
        # evaluated on the realized piecewise-linear maps
        from .ordering import QuasiOrderSample, ll_test

        map_e = generator_pl_map(rm, GroupMatrix.identity(2), ball, label="e").homeo
        map_g = generator_pl_map(rm, u, ball, label="g").homeo
        sample = QuasiOrderSample(
            probes=(0,), apply=lambda m, x: m(x), position=lambda x: x
        )
        verdict = ll_test(sample, map_e, map_g, power_cap)
        details["domination_check"] = {
            "pair": ["e", "g"],
            "holds_up_to_cap": verdict.holds,
            "cap": verdict.cap,
            "via": verdict.via,
            "failed_at": verdict.failed_at,
        }
    if cfg.outputs.get("outfile"):
        _write_text(cfg.outputs["outfile"], _dump(assignment_to_json(recovered)))
    return ("pass" if reproduced else "fail"), details


def _h_realize(cfg: RunConfig):
    if cfg.parameters.get("preset") == "realize-z-21":
        u, ball, order, enumeration = _realize_z_ball(10)
    else:
        order = assignment_from_json(_read_json(cfg.inputs["order"]))
        ball = order.ball
        enum_payload = _read_json(cfg.inputs["enum"])
        enumeration = [ball.elements[i] for i in enum_payload["indices"]]
    rm = realize(enumeration, order)
    maps = []
    for name, g in zip(ball.names, ball.generators):
        maps.append(generator_pl_map(rm, g, ball, label=name))
    report = verify_realization(rm, maps)
    free = almost_free_report(maps)
    outdir = cfg.outputs.get("outdir")
    if outdir:
        _write_text(str(Path(outdir) / "realization.csv"), realization_to_csv(rm, ball))
        for gm in maps:
            _write_text(str(Path(outdir) / f"map_{gm.word}.csv"), plhomeo_to_csv(gm))
            if cfg.outputs.get("svg"):
                _write_text(str(Path(outdir) / f"map_{gm.word}.svg"), plhomeo_to_svg(gm))
    t_items = sorted(rm.t.items(), key=lambda kv: kv[1])
    details = {
        "elements": len(rm),
        "t_min": f"{t_items[0][1].numerator}/{t_items[0][1].denominator}",
        "t_max": f"{t_items[-1][1].numerator}/{t_items[-1][1].denominator}",
        "verified": report.passed,
        "almost_free": free.almost_free,
    }
    return ("pass" if report.passed else "fail"), details


# -- identities ---------------------------------------------------------------------


def _h_identities_hexagon(cfg: RunConfig):
    r = cfg.parameters.get("r", 1)
    if cfg.parameters.get("embedded"):
        n, i, j, l = cfg.parameters["embedded"]
        gens = six_generators_embedded(n, i, j, l)
        rep = verify_hexagon_relations(gens, l)
    else:
        gens = six_generators(r)
        rep = verify_hexagon_relations(gens, r)
    details = {
        "checks": [
            {"i": c.i, "commutes": c.commutes, "power_ok": c.power_ok, "sign": c.sign}
            for c in rep.checks
        ]
    }
    return ("pass" if rep.passed else "fail"), details


def _h_identities_ll(cfg: RunConfig):
    r_max = cfg.parameters.get("r_max", 3)
    m_max = cfg.parameters.get("m_max", 5)
    p_max = cfg.parameters.get("p_max", 5)
    q_max = cfg.parameters.get("q_max", 5)
    u23 = elementary(3, 2, 3, 1)
    u13 = elementary(3, 1, 3, 1)
    cases = 0
    failures = []
    for r in range(1, r_max + 1):
        a = elementary(3, 1, 2, r)   # [a, u23] = u13^r
        for m in range(1, m_max + 1):
            for p in range(1, p_max + 1):
                for q in range(1, q_max + 1):
                    cases += 1
                    if not verify_ll_identity(a, u23, u13, r, p, q, m):
                        failures.append({"r": r, "m": m, "p": p, "q": q})
    details = {"cases": cases, "failures": failures}
    return ("pass" if not failures else "fail"), details


def _core_group(name: str):
    if name == "sl2z2":
        return enumerate_group(2, 2, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])
    if name == "sl2z3":
        return enumerate_group(2, 3, [elementary(2, 1, 2, 1), elementary(2, 2, 1, 1)])
    raise MatrixError(f"unknown group preset: {name}")


def _h_identities_core(cfg: RunConfig):
    g = _core_group(cfg.parameters.get("group", "sl2z2"))
    subs = g.all_subgroups()
    rows = []
    ok = True
    for h in subs:
        core = normal_core(g, h)
        hset = {x.entries for x in h}
        cset = {x.entries for x in core}
        normal = all(
            (x.inverse() * k * x).entries in cset for k in core for x in g.elements
        )
        contained = cset <= hset
        index = len(g) // len(h)
        fact = 1
        for i in range(2, index + 1):
            fact *= i
        divides = fact % (len(g) // len(core)) == 0
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
    if cfg.inputs.get("matrix"):
        a = matrix_from_json(_read_json(cfg.inputs["matrix"]))
    else:
        n = cfg.parameters["n"]
        i, j, v = cfg.parameters["elementary"]
        a = elementary(n, i, j, v)
    member = congruence_membership(a, k)
    levels_found = [
        lvl for lvl in range(2, max(k, cfg.parameters.get("scan", k)) + 1)
        if congruence_membership(a, lvl)
    ]
    details = {"level": k, "member": member, "levels_found_up_to_scan": levels_found}
    return ("pass" if member else "fail"), details


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


def _h_tree_hull(cfg: RunConfig):
    t = tree_from_json(_read_json(cfg.inputs["infile"]))
    hull = convex_hull(t, cfg.parameters["vertices"])
    return "pass", {"hull": sorted(hull), "size": len(hull)}


def _h_tree_fix(cfg: RunConfig):
    t = tree_from_json(_read_json(cfg.inputs["infile"]))
    autos = [
        TreeAutomorphism(_read_json(p)["mapping"]) for p in cfg.inputs["maps"]
    ]
    leaf = cfg.parameters["leaf"]
    if len(autos) == 1:
        found = second_fixed_point(t, autos[0], leaf)
    else:
        found = common_fixed_point(t, autos, leaf)
    return "pass", {"fixed_vertex": found, "leaf": leaf, "maps": len(autos)}


def _h_presets(cfg: RunConfig):
    return "pass", {"presets": presets_mod.presets()}


_HANDLERS = {
    "tower build": _h_tower_build,
    "tower verify": _h_tower_verify,
    "tower orbits": _h_tower_orbits,
    "tower decorate": _h_tower_decorate,
    "order search": _h_order_search,
    "order check": _h_order_check,
    "order extract": _h_order_extract,
    "order from-action": _h_order_from_action,
    "realize": _h_realize,
    "identities hexagon": _h_identities_hexagon,
    "identities ll": _h_identities_ll,
    "identities core": _h_identities_core,
    "identities congruence": _h_identities_congruence,
    "tree info": _h_tree_info,
    "tree hull": _h_tree_hull,
    "tree fix": _h_tree_fix,
    "presets": _h_presets,
}


def run(config: RunConfig) -> int:
    """Execute one subcommand, print its JSON report, return the exit code."""
    provenance = {"package": "treeact", "version": __version__}
    if config.command.startswith("tower"):
        provenance["representative_rule"] = "entries reduced to [0, p^beta)"
    try:
        outcome, details = _HANDLERS[config.command](config)
    except (CapExceeded, SearchBudgetExhausted) as exc:
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


def build_parser() -> _Parser:
    parser = _Parser(prog="treeact")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", help="also write the JSON report to this path")
    sub = parser.add_subparsers(dest="group_cmd", required=True)

    tower = sub.add_parser("tower").add_subparsers(dest="sub_cmd", required=True)
    for name in ("build", "verify", "orbits", "decorate"):
        tp = tower.add_parser(name, parents=[common])
        tp.add_argument("-n", type=int, default=3)
        tp.add_argument("-p", type=int, default=2)
        tp.add_argument("--depth", type=int, default=1)
        tp.add_argument("--cap", type=int, default=2_000_000)
        tp.add_argument("--in", dest="infile")
        tp.add_argument("--preset")
        if name == "build":
            tp.add_argument("--star", type=int)
            tp.add_argument("--out")
            tp.add_argument("--svg")
            tp.add_argument("--dot-dir")
        if name == "orbits":
            tp.add_argument("--vertex")
            tp.add_argument("--orbit-cap", type=int)
        if name == "decorate":
            tp.add_argument("--seed-leaf")
            tp.add_argument("--orbit-cap", type=int)

    order = sub.add_parser("order").add_subparsers(dest="sub_cmd", required=True)
    op = order.add_parser("search", parents=[common])
    op.add_argument("--preset")
    op.add_argument("--gens")
    op.add_argument("--radius", type=int, default=1)
    op.add_argument("--outer-radius", type=int)
    op.add_argument("--invariant", choices=("gens", "gens+inv"), default="gens+inv")
    op.add_argument("--budget", type=int, default=500_000)
    op.add_argument("--seed", type=int)
    op.add_argument("--out")
    oc = order.add_parser("check", parents=[common])
    oc.add_argument("--order", required=True)
    oc.add_argument("--invariant", choices=("none", "gens", "gens+inv"), default="none")
    oc.add_argument("--inner-radius", type=int)
    oe = order.add_parser("extract", parents=[common])
    oe.add_argument("--chain", action="append", required=True)
    oe.add_argument("--target-radius", type=int, required=True)
    oe.add_argument("--out")
    of = order.add_parser("from-action", parents=[common])
    of.add_argument("--preset", default="realized-z-21")
    of.add_argument("--probe-count", type=int)
    of.add_argument("--power-cap", type=int)
    of.add_argument("--out")

    rp = sub.add_parser("realize", parents=[common])
    rp.add_argument("--preset")
    rp.add_argument("--order")
    rp.add_argument("--enum")
    rp.add_argument("--out", dest="outdir")
    rp.add_argument("--svg", action="store_true")

    ident = sub.add_parser("identities").add_subparsers(dest="sub_cmd", required=True)
    ih = ident.add_parser("hexagon", parents=[common])
    ih.add_argument("-r", type=int, default=1)
    ih.add_argument("--embedded", nargs=4, type=int, metavar=("N", "I", "J", "L"))
    il = ident.add_parser("ll", parents=[common])
    il.add_argument("--r-max", type=int, default=3)
    il.add_argument("--m-max", type=int, default=5)
    il.add_argument("--p-max", type=int, default=5)
    il.add_argument("--q-max", type=int, default=5)
    ic = ident.add_parser("core", parents=[common])
    ic.add_argument("--group", choices=("sl2z2", "sl2z3"), default="sl2z2")
    ig = ident.add_parser("congruence", parents=[common])
    ig.add_argument("--level", type=int, required=True)
    ig.add_argument("-n", type=int, default=3)
    ig.add_argument("--elementary", help="i,j,v")
    ig.add_argument("--matrix")
    ig.add_argument("--scan", type=int)

    tree = sub.add_parser("tree").add_subparsers(dest="sub_cmd", required=True)
    ti = tree.add_parser("info", parents=[common])
    ti.add_argument("--in", dest="infile", required=True)
    th = tree.add_parser("hull", parents=[common])
    th.add_argument("--in", dest="infile", required=True)
    th.add_argument("--vertices", required=True, help="comma-separated vertex ids")
    tf = tree.add_parser("fix", parents=[common])
    tf.add_argument("--in", dest="infile", required=True)
    tf.add_argument("--leaf", required=True)
    tf.add_argument("--map", action="append", required=True, dest="maps")

    sub.add_parser("presets", parents=[common])
    return parser


def _to_config(args: argparse.Namespace) -> RunConfig:
    command = args.group_cmd
    if getattr(args, "sub_cmd", None):
        command = f"{args.group_cmd} {args.sub_cmd}"
    params: dict = {}
    inputs: dict = {}
    outputs: dict = {}

    if args.group_cmd == "tower":
        preset = getattr(args, "preset", None)
        if preset:
            cat = presets_mod.PRESETS
            if preset not in cat:
                raise TowerError(f"unknown preset: {preset}")
            pp = cat[preset]["params"]
            if "count" in pp:
                params["star"] = pp["count"]
            else:
                params.update({k: pp[k] for k in ("n", "p", "depth")})
        else:
            params.update({"n": args.n, "p": args.p, "depth": args.depth})
        if getattr(args, "star", None):
            params = {"star": args.star}
        params.setdefault("cap", args.cap)
        if getattr(args, "orbit_cap", None):
            params["orbit_cap"] = args.orbit_cap
        if getattr(args, "vertex", None):
            params["vertex"] = args.vertex
        if getattr(args, "seed_leaf", None):
            params["seed_leaf"] = args.seed_leaf
        if getattr(args, "infile", None):
            inputs["infile"] = args.infile
        for key in ("out", "svg", "dot_dir"):
            if getattr(args, key, None):
                outputs[{"out": "outfile", "svg": "svg", "dot_dir": "dot_dir"}[key]] = getattr(args, key)
        if "star" in params:
            params.pop("cap", None)
    elif command == "order search":
        if args.preset:
            params["preset"] = args.preset
        elif args.gens:
            inputs["gens"] = args.gens
            params["radius"] = args.radius
            if args.outer_radius:
                params["outer_radius"] = args.outer_radius
            params["invariant"] = args.invariant
        else:
            raise OrderingError("either --preset or --gens is required")
        params["budget"] = args.budget
        if args.out:
            outputs["outfile"] = args.out
    elif command == "order check":
        inputs["order"] = args.order
        params["invariant"] = args.invariant
        if args.inner_radius is not None:
            params["inner_radius"] = args.inner_radius
    elif command == "order extract":
        inputs["chain"] = args.chain
        params["target_radius"] = args.target_radius
        if args.out:
            outputs["outfile"] = args.out
    elif command == "order from-action":
        params["preset"] = args.preset
        if args.probe_count is not None:
            params["probe_count"] = args.probe_count
        if args.power_cap is not None:
            params["power_cap"] = args.power_cap
        if args.out:
            outputs["outfile"] = args.out
    elif command == "realize":
        if args.preset:
            params["preset"] = args.preset
        else:
            if not (args.order and args.enum):
                raise RealizeError("either --preset or --order and --enum are required")
            inputs["order"] = args.order
            inputs["enum"] = args.enum
        if args.outdir:
            outputs["outdir"] = args.outdir
        if args.svg:
            outputs["svg"] = True
    elif command == "identities hexagon":
        params["r"] = args.r
        if args.embedded:
            params["embedded"] = tuple(args.embedded)
    elif command == "identities ll":
        params.update(
            {"r_max": args.r_max, "m_max": args.m_max,
             "p_max": args.p_max, "q_max": args.q_max}
        )
    elif command == "identities core":
        params["group"] = args.group
    elif command == "identities congruence":
        params["level"] = args.level
        if args.matrix:
            inputs["matrix"] = args.matrix
        elif args.elementary:
            i, j, v = (int(x) for x in args.elementary.split(","))
            params["n"] = args.n
            params["elementary"] = (i, j, v)
        else:
            raise MatrixError("either --matrix or --elementary is required")
        if args.scan:
            params["scan"] = args.scan
    elif command == "tree info":
        inputs["infile"] = args.infile
    elif command == "tree hull":
        inputs["infile"] = args.infile
        params["vertices"] = args.vertices.split(",")
    elif command == "tree fix":
        inputs["infile"] = args.infile
        params["leaf"] = args.leaf
        inputs["maps"] = args.maps

    return RunConfig(
        command=command,
        parameters=params,
        inputs=inputs,
        outputs=outputs,
        seed=getattr(args, "seed", None),
        report_path=args.report,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _to_config(args)
        return run(config)
    except (CapExceeded, SearchBudgetExhausted) as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (TreeError, TowerError, MatrixError, OrderingError, RealizeError,
            OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
