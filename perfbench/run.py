#!/usr/bin/env python3
"""treeact's benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 36 --trace 0

Workloads (see RATIONALE.md for why each was chosen): ``tower``,
``search`` and ``realize-identities``.  Every pass of a workload runs in a
fresh single-threaded interpreter (``worker.py``), the way a user runs the
``treeact`` command.  Passes repeat until the next one would overrun
``--seconds``.

With ``--trace 0`` (at least ``MIN_PASSES`` passes) the last stdout line
reports the end-to-end metrics:

- ``wall_s``: median per pass of the time from inputs ready to the last
  output, not counting this benchmark's own output checks;
- ``setup_s``: median, over every interpreter the run starts (set-up-only
  ones included), of the time from interpreter start through
  ``import treeact`` and input generation;
- ``peak_rss_mb``: median ``ru_maxrss`` of a pass's process.

Both times are in reference seconds (``speed.py``); the raw seconds, the
per-job times, the exact work counters, ``ops_attempted`` and
``failed_frac`` are printed on the lines before.

With ``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics: the self time of each layer's spans, the
exact counters, ``tracing_overhead_s`` and ``trace.coverage``.  The spans
are written to ``perfbench/runs/``.

A run whose passes disagree with each other (counters or output digests),
or whose outputs disagree with the expected values, reports
``"correct": false``.  The run exits non-zero without a result when treeact
cannot be imported from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of jobs.WORKLOADS; this process does not import treeact
WORKLOADS = ("tower", "search", "realize-identities")
SETUP_SAMPLES_FIRST = 8
SETUP_SAMPLES_BETWEEN = 3
# untraced passes per run, at the least: a single pass leaves one slow
# spell nothing to be averaged against (traced runs have no bounds)
MIN_PASSES = 2
DEADLINE_S = 170   # a run must end within 180 s

sys.path.insert(0, str(HERE))
from tracing import inclusive_times, layer_coverage, self_times  # noqa: E402

SELF_TIME_LAYERS = (
    "matrices.enumerate_group", "matrices.identities", "matrices.subgroups",
    "trees.validate", "trees.first_point_map",
    "tower.build", "tower.verify_bonds", "tower.bond_structure",
    "tower.decorate", "tower.orbit", "tower.serialize",
    "ordering.ball_generate", "ordering.search",
    "ordering.check_axioms", "ordering.check_invariance",
    "realize.realize", "realize.pl_maps", "realize.verify",
    "realize.fixed_sets", "realize.round_trip",
)
COUNTERS = (
    "matrices.enumerate_group.elements", "matrices.identity_cases",
    "matrices.subgroups", "trees.first_point_map.calls",
    "tower.vertices", "tower.generator_images", "tower.equivariance_pairs",
    "tower.pendants", "tower.orbit_vertices", "tower.serialize.bytes",
    "ordering.ball_elements", "ordering.decisions", "ordering.sat",
    "ordering.unsat", "realize.points", "realize.max_denominator_bits",
    "realize.breakpoints",
)
MAX_COUNTERS = {"realize.max_denominator_bits"}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def spawn(workload: str, seed: int, deadline: float, trace=False, setup_only=False):
    """Run one worker interpreter and return its result, with its set-up
    time (from before the interpreter starts) added in seconds and in
    reference seconds."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["setup_end"] - started
    result["setup_ref_s"] = result["setup_raw_s"] * result["setup_factor"]
    return result


def job_counters(result: dict) -> dict:
    totals = dict(result["input_counters"])
    for rec in result["jobs"]:
        for key, value in rec["counters"].items():
            if key in MAX_COUNTERS:
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    return totals


def fingerprint(result: dict) -> tuple:
    """What must repeat exactly across passes with one seed."""
    digests = tuple((rec["job"], rec["digest"]) for rec in result["jobs"])
    return digests, tuple(sorted(job_counters(result).items()))


def measure(args) -> dict:
    """Spawn passes until the next would overrun ``--seconds``.  Set-up-only
    interpreters run before and between the passes, so that ``setup_s``
    samples the whole run and not one moment of it."""
    deadline = time.perf_counter() + DEADLINE_S
    plain, traced, workers = [], [], []

    def run(**kwargs):
        result = spawn(args.workload, args.seed, deadline, **kwargs)
        workers.append(result)
        return result

    for _ in range(SETUP_SAMPLES_FIRST):
        run(setup_only=True)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run())
        if args.trace:
            traced.append(run(trace=True))
        for _ in range(SETUP_SAMPLES_BETWEEN):
            run(setup_only=True)
        step = time.perf_counter() - t0
        enough = len(plain) >= (1 if args.trace else MIN_PASSES)
        if enough and time.perf_counter() - start + step > args.seconds:
            break
    return {"workers": workers, "plain": plain, "traced": traced}


def per_layer(plain: list, traced: list, counters: dict) -> dict:
    # span times are raw seconds: scale each traced pass by its speed factor
    factors = [r["wall_ref_s"] / r["wall_s"] for r in traced]
    selfs = [self_times(r["spans"]) for r in traced]
    metrics = {}
    for layer in SELF_TIME_LAYERS:
        value = statistics.median(s.get(layer, 0.0) * f for s, f in zip(selfs, factors))
        metrics[f"{layer}.self_s"] = {"value": value, "unit": "s"}
    for name in COUNTERS:
        metrics[name] = {"value": counters.get(name, 0), "unit": "count"}
    search_s = statistics.median(
        inclusive_times(r["spans"]).get("ordering.search", 0.0) * f
        for r, f in zip(traced, factors))
    metrics["ordering.decisions_per_s"] = {
        "value": counters.get("ordering.decisions", 0) / search_s if search_s else 0.0,
        "unit": "1/s"}
    metrics["tracing_overhead_s"] = {
        "value": statistics.median(r["wall_ref_s"] for r in traced)
        - statistics.median(r["wall_ref_s"] for r in plain),
        "unit": "s"}
    metrics["trace.coverage"] = {
        "value": statistics.median(layer_coverage(r["spans"]) for r in traced),
        "unit": "ratio"}
    return metrics


def write_spans(args, traced: list) -> None:
    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                                "passes": [r["spans"] for r in traced]}))
    print(f"spans written to {path.relative_to(ROOT)}")


def summarize(args, runs: dict) -> dict:
    """Print the human-readable report; return the result object."""
    plain, traced = runs["plain"], runs["traced"]
    everything = plain + traced
    attempted = sum(len(r["jobs"]) for r in everything)
    failed = sum(1 for r in everything for rec in r["jobs"] if rec["problems"])
    for r in everything:
        for rec in r["jobs"]:
            for problem in rec["problems"]:
                print(f"FAILED {rec['job']}: {problem}")
    consistent = len({fingerprint(r) for r in everything}) == 1
    if traced:
        consistent &= len({tuple(sorted(r["call_counts"].items())) for r in traced}) == 1
    if not consistent:
        print("INCONSISTENT: passes with one seed gave different counters or outputs")
    counters = job_counters(plain[0])
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes")
    print(f"ops_attempted {attempted} failed {failed} failed_frac {failed / attempted}")
    print("wall_s per pass, seconds: " + " ".join(f"{r['wall_s']:.4f}" for r in plain))
    print("wall_s per pass, reference seconds: "
          + " ".join(f"{r['wall_ref_s']:.4f}" for r in plain))
    print("setup_s median, seconds: "
          f"{statistics.median(r['setup_raw_s'] for r in runs['workers']):.4f}")
    for k, rec in enumerate(plain[0]["jobs"]):
        seconds = statistics.median(r["jobs"][k]["seconds"] for r in plain)
        print(f"  job {rec['job']}: median {seconds:.4f} s")
    print("counters " + json.dumps(counters, sort_keys=True))
    result = {"correct": failed == 0 and consistent, "attempted": attempted,
              "failed": failed}
    if traced:
        counters.update(traced[0]["call_counts"])
        result["metrics"] = per_layer(plain, traced, counters)
        write_spans(args, traced)
    else:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(r["wall_ref_s"] for r in plain),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_ref_s"] for r in runs["workers"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "treeact" / "__init__.py").is_file():
        sys.stderr.write(f"no treeact sources under {ROOT / 'src'}\n")
        return 2
    try:
        runs = measure(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    result = summarize(args, runs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
