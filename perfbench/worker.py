"""One pass of one workload in a fresh interpreter.

Imports treeact from the checkout's ``src``, makes the workload's inputs
from the seed, runs every job once (traced or not), checks each output and
prints one JSON object on stdout.  A ``speed.SpeedProbe`` samples the CPU's
speed throughout, so that set-up and job times can also be given in
reference seconds.  ``run.py`` starts this file; it is not
meant to be run by hand.

Exit codes: 0 with a result, 3 when treeact cannot be imported from the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]   # run.py starts workers with -I

from speed import SpeedProbe  # noqa: E402


def _import_treeact():
    try:
        import treeact
    except ImportError as exc:
        sys.stderr.write(f"cannot import treeact from {SRC}: {exc}\n")
        raise SystemExit(3)
    if Path(treeact.__file__).resolve().parent != SRC / "treeact":
        sys.stderr.write(f"treeact imported from {treeact.__file__}, not from {SRC}\n")
        raise SystemExit(3)


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_treeact()
    import jobs
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()   # before set-up, so input generation is traced too
        span = tracer.span
    else:
        span = lambda _name: contextlib.nullcontext()
    workload = jobs.WORKLOADS[args.workload](args.seed, span)
    setup_end = time.perf_counter()
    result = {"setup_end": setup_end, "setup_factor": probe.factor(0, probe.mark()),
              "input_counters": workload.input_counters}
    if args.setup_only:
        probe.stop()
        print(json.dumps(result))
        return 0

    wall = wall_ref = 0.0
    records = []
    for job in workload.jobs:
        job_scope = tracer.job_span(job.name) if tracer else contextlib.nullcontext()
        mark = probe.mark()
        start = time.perf_counter()
        try:
            with job_scope:
                out = job.run()
        except Exception:   # a job that raises is counted as failed
            out = None
            counters, digest, problems = {}, None, [traceback.format_exc(limit=3)]
        elapsed = time.perf_counter() - start
        wall += elapsed
        wall_ref += elapsed * probe.factor(mark, probe.mark())
        if out is not None:
            try:
                counters, digest, problems = job.check(out)
            except Exception:
                counters, digest, problems = {}, None, [traceback.format_exc(limit=3)]
            del out
        records.append({"job": job.name, "seconds": elapsed, "counters": counters,
                        "digest": digest, "problems": problems})
    probe.stop()
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["call_counts"] = dict(tracer.counts)
    result["wall_s"] = wall
    result["wall_ref_s"] = wall_ref
    result["jobs"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
