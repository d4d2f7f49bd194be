#!/usr/bin/env python3
"""Self-test of the benchmark: exact counters and outputs must repeat.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload this runs two untraced and two traced passes with one
seed, each in a fresh interpreter, and fails (exit 1) when any pass
fails an output check, when two passes give different counters or output
digests (traced against untraced included), or when the two traced passes
count different calls.  It takes about two minutes for all workloads.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import DEADLINE_S, WORKLOADS, BenchError, fingerprint, spawn


def check(workload: str, seed: int) -> list[str]:
    deadline = time.perf_counter() + DEADLINE_S
    passes = [
        (trace, spawn(workload, seed, deadline, trace=trace))
        for trace in (False, True, False, True)
    ]
    errors = [
        f"{rec['job']}: {problem}"
        for _trace, result in passes
        for rec in result["jobs"]
        for problem in rec["problems"]
    ]
    first = fingerprint(passes[0][1])
    for k, (trace, result) in enumerate(passes[1:], start=1):
        if fingerprint(result) != first:
            kind = "traced" if trace else "untraced"
            errors.append(f"pass {k} ({kind}) differs from pass 0 (untraced)")
    if passes[1][1]["call_counts"] != passes[3][1]["call_counts"]:
        errors.append("the traced passes counted different calls")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    failed = False
    for workload in args.workload or WORKLOADS:
        try:
            errors = check(workload, args.seed)
        except BenchError as exc:
            errors = [str(exc)]
        for error in errors:
            print(f"{workload}: {error}")
        print(f"{workload}: {'FAIL' if errors else 'ok'}")
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
