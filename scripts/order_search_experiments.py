#!/usr/bin/env python3
"""Invariant-order searches across the preset instances, plus one open
experiment: does a ball of hexagon generators already force Unsat?

The torsion presets come back Unsat (with the forcing chain length shown);
the orderable ones come back Sat with verified witnesses.  The hexagon-ball
experiment stays Sat at the radii a desk search can reach -- whether some
radius forces a finite Unsat certificate is exactly what this script leaves
open.  Budget exhaustion is reported as such, never conflated with Unsat.
"""

import argparse
import sys
import time

from treeact.matrices import six_generators
from treeact.ordering import (
    SearchBudgetExhausted,
    ball_generate,
    check_axioms,
    check_invariance,
    search_invariant,
)
from treeact.presets import SEARCH_PRESETS, search_instance


def progress(exc):
    """How far a search got before its budget ran out."""
    return (f"(branches {exc.branches}, depth {exc.depth}, "
            f"classes {exc.classes_assigned}/{exc.classes}, steps {exc.propagation_steps})")


def run_preset(name, budget):
    f, inner, outer = search_instance(name)
    start = time.monotonic()
    try:
        res = search_invariant(f, inner, outer, budget=budget)
    except SearchBudgetExhausted as exc:
        print(f"{name:<22} balls {len(inner):>3}/{len(outer):>4}  "
              f"budget-exhausted {progress(exc)}")
        return True
    elapsed = time.monotonic() - start
    verified = True
    if res.is_sat:
        verified = (check_axioms(res.witness).passed
                    and check_invariance(res.witness, f, inner).passed)
        extra = "(witness re-verified)" if verified else "(WITNESS FAILED RE-VERIFICATION)"
    else:
        extra = f"(branches {res.trace.branches}, chain {len(res.trace.forcing_chain)})"
    print(f"{name:<22} balls {len(inner):>3}/{len(outer):>4}  "
          f"{res.status:<6} {elapsed:6.2f}s {extra}")
    return verified


def hexagon_experiment(radius, budget):
    gens = six_generators(1)
    names = [f"a{k}" for k in range(1, 7)]
    inner = ball_generate(gens, radius, names, cap=500_000)
    outer = ball_generate(gens, radius + 1, names, cap=500_000)
    start = time.monotonic()
    try:
        res = search_invariant(gens, inner, outer, budget=budget)
        verdict = res.status
    except SearchBudgetExhausted as exc:
        verdict = f"budget-exhausted {progress(exc)}"
    print(f"hexagon-ball r={radius}      balls {len(inner):>3}/{len(outer):>4}  "
          f"{verdict:<6} {time.monotonic() - start:6.2f}s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=300_000)
    ap.add_argument("--hexagon-radius", type=int, default=1)
    args = ap.parse_args()

    # every preset runs, even after a witness fails its re-verification
    verified = [run_preset(name, args.budget) for name in sorted(SEARCH_PRESETS)]
    hexagon_experiment(args.hexagon_radius, args.budget)
    return 0 if all(verified) else 1


if __name__ == "__main__":
    sys.exit(main())
