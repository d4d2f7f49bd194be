#!/usr/bin/env python3
"""Sign table for the hexagon relations across parameters and embeddings.

For each family the six cyclic checks are [a_i, a_{i+1}] = e and
[a_{i-1}, a_{i+1}] = a_i^(+-r); the table prints the realized sign pattern,
which alternates -,+ around the hexagon for every family tested.
"""

import argparse
import sys

from treeact.matrices import (
    six_generators,
    six_generators_embedded,
    verify_hexagon_relations,
)


def describe(label, gens, r):
    rep = verify_hexagon_relations(gens, r)
    signs = "".join("+" if c.sign == 1 else "-" if c.sign == -1 else "?" for c in rep.checks)
    status = "pass" if rep.passed else f"FAIL at {rep.failures()}"
    print(f"{label:<28} signs {signs}  {status}")
    return rep.passed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-max", type=int, default=4)
    ap.add_argument("--n-max", type=int, default=6)
    args = ap.parse_args()

    ok = True
    for r in range(1, args.r_max + 1):
        ok &= describe(f"base r={r}", six_generators(r), r)
    for n in range(3, args.n_max + 1):
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                for l in (1, 2, 3):
                    ok &= describe(
                        f"embedded n={n} i={i} j={j} l={l}",
                        six_generators_embedded(n, i, j, l),
                        l,
                    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
