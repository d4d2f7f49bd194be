#!/usr/bin/env python3
"""Census of small congruence towers: counts, branching, degree profiles.

Builds the coset tree for each requested (n, p, depth), checks the vertex
counts against the closed-form quotient orders, and prints one table row per
tower.  A row is consistent only if the tower also passes ``verify_tower``,
the check ``treeact tower verify`` reports: every level is a tree acted on by
automorphisms, every bond is equivariant, surjective, monotone and the
identity below, and the degree profile stabilizes.  Everything is exact; a
row that disagrees with the formula would be a bug, not noise.
"""

import argparse
import sys
import time

from treeact.matrices import sl_order
from treeact.tower import build_congruence_tower, verify_tower


def census_row(n, p, depth, cap):
    start = time.monotonic()
    sys_ = build_congruence_tower(n, p, depth, cap=cap)
    build_s = time.monotonic() - start
    top = sys_.levels[-1].tree
    leaves = len(top.leaves()) if len(top.vertices) > 1 else 1
    expected_leaves = sl_order(n, p, depth)
    expected_vertices = sum(sl_order(n, p, b) for b in range(depth + 1))
    rep = verify_tower(sys_)
    return {
        "n": n, "p": p, "depth": depth,
        "vertices": len(top.vertices),
        "leaves": leaves,
        "expected_leaves": expected_leaves,
        "max_degrees": rep.degrees.max_degrees,
        "equivariant": rep.bonds.passed,
        "seconds": build_s,
        "ok": (leaves == expected_leaves and len(top.vertices) == expected_vertices
               and not rep.reasons),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-depth", type=int, default=2)
    ap.add_argument("--cap", type=int, default=2_000_000)
    args = ap.parse_args()

    plans = []
    for n, p in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for depth in range(args.max_depth + 1):
            if sl_order(n, p, depth) <= args.cap:
                plans.append((n, p, depth))

    print(f"{'n':>2} {'p':>2} {'depth':>5} {'vertices':>9} {'leaves':>8} "
          f"{'formula':>8} {'degrees':>16} {'equivariant':>11} {'s':>6}")
    all_ok = True
    for n, p, depth in plans:
        row = census_row(n, p, depth, args.cap)
        all_ok = all_ok and row["ok"]
        print(f"{row['n']:>2} {row['p']:>2} {row['depth']:>5} "
              f"{row['vertices']:>9} {row['leaves']:>8} "
              f"{row['expected_leaves']:>8} {str(row['max_degrees']):>16} "
              f"{str(row['equivariant']):>11} {row['seconds']:>6.2f}")
    print("census:", "all rows consistent" if all_ok else "INCONSISTENT ROWS")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
