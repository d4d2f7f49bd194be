#!/usr/bin/env python3
"""Census of small congruence towers: counts, branching, degree profiles.

Builds the coset tree for each requested (n, p, depth), checks the vertex
counts against the closed-form quotient orders, and prints one table row per
tower.  A row is consistent only if it also passes what ``treeact tower
verify`` checks: every level is a tree acted on by automorphisms, every bond
is equivariant, surjective, monotone and the identity below, and the degree
profile stabilizes.  Everything is exact; a row that disagrees with the
formula would be a bug, not noise.
"""

import argparse
import sys
import time

from treeact.matrices import sl_order
from treeact.tower import (
    TowerError,
    build_congruence_tower,
    degree_profile,
    verify_all_bonds,
    verify_bond_structure,
)


def levels_valid(sys_):
    try:
        for act in sys_.levels:
            act.validate()
    except TowerError:
        return False
    return True


def census_row(n, p, depth, cap):
    start = time.monotonic()
    sys_ = build_congruence_tower(n, p, depth, cap=cap)
    build_s = time.monotonic() - start
    top = sys_.levels[-1].tree
    leaves = len(top.leaves()) if len(top.vertices) > 1 else 1
    expected_leaves = sl_order(n, p, depth)
    expected_vertices = sum(sl_order(n, p, b) for b in range(depth + 1))
    bonds = verify_all_bonds(sys_)
    structure = all(verify_bond_structure(sys_, a).passed for a in range(len(sys_.bonds)))
    dp = degree_profile(sys_)
    ok = (
        leaves == expected_leaves
        and len(top.vertices) == expected_vertices
        and levels_valid(sys_)
        and bonds.passed
        and structure
        and dp.stabilized in (True, None)
    )
    return {
        "n": n, "p": p, "depth": depth,
        "vertices": len(top.vertices),
        "leaves": leaves,
        "expected_leaves": expected_leaves,
        "max_degrees": dp.max_degrees,
        "equivariant": bonds.passed,
        "seconds": build_s,
        "ok": ok,
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
