#!/usr/bin/env python3
"""Realize the naturally ordered cyclic ball under scrambled enumerations.

The standard enumeration places the ball on the integers; scrambled
enumerations produce dyadic t-values instead, but every realization stays
order-isomorphic, equivariant, almost free, and round-trips back to the
input order through the probe comparison.  Writes CSV (and optional SVG)
per generator into --out.
"""

import argparse
import random
import sys
from pathlib import Path

from treeact.presets import realize_instance
from treeact.realize import (
    almost_free_report,
    generator_pl_map,
    order_from_realization,
    plhomeo_to_csv,
    plhomeo_to_svg,
    realization_to_csv,
    realize,
    verify_realization,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=int, default=6)
    ap.add_argument("--scrambles", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--svg", action="store_true")
    args = ap.parse_args()

    ball, order, standard = realize_instance(args.radius)
    u = ball.generators[0]
    enumerations = {"standard": standard}
    rng = random.Random(args.seed)
    for s in range(args.scrambles):
        elems = list(ball.elements)
        rng.shuffle(elems)
        enumerations[f"scramble{s}"] = elems

    for label, enumeration in enumerations.items():
        rm = realize(enumeration, order)
        denoms = sorted({v.denominator for v in rm.t.values()})
        maps = []
        for g in ball.elements:
            if g == u ** (2 * args.radius):
                continue  # empty realizable sub-ball at the far corner
            maps.append(generator_pl_map(rm, g, ball, label=str(g.entries[1])))
        ver = verify_realization(rm, maps)
        free = almost_free_report(maps)
        back = order_from_realization(rm, ball)
        round_trip = back.rank == order.rank
        print(f"{label:<10} denominators {denoms}  verified={ver.passed}  "
              f"almost_free={free.almost_free}  round_trip={round_trip}")
        if args.out:
            d = args.out / label
            d.mkdir(parents=True, exist_ok=True)
            (d / "realization.csv").write_text(realization_to_csv(rm, ball))
            for gm in maps:
                (d / f"map_{gm.word}.csv").write_text(plhomeo_to_csv(gm))
                if args.svg:
                    (d / f"map_{gm.word}.svg").write_text(plhomeo_to_svg(gm))
    return 0


if __name__ == "__main__":
    sys.exit(main())
