#!/usr/bin/env python3
"""Search the fours group for a subset whose square has no unique product.

A command-line front end to `groupeq.up.search_nonup_witness` and
`groupeq.up.anneal_nonup_witness`.  Each strategy covers one family:
  exhaustive  the symmetric sets S = S^-1: one depth-first pass over those
              of every size up to --max-size, outermost BFS layer first
              and, within a layer, the atoms forming the rarest products
              first, complete in the ball (3,744 nodes visited at radius
              3); the first witness by size, then in sort-key order, is the
              answer, whatever order the pass visits in.  The pass settles
              every size together, so a --budget-ms deadline that passes
              during it reports every size truncated and 0 subsets tested
  anneal      arbitrary subsets of --max-size elements: simulated
              annealing with a fixed seed, which needs --no-symmetric
A strategy and its family must agree: an exhaustive run with
--no-symmetric, or an anneal without it, is a usage error.  Bad input,
such as a negative --radius or --max-size or a size the ball cannot fill,
exits 2 with the library's message; exit 1 means no witness was found.

The exhaustive symmetric run at radius 3 proves there is no symmetric
witness of size <= 14 in that ball.  So does the run at radius 4 (83
elements, 33,199,094 subsets, about 0.4 s per process on a 2-vCPU
machine); one run at radius 5 proved the same over 2,002,156,838 subsets
in 55 s.  Witnesses do exist asymmetrically at radius 4: seed 17 finds a
verified 14-element set (two translations, six elements in each of two
reflection cosets) after 76 restarts, via

  python3 scripts/search_fours_witness.py --radius 4 --strategy anneal --no-symmetric
"""

import argparse
import sys
import time

from groupeq.backends import FoursGroup
from groupeq.config import DEFAULT_CAPS
from groupeq.errors import GroupEqError
from groupeq.up import anneal_nonup_witness, search_nonup_witness, up_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=int, default=3)
    ap.add_argument("--max-size", type=int, default=14)
    ap.add_argument("--strategy", choices=("exhaustive", "anneal"), default="exhaustive")
    ap.add_argument("--budget-ms", type=int, default=DEFAULT_CAPS.budget_ms)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--with-ab-generator", action="store_true",
                    help="add the product of the two generators to the ball alphabet")
    ap.add_argument("--no-symmetric", action="store_true",
                    help="search arbitrary subsets, not S = S^-1: the anneal's family")
    args = ap.parse_args()
    if args.strategy == "exhaustive" and args.no_symmetric:
        ap.error("the exhaustive search covers symmetric sets only; "
                 "--no-symmetric needs --strategy anneal")
    if args.strategy == "anneal" and not args.no_symmetric:
        ap.error("the anneal covers arbitrary subsets only; "
                 "--strategy anneal needs --no-symmetric")

    group = FoursGroup()
    gens = None
    if args.with_ab_generator:
        a, b = group.generators()
        gens = [a, b, a * b]
    start = time.monotonic()
    try:
        if args.strategy == "exhaustive":
            caps = DEFAULT_CAPS.with_overrides(budget_ms=args.budget_ms, radius=args.radius)
            res = search_nonup_witness(group, args.radius, args.max_size, gens=gens, caps=caps)
            print(f"tested {res.subsets_tested} symmetric subsets in {time.monotonic()-start:.3f}s")
            print(f"sizes exhausted: {list(res.sizes_exhausted)}  truncated: {list(res.sizes_truncated)}")
        else:
            caps = DEFAULT_CAPS.with_overrides(budget_ms=args.budget_ms, radius=args.radius)
            res = anneal_nonup_witness(group, args.radius, args.max_size, args.seed, gens=gens, caps=caps)
            print(f"ball({args.radius}): {res.ball_size} elements, {res.ball_size} atoms, asymmetric mode")
            print(f"{res.restarts} restarts in {time.monotonic()-start:.1f}s; "
                  f"best unique-count {res.best_unique_count}")
    except (ValueError, GroupEqError) as exc:
        ap.error(str(exc))

    witness = res.witness
    if witness is None:
        print("no witness found within the caps (honest exhaustion or budget)")
        return 1
    print(f"witness of size {len(witness)}:")
    for w in sorted(str(x) for x in witness):
        print(f"  {w}")
    ok = res.verified and up_check(witness, witness).unique_count == 0
    print(f"re-verified by census and naive recount: {ok}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
