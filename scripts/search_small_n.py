#!/usr/bin/env python3
"""Run the exhaustive search for one dimension and print a short summary.

The search is a bitset perfect-packing scan: a candidate is the identity
plus n negation pairs, and it tiles when every non-identity element is the
sum of exactly one pair of its elements.  The defaults exhaust n=5 (53130
candidates over Z_51) in about 7 ms; n=7 (two groups of order 99,
C(49, 7) candidates each) takes about 1.3 s serial and 0.8 s with
--threads 2.  Candidate counts grow as C(n^2, n) per group; the budget
guard refuses anything over the budget (10^9 by default) unless --force
is given: n=8 (C(64, 8) over Z_129) with --force takes about 4 s serial
and finds nothing (2-core x86-64, Python 3.11).

    PYTHONPATH=src python3 scripts/search_small_n.py -n 7 --threads 2
"""

import argparse
import sys
import time

from latile.search import BudgetExceededError, search_tilings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=5)
    parser.add_argument("--no-reduce", action="store_true")
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()

    kwargs = dict(
        reduce_orbits=not args.no_reduce,
        threads=args.threads,
        force=args.force,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    if args.budget is not None:
        kwargs["budget"] = args.budget

    start = time.perf_counter()
    try:
        result = search_tilings(args.n, **kwargs)
    except BudgetExceededError as exc:
        print(f"refused: {exc}")
        return 1
    elapsed = time.perf_counter() - start

    print(f"n = {result.n}, groups of order {2 * args.n ** 2 + 1}:")
    for spec, tested in zip(result.groups_examined, result.candidates_tested):
        print(f"  {spec.describe()}: {tested} candidates")
    print(f"solutions: {len(result.solutions)}")
    for sol in result.solutions:
        print(f"  {sol.spec.describe()} orbit_size={sol.orbit_size}")
        for g in sol.elements:
            print(f"    {g.residues}")
    print(f"wall time: {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
