#!/usr/bin/env python3
"""Tabulate the certificate verdict for a range of dimensions.

For each n the script builds the certificate and prints its conclusion.
Useful for spotting which dimensions the modular criterion leaves open
(INAPPLICABLE rows have no prime factor above 2n+1; INCONCLUSIVE rows have
one that fails to decide).
The summary line adds the open fraction, (INAPPLICABLE + INCONCLUSIVE) over
all n in the range, and the run's seconds.
"""

import argparse
import sys
import time

from latile.certify import INFINITE, certify_nonexistence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--start", type=int, default=3)
    parser.add_argument("--stop", type=int, default=60, help="inclusive")
    args = parser.parse_args()
    if args.start < 3 or args.stop < args.start:
        parser.error("need 3 <= start <= stop")

    # wide enough for n <= 10^5, where 2n^2+1, p, a and b reach 11 digits
    header = f"{'n':>6} {'2n^2+1':>11} {'p':>11} {'a':>11} {'b':>11}  conclusion"
    print(header)
    print("-" * len(header))
    counts = {"NONEXISTENCE": 0, "INCONCLUSIVE": 0, "INAPPLICABLE": 0}
    started = time.perf_counter()
    for n in range(args.start, args.stop + 1):
        order = 2 * n * n + 1
        cert = certify_nonexistence(n)
        if cert is None:
            counts["INAPPLICABLE"] += 1
            print(f"{n:>6} {order:>11} {'-':>11} {'-':>11} {'-':>11}  INAPPLICABLE")
            continue
        counts[cert.conclusion] += 1
        a_str = "inf" if cert.a == INFINITE else str(cert.a)
        print(
            f"{n:>6} {order:>11} {cert.p:>11} {a_str:>11} {cert.b:>11}"
            f"  {cert.conclusion}"
        )
    seconds = time.perf_counter() - started
    open_fraction = (counts["INAPPLICABLE"] + counts["INCONCLUSIVE"]) / sum(counts.values())
    print("-" * len(header))
    print(
        f"NONEXISTENCE: {counts['NONEXISTENCE']}   "
        f"INCONCLUSIVE: {counts['INCONCLUSIVE']}   "
        f"INAPPLICABLE: {counts['INAPPLICABLE']}   "
        f"open: {open_fraction:.4f}   "
        f"seconds: {seconds:.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
