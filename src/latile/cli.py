"""Command-line front-end.

Subcommands: search, certify, construct, verify, analyze, ball.  All
artifacts are JSON with sorted keys, so identical inputs give byte-identical
output; wall-clock timing lives in a separate "meta" block that golden-file
comparisons should drop.  Verdicts are data -- a certificate concluding
INCONCLUSIVE is still a successful run.  Exit codes are for pipeline
control only: 0 success, 1 verification failure, 2 usage error (including
an -n below 3 or a --budget below 1 for search and certify, a malformed map
file, --ball or LATILE_THREADS, a LATILE_THREADS above the core count, ball
parameters that name no ball, a map whose dimension has no default ball
for verify without --ball, and a map given to analyze whose group order is
not 2n^2+1), 3 internal error.  search runs serially unless
LATILE_THREADS asks for workers.  verify compares the ball's closed-form
size with the group order before it builds the ball, and analyze checks
the group order before it builds the code set.
"""

import argparse
import json
import os
import sys

from .analysis import (
    congruence_check,
    cube_multiplicity_check,
    spectrum_identity_checks,
)
from .ball import ball_size, generate_ball
from .certify import certify_nonexistence
from .construct import check_pds, golay11_tiling, tiling_pds_parameters
from .groupring import (
    OrderMismatchError,
    _tiling_dimension,
    as_code_set,
    check_tiling_conditions,
    star,
)
from .search import DEFAULT_BUDGET, search_tilings
from .tiling import TilingHomomorphism, induced_code_set, size_mismatch_report, verify_tiling


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class UsageError(ValueError):
    """Bad input from the command line, a map file or the environment (exit 2)."""


def _load_homomorphism(path: str) -> TilingHomomorphism:
    name = "standard input" if path == "-" else path
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except ValueError as exc:  # undecodable text or invalid JSON; OSError stays exit 3
        raise UsageError(f"{name} is not valid JSON: {exc}") from None
    try:
        return TilingHomomorphism.from_dict(data)
    except ValueError as exc:
        raise UsageError(f"{name} is not a tiling map: {exc}") from None


def _thread_count() -> int:
    env = os.environ.get("LATILE_THREADS")
    if not env:
        return 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise UsageError(f"LATILE_THREADS must be a positive integer, got {env!r}")
    threads, cores = int(env), os.cpu_count() or 1
    if threads > cores:
        raise UsageError(f"LATILE_THREADS={threads} exceeds the core count, {cores}")
    return threads


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum; anything else exits 2 naming the flag."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return convert


def _parse_ball(text: str, n: int) -> tuple[tuple[int, ...], int]:
    """The parameters of the ball named by --ball n,t,k+,k-, for a map of
    dimension n, and the ball's size."""
    try:
        parts = [int(part) for part in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise UsageError(f"--ball expects four comma-separated integers n,t,k+,k-, got {text!r}")
    if parts[0] != n:
        raise UsageError(f"--ball dimension {parts[0]} != map dimension {n}")
    try:
        return tuple(parts), ball_size(*parts)
    except ValueError as exc:
        raise UsageError(f"--ball {text}: {exc}") from None


def _cmd_search(args) -> int:
    result = search_tilings(
        args.n,
        reduce_orbits=not args.no_reduce,
        budget=args.budget,
        threads=_thread_count(),
        progress=lambda line: print(line, file=sys.stderr),
    )
    _emit(result.as_dict(), args.out)
    return 0


def _cmd_certify(args) -> int:
    cert = certify_nonexistence(args.n)
    if cert is None:
        payload = {
            "n": args.n,
            "order": 2 * args.n * args.n + 1,
            "admissible_primes": [],
            "conclusion": "INAPPLICABLE",
        }
    else:
        payload = cert.as_dict()
    _emit(payload, args.out)
    return 0


def _cmd_construct(args) -> int:
    _emit(golay11_tiling().as_dict(), args.out)  # argparse allows only golay11
    return 0


def _default_ball(n: int) -> tuple[tuple[int, ...], int]:
    """The parameters of B(n,2,1,1) and its size."""
    try:
        return (n, 2, 1, 1), ball_size(n, 2, 1, 1)
    except ValueError as exc:
        raise UsageError(f"map dimension {n} has no default ball ({exc}); use --ball") from None


def _cmd_verify(args) -> int:
    phi = _load_homomorphism(args.map)
    parameters, size = _default_ball(phi.n) if args.ball is None else _parse_ball(args.ball, phi.n)
    order = phi.spec.order
    if size == order:
        report = verify_tiling(phi, generate_ball(*parameters))
    else:  # the closed-form size settles it; the ball is never built
        report = size_mismatch_report(order, size)
    _emit(report.as_dict(), None)
    return 0 if report.bijective else 1


def _cmd_analyze(args) -> int:
    phi = _load_homomorphism(args.map)
    try:  # every section is about a group of order 2n^2+1
        n = _tiling_dimension(phi.spec, phi.n)
    except OrderMismatchError as exc:
        raise UsageError(f"analyze: {exc}") from None
    payload = {"n": n, "group": phi.spec.as_dict()}
    try:
        code = as_code_set(induced_code_set(phi))
    except ValueError as exc:
        payload["code_set_error"] = str(exc)
        _emit(payload, args.out)
        return 0
    payload["tiling_conditions"] = check_tiling_conditions(code, n).as_dict()
    payload["spectrum"] = spectrum_identity_checks(code, n).as_dict()
    payload["cube_multiplicity"] = cube_multiplicity_check(code).as_dict()
    payload["congruences"] = congruence_check(code, n).as_dict()
    payload["partial_difference_set"] = check_pds(star(code), tiling_pds_parameters(n)).as_dict()
    _emit(payload, args.out)
    return 0


def _cmd_ball(args) -> int:
    try:
        ball = generate_ball(args.n, args.t, args.kplus, args.kminus)
    except ValueError as exc:
        raise UsageError(f"ball: {exc}") from None
    _emit(ball.as_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latile",
        description="Lattice tilings of Z^n by the limited-magnitude ball B(n,2,1,1): "
        "construction, verification, exhaustive search, and nonexistence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--out", help="write JSON here instead of stdout")

    p_search = sub.add_parser(
        "search", parents=[out], help="exhaustive tiling search for a dimension"
    )
    p_search.add_argument("-n", type=_int_at_least(3), required=True, help="dimension (n >= 3)")
    p_search.add_argument(
        "--no-reduce",
        action="store_true",
        help="disable multiplier-equivalence reduction: report every solution, not one per "
        "orbit, and turn off the orbit-floor pruning inside the scan",
    )
    p_search.add_argument(
        "--budget",
        type=_int_at_least(1),
        default=DEFAULT_BUDGET,
        help="refuse candidate spaces larger than this (default %(default)s)",
    )
    p_search.set_defaults(func=_cmd_search)

    p_certify = sub.add_parser("certify", parents=[out], help="modular nonexistence certificate")
    p_certify.add_argument("-n", type=_int_at_least(3), required=True, help="dimension (n >= 3)")
    p_certify.set_defaults(func=_cmd_certify)

    p_construct = sub.add_parser(
        "construct", parents=[out], help="emit a known tiling homomorphism"
    )
    p_construct.add_argument("target", choices=["golay11"], help="which construction")
    p_construct.set_defaults(func=_cmd_construct)

    p_verify = sub.add_parser("verify", help="check a homomorphism against a ball")
    p_verify.add_argument("map", help="homomorphism JSON path, or - for stdin")
    p_verify.add_argument(
        "--ball",
        help="ball parameters n,t,k+,k- (default: n from the map, 2,1,1)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_analyze = sub.add_parser("analyze", parents=[out], help="identity suite for a homomorphism")
    p_analyze.add_argument("map", help="homomorphism JSON path, or - for stdin")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_ball = sub.add_parser("ball", parents=[out], help="enumerate a limited-magnitude error ball")
    p_ball.add_argument("-n", type=int, required=True)
    p_ball.add_argument("-t", type=int, required=True)
    p_ball.add_argument("--kplus", type=int, required=True)
    p_ball.add_argument("--kminus", type=int, required=True)
    p_ball.set_defaults(func=_cmd_ball)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"latile: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"latile: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
