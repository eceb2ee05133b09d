"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails, 2 usage or file
error, 3 size-guard refusal.  All outputs are deterministic given the same
inputs and seeds; the --jobs flag is accepted for interface compatibility
and does not change any result.
"""

import argparse
import sys

from .bounds import bounds_table
from .errors import GuardExceeded, NotCertified
from .extraction import check_extraction, sample_extraction_matrix
from .fileio import (
    ParseError,
    parse_rat,
    read_certificate,
    read_matrix,
    read_points,
    write_certificate,
    write_matrix,
    write_points,
)
from .lifting import cube_witness, lift_points, sample_masks, verify_lift
from .shatter import (
    BOXES,
    CUBES,
    STRIPES_ANY,
    STRIPES_FIXED,
    Family,
    covered_mask,
    growth_count,
    shatter_report,
)
from .stripes import build_stripe_shattered_set
from .vcsearch import search_shattered, vc_exact

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

FAMILY_NAMES = {
    "boxes": BOXES,
    "cubes": CUBES,
    "stripes": STRIPES_FIXED,
    "stripes-any": STRIPES_ANY,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _family_from_args(args) -> Family:
    kind = FAMILY_NAMES[args.family]
    if kind == STRIPES_FIXED:
        if args.l is None:
            raise _UsageError("family 'stripes' requires --l")
        return Family(kind, parse_rat(args.l))
    if args.l is not None:
        raise _UsageError(f"family {args.family!r} takes no --l")
    return Family(kind)


def build_parser() -> _Parser:
    parser = _Parser(prog="torusvc")
    parser.add_argument("--jobs", type=int, default=1, help="worker count (results are identical for any value)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shatter", help="decide whether a family shatters a point set")
    p.add_argument("points")
    p.add_argument("--family", choices=sorted(FAMILY_NAMES), required=True)
    p.add_argument("--l", help="stripe length p/q (stripes family only)")

    p = sub.add_parser("growth", help="count realizable subsets")
    p.add_argument("points")
    p.add_argument("--family", choices=sorted(FAMILY_NAMES), required=True)
    p.add_argument("--l")

    p = sub.add_parser("stripes-build", help="build the stripe-shattered construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--ambient-dim", type=int, default=None)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("extract-check", help="check the k-extraction property")
    p.add_argument("matrix")
    p.add_argument("--mode", choices=["exhaustive", "witness"], default="witness")

    p = sub.add_parser("extract-sample", help="sample a matrix with the property")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=1000)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("lift", help="lift a point set through a matrix")
    p.add_argument("--points", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("certify-lift", help="verify the lift and emit a certificate")
    p.add_argument("--points", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--l", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("verify-cert", help="re-check a certificate offline")
    p.add_argument("points")
    p.add_argument("certificate")

    p = sub.add_parser("bounds", help="emit the bound comparison table")
    p.add_argument("--d-list", required=True)

    p = sub.add_parser("vc-exact", help="exact VC value by exhaustive enumeration")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--family", choices=sorted(FAMILY_NAMES), default="boxes")
    p.add_argument("--l")
    p.add_argument("--n-max", type=int, default=8)

    p = sub.add_parser("search", help="randomized search for a shattered set")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    return parser


def _cmd_shatter(args) -> int:
    ps = read_points(args.points)
    report = shatter_report(ps, _family_from_args(args))
    if report.shattered:
        print(f"shattered n={len(ps)}")
        return EXIT_OK
    print(f"not shattered missing-mask={report.missing:x}")
    return EXIT_FAIL


def _cmd_growth(args) -> int:
    ps = read_points(args.points)
    print(growth_count(ps, _family_from_args(args)))
    return EXIT_OK


def _cmd_stripes_build(args) -> int:
    ps = build_stripe_shattered_set(args.n, parse_rat(args.l), args.ambient_dim)
    write_points(ps, args.output)
    print(f"wrote {len(ps)} points in dimension {ps.dim} denom {ps.denom}")
    return EXIT_OK


def _cmd_extract_check(args) -> int:
    matrix = read_matrix(args.matrix)
    verdict = check_extraction(matrix, args.mode)
    if verdict.holds:
        print("holds")
        return EXIT_OK
    if verdict.counterexample_word is not None:
        word = " ".join(str(s) for s in verdict.counterexample_word)
        print(f"fails word={word}")
    if verdict.failure_witness is not None:
        rows, cols, _ = verdict.failure_witness
        print(f"fails witness U={list(rows)} V={list(cols)}")
    return EXIT_FAIL


def _cmd_extract_sample(args) -> int:
    result = sample_extraction_matrix(
        args.m, args.k, parse_rat(args.q), args.max_trials, args.seed
    )
    if result is None:
        print(f"exhausted after {args.max_trials} trials")
        return EXIT_FAIL
    matrix, trials = result
    write_matrix(matrix, args.output)
    print(f"found after {trials} trials")
    return EXIT_OK


def _cmd_lift(args) -> int:
    inst = lift_points(
        read_points(args.points), read_matrix(args.matrix), parse_rat(args.l)
    )
    write_points(inst.lifted, args.output)
    print(f"wrote {len(inst.lifted)} lifted points in dimension {inst.lifted.dim}")
    return EXIT_OK


def _cmd_certify_lift(args) -> int:
    inst = lift_points(
        read_points(args.points), read_matrix(args.matrix), parse_rat(args.l)
    )
    if args.sample is not None:
        report = verify_lift(inst, "sample", sample=args.sample, seed=args.seed)
        masks = sample_masks(len(inst.lifted), args.sample, args.seed)
    else:
        report = verify_lift(inst, "exhaustive")
        masks = range(1 << len(inst.lifted))
    if report.failures:
        shown = ", ".join(f"{m:x}" for m in report.failures[:8])
        print(f"lift verification failed on {len(report.failures)} masks: {shown}")
        return EXIT_FAIL
    witnesses = {mask: cube_witness(inst, mask) for mask in masks}
    write_certificate(witnesses, inst.lifted.dim, len(inst.lifted), args.output)
    print(f"certified {report.checked} masks")
    return EXIT_OK


def _cmd_verify_cert(args) -> int:
    ps = read_points(args.points)
    dim, n_points, _, _, witnesses = read_certificate(args.certificate)
    if dim != ps.dim or n_points != len(ps):
        print(
            f"certificate is for dimension {dim} / {n_points} points, "
            f"point file has {ps.dim} / {len(ps)}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    for mask in sorted(witnesses):
        got = covered_mask(ps, witnesses[mask])
        if got != mask:
            print(f"mask {mask:x} fails: shape covers {got:x}")
            return EXIT_FAIL
    print(f"verified {len(witnesses)} masks")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    try:
        d_list = [int(v) for v in args.d_list.split(",") if v]
    except ValueError:
        raise _UsageError(f"invalid --d-list {args.d_list!r}") from None
    reasons = []
    rows = bounds_table(d_list, reasons)
    print("d\tstripe_ub\ttrivial_ub\trefined_ub\tlower_bound")
    for d, stripe_ub, trivial_ub, refined_ub, lower in rows:
        lower_s = "na" if lower is None else str(lower)
        print(f"{d}\t{stripe_ub}\t{trivial_ub}\t{refined_ub}\t{lower_s}")
    for d, reason in reasons:
        print(f"d={d}: {reason}", file=sys.stderr)
    return EXIT_OK


def _cmd_vc_exact(args) -> int:
    value, _, _ = vc_exact(args.d, _family_from_args(args), args.n_max)
    print(value)
    return EXIT_OK


def _cmd_search(args) -> int:
    found = search_shattered(args.d, args.n, args.budget, args.seed)
    if found is None:
        print("no shattered configuration found")
        return EXIT_FAIL
    ps, witnesses = found
    if args.output:
        write_points(ps, args.output)
    print(f"shattered configuration found ({len(witnesses)} certified masks)")
    return EXIT_OK


_COMMANDS = {
    "shatter": _cmd_shatter,
    "growth": _cmd_growth,
    "stripes-build": _cmd_stripes_build,
    "extract-check": _cmd_extract_check,
    "extract-sample": _cmd_extract_sample,
    "lift": _cmd_lift,
    "certify-lift": _cmd_certify_lift,
    "verify-cert": _cmd_verify_cert,
    "bounds": _cmd_bounds,
    "vc-exact": _cmd_vc_exact,
    "search": _cmd_search,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (NotCertified, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
