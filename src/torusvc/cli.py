"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails, 2 usage or file
error, 3 size-guard refusal.  All outputs are deterministic given the same
inputs and seeds; the --jobs flag is accepted for interface compatibility
and does not change any result.
"""

import argparse
import functools
import sys

from .bounds import bounds_table
from .errors import GuardExceeded, VCBracket
from .extraction import MODES, check_extraction, sample_extraction_matrix
from .fileio import (
    certificate_lines,
    parse_rat,
    read_matrix,
    read_points,
    write_certificate,
    write_matrix,
    write_points,
)
from .lifting import LiftInstance, cube_witness, lift_points, sample_masks, verify_lift
from .shatter import KINDS, STRIPES_FIXED, Family, growth_count, shatter_report
from .stripes import build_stripe_shattered_set
from .torus import covered_mask
from .vcsearch import search_shattered, vc_exact

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
STRIPES_BUILD_GUARD = 1 << 20  # coordinates stripes-build may allocate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _count(text: str) -> int:
    """argparse type of the options that count trials, steps or masks."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative count {text!r}")
    return value


def _family_from_args(args) -> Family:
    if args.family == STRIPES_FIXED:
        if args.l is None:
            raise ValueError("family 'stripes' requires --l")
        return Family(STRIPES_FIXED, parse_rat(args.l))
    if args.l is not None:
        raise ValueError(f"family {args.family!r} takes no --l")
    return Family(args.family)


def _lift_from_args(args) -> LiftInstance:
    return lift_points(read_points(args.points), read_matrix(args.matrix), parse_rat(args.l))


def build_parser() -> _Parser:
    parser = _Parser(prog="torusvc")
    parser.add_argument("--jobs", type=int, default=1, help="worker count (results are identical for any value)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    lift_inputs = argparse.ArgumentParser(add_help=False)
    lift_inputs.add_argument("--points", required=True)
    lift_inputs.add_argument("--matrix", required=True)
    lift_inputs.add_argument("--l", required=True)

    p = command("shatter", _cmd_shatter, help="decide whether a family shatters a point set")
    p.add_argument("points")
    p.add_argument("--family", choices=KINDS, required=True)
    p.add_argument("--l", help="stripe length p/q (stripes family only)")

    p = command("growth", _cmd_growth, help="count realizable subsets")
    p.add_argument("points")
    p.add_argument("--family", choices=KINDS, required=True)
    p.add_argument("--l")

    p = command("stripes-build", _cmd_stripes_build, help="build the stripe-shattered construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--ambient-dim", type=int, default=None)
    p.add_argument("-o", "--output", required=True)

    p = command("extract-check", _cmd_extract_check, help="check the k-extraction property")
    p.add_argument("matrix")
    p.add_argument("--mode", choices=MODES, default="witness")

    p = command("extract-sample", _cmd_extract_sample, help="sample a matrix with the property")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=_count, default=1000)
    p.add_argument("-o", "--output", required=True)

    p = command("lift", _cmd_lift, help="lift a point set through a matrix", parents=[lift_inputs])
    p.add_argument("-o", "--output", required=True)

    p = command("certify-lift", _cmd_certify_lift, help="verify the lift and emit a certificate",
                parents=[lift_inputs])
    p.add_argument("--sample", type=_count, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = command("verify-cert", _cmd_verify_cert, help="re-check a certificate offline")
    p.add_argument("points")
    p.add_argument("certificate")
    p.add_argument("--sampled", action="store_true",
                   help="accept a certificate that holds only some of the masks")

    p = command("bounds", _cmd_bounds, help="emit the bound comparison table")
    p.add_argument("--d-list", required=True)

    p = command("vc-exact", _cmd_vc_exact, help="exact VC value by augmenting shattered sets (small d)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--family", choices=KINDS, default="boxes")
    p.add_argument("--l")
    p.add_argument("--n-max", type=int, default=8)

    p = command("search", _cmd_search, help="randomized search for a shattered set")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=_count, required=True)
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
    n, length, dim = args.n, parse_rat(args.l), args.ambient_dim
    # (n+1) * max(2^n, dim) coordinates; n is bounded before 2^n is formed
    if n > 0 and (n >= STRIPES_BUILD_GUARD.bit_length()
                  or (n + 1) * max(1 << n, dim or 0) > STRIPES_BUILD_GUARD):
        raise GuardExceeded("stripes-build guard: (n+1) * max(2^n, ambient dimension) "
                            f"coordinates > {STRIPES_BUILD_GUARD}")
    ps = build_stripe_shattered_set(n, length, dim)
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
    inst = _lift_from_args(args)
    write_points(inst.lifted, args.output)
    print(f"wrote {len(inst.lifted)} lifted points in dimension {inst.lifted.dim}")
    return EXIT_OK


def _cmd_certify_lift(args) -> int:
    inst = _lift_from_args(args)
    n = len(inst.lifted)
    masks = range(1 << n) if args.sample is None else sample_masks(n, args.sample, args.seed)
    report = verify_lift(inst, masks)
    if report.failures:
        shown = ", ".join(f"{m:x}" for m in report.failures[:8])
        print(f"lift verification failed on {len(report.failures)} masks: {shown}")
        return EXIT_FAIL
    # each cube is built again as its line is written, so no witness is held
    write_certificate(((mask, cube_witness(inst, mask)) for mask in masks),
                      inst.lifted.dim, n, args.output, report.denom)
    print(f"certified {len(masks)} masks")
    return EXIT_OK


def _cmd_verify_cert(args) -> int:
    ps = read_points(args.points)
    lines = certificate_lines(args.certificate)
    dim, n_points, _, _ = next(lines)
    matches = dim == ps.dim and n_points == len(ps)
    total = 1 << len(ps)
    count = inside = 0
    failed = None  # (mask, covered) of the smallest failing mask
    for mask, shape in lines:  # parsed to the end, so a parse error anywhere exits 2
        count += 1
        inside += 0 <= mask < total
        got = covered_mask(ps, shape) if matches else mask
        if got != mask and (failed is None or mask < failed[0]):
            failed = mask, got
    if not matches:
        print(f"certificate is for dimension {dim} / {n_points} points, "
              f"point file has {ps.dim} / {len(ps)}", file=sys.stderr)
        return EXIT_FAIL
    # no mask repeats, so count == inside == total means each mask once
    if not args.sampled and not count == inside == total:
        print(f"certificate holds {count} masks, not each of the {total} masks 0..{total - 1:x} "
              "once (pass --sampled to check a partial certificate)", file=sys.stderr)
        return EXIT_FAIL
    if failed is not None:
        print(f"mask {failed[0]:x} fails: shape covers {failed[1]:x}")
        return EXIT_FAIL
    print(f"verified {count} masks")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    try:
        d_list = [int(v) for v in args.d_list.split(",") if v]
    except ValueError:
        raise ValueError(f"invalid --d-list {args.d_list!r}") from None
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
    try:
        value, _, _ = vc_exact(args.d, _family_from_args(args), args.n_max)
    except VCBracket as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAIL
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


_parser = functools.cache(build_parser)


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (FileNotFoundError, ValueError) as exc:
        # ValueError covers usage errors and fileio.ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
