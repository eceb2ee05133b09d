"""Acceptance suite: one test per acceptance criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.
"""

import io
import itertools
import random
from contextlib import redirect_stdout
from fractions import Fraction

from bruteforce import brute_box_masks, brute_cube_masks, seeded_point_sets
from torusvc.bounds import (
    choose_parameters,
    floor_log2,
    lower_bound_value,
    refined_upper_bound_n,
    trivial_upper_bound_n,
)
from torusvc.cli import run
from torusvc.extraction import (
    SymbolMatrix,
    check_extraction,
    failure_probability_bound,
    validate_failure_witness,
    verify_ext_req,
    word_matchable,
)
from torusvc.fileio import read_matrix, read_points, write_matrix, write_points
from torusvc.lifting import cube_witness, lift_points, verify_lift
from torusvc.shatter import (
    BOXES,
    STRIPES_FIXED,
    Family,
    covered_mask,
    growth_count,
    realizable_by_box,
    realizable_by_cube,
)
from torusvc.stripes import build_stripe_shattered_set, stripe_witness
from torusvc.torus import arc_complement, arc_contains, arc_length
from torusvc.vcsearch import vc_exact

F = Fraction


def cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(list(argv))
    return code, out.getvalue()


def test_criterion_1_exact_small_dimension_values():
    code, out = cli("vc-exact", "--d", "1", "--family", "boxes")
    assert code == 0 and out.strip() == "3"
    code, out = cli("vc-exact", "--d", "2", "--family", "boxes", "--n-max", "7")
    assert code == 0 and out.strip() == "6"


def test_criterion_2_stripe_construction_shattered():
    for n in range(1, 7):
        for l in (F(1, 4), F(1, 2), F(3, 4)):
            ps = build_stripe_shattered_set(n, l)
            for mask in range(1 << (n + 1)):
                stripe = stripe_witness(n, l, mask)
                assert arc_length(stripe.arc) == l
                assert covered_mask(ps, stripe) == mask


def test_criterion_3_extraction_checkers_agree():
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(200):
        c = rng.randint(1, 6)
        d = rng.randint(1, 10)
        k = rng.randint(1, 3)
        rows = tuple(
            tuple(rng.randrange(k) for _ in range(d)) for _ in range(c)
        )
        m = SymbolMatrix(rows, k)
        ex = check_extraction(m, "exhaustive")
        wit = check_extraction(m, "witness")
        if ex.holds != wit.holds:
            disagreements += 1
        if not ex.holds:
            assert not word_matchable(m, ex.counterexample_word)
            assert validate_failure_witness(m, ex.failure_witness)
        if not wit.holds:
            assert validate_failure_witness(m, wit.failure_witness)
    assert disagreements == 0


def worked_lift_instance():
    base = build_stripe_shattered_set(2, F(1, 2))
    row = (0, 1, 2, 3, 0, 1, 2, 3)
    return lift_points(base, SymbolMatrix((row, row), 4), F(1, 2))


def test_criterion_4_end_to_end_lifting():
    inst = worked_lift_instance()
    assert check_extraction(inst.matrix, "exhaustive").holds
    report = verify_lift(inst, range(64))
    assert report.ok and report.checked == 64
    for mask in range(64):
        cube = cube_witness(inst, mask)
        assert cube.edge == F(5, 6)
        independent = realizable_by_cube(inst.lifted, mask)
        assert independent is not None
        assert covered_mask(inst.lifted, independent) == mask
    # 6 = c * (floor(log2 k) + 1) with c = 2, k = 4
    assert len(inst.lifted) == inst.matrix.n_rows * (
        floor_log2(inst.matrix.k) + 1
    ) == 6


def all_balanced_rows(d, k):
    per = d // k
    want = tuple(range(k)) * per
    return [
        row
        for row in itertools.product(range(k), repeat=d)
        if tuple(sorted(row)) == tuple(sorted(want))
    ]


def test_criterion_5_counting_bound_exactness():
    ledger = failure_probability_bound(2, 1, 2)
    assert ledger.ratio_bound == 0
    rows = all_balanced_rows(4, 2)
    assert len(rows) == 6
    for r1 in rows:
        for r2 in rows:
            m = SymbolMatrix((r1, r2), 2)
            assert check_extraction(m, "exhaustive").holds
    for m in range(14, 21):
        q, k = F(2), 4
        if verify_ext_req(q, m, k):
            ratio = failure_probability_bound(q, m, k).ratio_bound
            assert ratio < 1 / q


def test_criterion_6_bound_scanners():
    # the asymptotic threshold d(log2 d + 3 log2 log2 d) + 1 is first beaten
    # at d = 2^11; below that the exact crossovers are frozen as regression
    # values
    assert refined_upper_bound_n(1 << 8) == 4542
    assert refined_upper_bound_n(1 << 10) == 20583
    # refined: n <= d(log2 d + 3 log2 log2 d) + 1, exactly:
    # 2^(n - 1 - d L) <= L^(3d) with L = log2 d
    for d in (1 << 11, 1 << 12, 1 << 13, 1 << 14):
        n = refined_upper_bound_n(d)
        L = floor_log2(d)
        assert 2 ** (n - 1 - d * L) <= L ** (3 * d)
    # trivial: n <= 3 d log2 d once d is large enough (first true at 2^10);
    # the smaller powers of two are frozen as exact regression values
    assert trivial_upper_bound_n(1 << 6) == 1329
    assert trivial_upper_bound_n(1 << 7) == 2952
    assert trivial_upper_bound_n(1 << 8) == 6484
    assert trivial_upper_bound_n(1 << 9) == 14116
    for e in (10, 11, 12):
        d = 1 << e
        assert trivial_upper_bound_n(d) <= 3 * d * e
    for d in range(3, 257):
        assert refined_upper_bound_n(d) <= trivial_upper_bound_n(d)


def test_criterion_7_parameter_pipeline():
    params = choose_parameters(1 << 20)
    assert params.q == F(21, 20)
    assert params.m == 9600
    assert params.k == 104
    assert params.condition_ok and params.ext_req_ok
    assert lower_bound_value(1 << 20) == 6988800
    # lower >= d(log2 d - 4 log2 log2 d), exactly:
    # L^(4d) >= 2^(d L - lower) with L = log2 d
    # comparing L^(4d) against 2^gap after dividing both exponents by their
    # gcd keeps the check exact while the numbers stay small
    import math

    for d in (1 << 20, 1 << 24):
        lower = lower_bound_value(d)
        L = floor_log2(d)
        gap = d * L - lower
        if gap > 0:
            g = math.gcd(4 * d, gap)
            assert L ** (4 * d // g) >= 2 ** (gap // g)


def test_criterion_8_property_suites():
    # box oracle vs exhaustive arc enumeration, n <= 5, d <= 3, D <= 8
    for denom in (2, 3, 4):
        for coords in itertools.product(range(denom), repeat=3):
            from torusvc.torus import PointSet

            ps = PointSet(1, denom, tuple((F(t, denom),) for t in coords))
            brute = brute_box_masks(ps)
            for mask in range(8):
                assert (realizable_by_box(ps, mask) is not None) == (
                    mask in brute
                )
    for ps in seeded_point_sets(801, 60, 5, 3, 8):
        brute = brute_box_masks(ps)
        for mask in range(1 << len(ps)):
            assert (realizable_by_box(ps, mask) is not None) == (mask in brute)
    # cube oracle vs brute force, n <= 4, d <= 2, D <= 6
    for ps in seeded_point_sets(802, 60, 4, 2, 6):
        brute = brute_cube_masks(ps)
        for mask in range(1 << len(ps)):
            assert (realizable_by_cube(ps, mask) is not None) == (
                mask in brute
            )
    # complement duality on the lifted instance: a point lies in the witness
    # cube exactly when it avoids every complementary stripe
    inst = worked_lift_instance()
    full = (1 << len(inst.lifted)) - 1
    for mask in range(0, 64, 7):
        cube = cube_witness(inst, mask)
        stripe_cover = 0
        for j, a in enumerate(cube.arcs):
            stripe_arc = arc_complement(a)
            for idx, p in enumerate(inst.lifted.points):
                if arc_contains(stripe_arc, p[j]):
                    stripe_cover |= 1 << idx
        assert stripe_cover == full ^ mask
    # growth bounds on 100 seeded random configurations
    for ps in seeded_point_sets(803, 100, 6, 3, 6):
        n, d = len(ps), ps.dim
        assert growth_count(ps, Family(BOXES)) <= (n + 1) ** (2 * d)
        stripes = Family(STRIPES_FIXED, F(1, 3))
        assert growth_count(ps, stripes) <= d * (n + 1) ** 2


def test_criterion_9_reproducibility(tmp_path):
    base = str(tmp_path / "base.txt")
    matrix = str(tmp_path / "matrix.txt")
    assert cli("stripes-build", "--n", "2", "--l", "1/2", "-o", base)[0] == 0
    row = (0, 1, 2, 3, 0, 1, 2, 3)
    write_matrix(SymbolMatrix((row, row), 4), matrix)

    def invocations(tag):
        out_of = lambda name: str(tmp_path / f"{name}-{tag}.txt")
        return [
            (("stripes-build", "--n", "3", "--l", "1/4",
              "-o", out_of("built")), out_of("built")),
            (("shatter", base, "--family", "stripes", "--l", "1/2"), None),
            (("growth", base, "--family", "boxes"), None),
            (("extract-check", matrix, "--mode", "witness"), None),
            (("extract-sample", "--m", "2", "--k", "2", "--q", "2",
              "--seed", "7", "-o", out_of("sampled")), out_of("sampled")),
            (("lift", "--points", base, "--matrix", matrix, "--l", "1/2",
              "-o", out_of("lifted")), out_of("lifted")),
            (("certify-lift", "--points", base, "--matrix", matrix,
              "--l", "1/2", "-o", out_of("cert")), out_of("cert")),
            (("bounds", "--d-list", "1,2,4,16"), None),
            (("vc-exact", "--d", "1", "--family", "boxes"), None),
            (("search", "--d", "2", "--n", "4", "--budget", "2000",
              "--seed", "5", "-o", out_of("found")), out_of("found")),
        ]

    transcripts = []
    for jobs, tag in (("1", "a"), ("1", "b"), ("4", "c")):
        transcript = []
        for argv, out_file in invocations(tag):
            code, out = cli("--jobs", jobs, *argv)
            blob = "" if out_file is None else open(out_file).read()
            transcript.append((argv[0], code, out, blob))
        transcripts.append(transcript)
    assert transcripts[0] == transcripts[1] == transcripts[2]
