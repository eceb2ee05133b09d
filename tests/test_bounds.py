import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference_scanners
from torusvc import bounds
from torusvc.bounds import (
    _log2_bracket,
    _refined_constant,
    _refined_start,
    bounds_table,
    choose_parameters,
    double_factorial,
    floor_log2,
    lower_bound_value,
    refined_upper_bound_n,
    stripe_upper_bound_n,
    trivial_upper_bound_n,
)
from torusvc.errors import NotCertified

F = Fraction


def test_floor_log2():
    assert floor_log2(1) == 0
    assert floor_log2(2) == 1
    assert floor_log2(1023) == 9
    assert floor_log2(1024) == 10
    with pytest.raises(ValueError):
        floor_log2(0)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    # the product tree against the factorial formula it replaced
    for n in range(-3, 2001):
        assert double_factorial(n) == reference_scanners.double_factorial(n)


def naive_persistent(pred, window=64):
    n = 1
    while True:
        if all(pred(j) for j in range(n, n + window + 1)):
            return n
        n += 1


def test_stripe_scanner_small_values():
    assert stripe_upper_bound_n(1) == 6  # 2^6 = 64 > 49
    for d in (1, 2, 4, 10, 100):
        want = naive_persistent(lambda n: 2**n > d * (n + 1) ** 2)
        assert stripe_upper_bound_n(d) == want


def test_trivial_scanner_matches_naive():
    for d in (1, 2, 3, 5, 8):
        want = naive_persistent(lambda n: 2**n > (n + 1) ** (2 * d))
        assert trivial_upper_bound_n(d) == want


def test_refined_scanner_matches_naive():
    for d in (1, 2, 3, 5, 8):
        dfact = double_factorial(2 * d - 1)
        want = naive_persistent(lambda n: 2**n * dfact > 2**d * n ** (2 * d))
        assert refined_upper_bound_n(d) == want


def test_refined_never_worse_than_trivial_small():
    for d in range(3, 33):
        assert refined_upper_bound_n(d) <= trivial_upper_bound_n(d)


def test_scanner_input_validation():
    for fn in (stripe_upper_bound_n, trivial_upper_bound_n, refined_upper_bound_n):
        with pytest.raises(ValueError):
            fn(0)


def test_choose_parameters_worked_value():
    params = choose_parameters(1 << 20)
    assert params.f == 20
    assert params.q == F(21, 20)
    assert params.m == 9600
    assert params.k == 104
    assert params.c == 9600 * 104
    assert params.d_prime == 10080 * 104
    assert params.d_prime <= 1 << 20
    assert params.condition_ok
    assert params.ext_req_ok


def test_lower_bound_worked_value():
    assert lower_bound_value(1 << 20) == 6988800


def test_lower_bound_refuses_uncertified():
    with pytest.raises((NotCertified, ValueError)):
        lower_bound_value(1 << 10)


def test_choose_parameters_validation():
    with pytest.raises(ValueError):
        choose_parameters(1)
    with pytest.raises(ValueError):
        choose_parameters(64)  # k would be 0
    with pytest.raises(ValueError):
        choose_parameters(1 << 20, f_override=0)


def test_choose_parameters_override_keeps_qm_integral():
    params = choose_parameters(1 << 20, f_override=7)
    assert (params.q * params.m).denominator == 1
    assert params.m % 7 == 0


def test_bounds_table_shape():
    rows = bounds_table([1, 4, 16])
    assert [r[0] for r in rows] == [1, 4, 16]
    for d, stripe_ub, trivial_ub, refined_ub, lower in rows:
        assert stripe_ub == stripe_upper_bound_n(d) - 1
        assert trivial_ub == trivial_upper_bound_n(d) - 1
        assert refined_ub == refined_upper_bound_n(d) - 1
        assert lower is None  # lower bound only certifies at very large d
        assert refined_ub >= 3  # never below the known 1-dimensional value
    with pytest.raises(ValueError):
        bounds_table([0])


# every d <= 512, the powers of two up to 2^12, and one non-power beyond 512
REFERENCE_DS = sorted(set(range(1, 513)) | {1 << e for e in range(13)} | {1000})

SCANNERS = {
    "stripe": (
        stripe_upper_bound_n,
        lambda d, n: 2**n > d * (n + 1) ** 2,
        lambda d: 1,
    ),
    "trivial": (
        trivial_upper_bound_n,
        lambda d, n: 2**n > (n + 1) ** (2 * d),
        lambda d: 1,
    ),
    "refined": (
        refined_upper_bound_n,
        lambda d, n: 2**n * reference_scanners.double_factorial(2 * d - 1)
        > 2**d * n ** (2 * d),
        _refined_start,
    ),
}


@pytest.fixture(scope="module")
def answers():
    return {
        name: {d: scan(d) for d in REFERENCE_DS}
        for name, (scan, _, _) in SCANNERS.items()
    }


@pytest.mark.parametrize("name", sorted(SCANNERS))
def test_scanners_match_linear_reference(answers, name):
    reference = getattr(reference_scanners, f"{name}_upper_bound_n")
    for d in REFERENCE_DS:
        assert answers[name][d] == reference(d), d


@pytest.mark.parametrize("name", sorted(SCANNERS))
def test_answers_are_exact_crossings(answers, name):
    # the answer n is past the scan's start, the inequality fails at n - 1
    # and holds at n, in exact big-integer arithmetic
    _, exceeds, start = SCANNERS[name]
    for d in REFERENCE_DS:
        n = answers[name][d]
        assert n > start(d), d
        assert exceeds(d, n) and not exceeds(d, n - 1), d


def test_log2_bracket_is_certified():
    rng = random.Random(7)
    for p in range(1, 7):
        for n in [rng.randrange(1, 1 << rng.randrange(1, 40)) for _ in range(40)]:
            lo, hi = _log2_bracket(n, p)
            assert 2**lo <= n ** (2**p) <= 2**hi, (n, p)
            assert hi - lo <= 2
    assert _log2_bracket(1 << 40, 5) == (40 << 5, 40 << 5)
    with pytest.raises(ValueError):
        _log2_bracket(0, 5)


def test_refined_constant_brackets_log2_double_factorial():
    # the constant brackets 2^p (log2 (2d-1)!! - d); at small p the Robbins
    # correction (about 1/(24 d ln 2)) is several units of 2^-p for small d
    for p in range(2, 9):
        for d in range(1, 21):
            lo, hi = _refined_constant(d, p)
            power = double_factorial(2 * d - 1) ** (2**p)
            assert 2 ** (lo + (d << p)) <= power <= 2 ** (hi + (d << p)), (d, p)


def test_ln2_literal_bracket():
    # ln 2 = sum_{k>=1} 1/(k 2^k); the tail after N terms is below 1/((N+1) 2^N)
    terms = bounds.LN2_BITS + 16
    partial = sum(Fraction(1, k << k) for k in range(1, terms + 1))
    tail = Fraction(1, (terms + 1) << terms)
    scale = 1 << bounds.LN2_BITS
    assert Fraction(bounds.LN2_LO, scale) < partial
    assert partial + tail < Fraction(bounds.LN2_HI, scale)


def test_bounds_module_has_no_float():
    # no float or complex literal, no float(), and no math.* at all (so no
    # math.log, math.log2 or math.ceil on a float)
    tree = ast.parse(Path(bounds.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), node.lineno
        if isinstance(node, ast.Name):
            assert node.id not in ("float", "math"), node.lineno


def test_bounds_table_rows_and_reasons():
    reasons = []
    rows = bounds_table([1, 2, 1 << 16, 1 << 20], reasons)
    assert rows[3] == (1 << 20, 29, 53860581, 32911522, 6988800)
    assert [r[4] for r in rows] == [None, None, None, 6988800]
    assert reasons == [
        (1, "d too small: it must be at least 2"),
        (2, "d too small for f=1: k would be 0"),
        (1 << 16, "parameter condition fails"),
    ]
