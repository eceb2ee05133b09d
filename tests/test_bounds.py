import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference_scanners
from bruteforce import random_point_set
from torusvc import bounds
from torusvc.bounds import (
    _exceeds,
    _log2_bracket,
    _product_exceeds,
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
from torusvc.extraction import verify_ext_req
from torusvc.shatter import STRIPES_FIXED, Family, growth_count
from torusvc.torus import PointSet

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


def test_fixed_length_stripe_count_lemma():
    # stripe_upper_bound_n's docstring: arcs of one length trace at most 2n
    # subsets of n points on a circle, so stripes_l trace at most 2nd in T^d
    rng = random.Random(20)
    tied = reached = 0
    for _ in range(400):
        n, d, denom = rng.randint(1, 9), rng.randint(1, 5), rng.randint(2, 12)
        q = rng.randint(2, 7)
        ps = random_point_set(rng, n, d, denom)
        tied += any(len(set(col)) < n for col in ps.cols)
        growth = growth_count(ps, Family(STRIPES_FIXED, F(rng.randrange(1, q), q)))
        assert growth <= 2 * n * d, (ps, growth)
        reached += growth == 2 * n * d
    assert tied > 200 and reached > 0
    # equality: {0, 1/4} on the circle, l = 1/2: {}, {0}, {1/4} and both
    ps = PointSet(1, 4, ((F(0),), (F(1, 4),)))
    assert growth_count(ps, Family(STRIPES_FIXED, F(1, 2))) == 4


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


@pytest.fixture
def exact(monkeypatch):
    """The term lists that reach bounds' exact comparison, in call order."""
    calls = []

    def counted(terms, factor=1):
        calls.append(terms)
        return _product_exceeds(terms, factor)

    monkeypatch.setattr(bounds, "_product_exceeds", counted)
    return calls


def test_extraction_requirement_on_brackets_matches_the_exact_check(exact):
    # the brackets decide every d with k >= 2, and k = 1, where q - q/k is
    # zero, is decided before any comparison: no exact comparison runs
    ds = [*range(2, 5000), *range(1 << 13, 1 << 15, 37), *(1 << e for e in range(15, 41)),
          10**6, 10**9, 3**20]
    checked = 0
    for d in ds:
        try:
            params = choose_parameters(d)
        except ValueError:
            continue
        assert params.ext_req_ok == verify_ext_req(params.q, params.m, params.k), d
        checked += 1
    assert checked > 500 and exact == []


def test_extraction_requirement_brackets_agree_on_both_sides_of_it():
    # small q, m, k, where the requirement flips and its sides are near
    cases = held = 0
    for q in (F(2), F(3, 2), F(4, 3), F(5, 4), F(7, 6)):
        for m in range(q.denominator, 43, q.denominator):
            for k in range(1, 49):
                want = verify_ext_req(q, m, k)
                assert bounds._ext_req_holds(q, m, k) == want, (q, m, k)
                cases, held = cases + 1, held + want
    assert (cases, held) == (4512, 1651)


def test_lower_bound_worked_value():
    assert lower_bound_value(1 << 20) == 6988800


def test_lower_bound_refuses_uncertified():
    with pytest.raises((NotCertified, ValueError)):
        lower_bound_value(1 << 10)
    with pytest.raises(NotCertified, match="^bound not certified at d=4096: parameter condition fails$"):
        lower_bound_value(1 << 12)


def test_choose_parameters_validation():
    with pytest.raises(ValueError):
        choose_parameters(1)
    with pytest.raises(ValueError):
        choose_parameters(64)  # k would be 0


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


# the stripe inequality has O(log d) bits, so its crossing is cheap to check
# far beyond the linear reference's reach
LARGE_STRIPE_DS = [1 << 40, 1 << 64, 3**100, (1 << 1000) + 7]


@pytest.mark.parametrize("name", sorted(SCANNERS))
def test_answers_are_exact_crossings(answers, name):
    # the answer n is past the scan's start, the inequality fails at n - 1
    # and holds at n, in exact big-integer arithmetic
    scan, exceeds, start = SCANNERS[name]
    found = dict(answers[name])
    if name == "stripe":
        found.update((d, scan(d)) for d in LARGE_STRIPE_DS)
    for d, n in found.items():
        assert n > start(d), d
        assert exceeds(d, n) and not exceeds(d, n - 1), d


def test_smallest_persistent_finds_a_crossing_at_or_past_its_start():
    # a predicate that already holds at the start is answered there
    for start in (1, 5):
        for crossing in range(start - 3, start + 70):
            probes = []

            def exceeds(n):
                probes.append(n)
                return n >= crossing

            assert bounds._smallest_persistent(exceeds, start) == max(crossing, start)
            assert min(probes) == start
            assert len(probes) <= 2 * max(crossing - start, 1).bit_length() + 1


def test_smallest_persistent_from_a_guess():
    # from any guess the answer is the same, no probe falls below the start,
    # and the probes grow with the log of the guess's distance from the crossing
    start = 20
    for crossing in range(start - 8, start + 70):
        for guess in range(start - 8, start + 70):
            probes = []

            def exceeds(n):
                probes.append(n)
                return n >= crossing

            assert bounds._smallest_persistent(exceeds, start, guess) == max(crossing, start)
            assert min(probes) >= start
            assert len(probes) <= 2 * abs(crossing - guess).bit_length() + 3, (crossing, guess)


@pytest.mark.parametrize("miss", ["start", -1000, 10**6])
def test_scanners_ignore_a_wrong_guess(answers, monkeypatch, miss):
    # the guess only picks where the search starts: a guess at the scan's
    # start, far below or far above the crossing leaves every answer as it was
    for name in ("trivial", "refined"):
        scan = SCANNERS[name][0]
        for d in (1, 2, 3, 7, 64, 100, 257, 512):
            want = answers[name][d]
            monkeypatch.setattr(
                bounds, "_guess",
                lambda d, terms, start, known=None: start if miss == "start" else want + miss)
            assert scan(d) == want, (name, d)


def test_scanners_probe_budget(monkeypatch):
    # the guesses put each search within a few probes of its crossing: over
    # the benchmark's d list the three scanners make at most 150 probes
    # (searching up from each scan's start takes 1,082)
    probes = []
    search = bounds._smallest_persistent

    def counted(exceeds, *args):
        return search(lambda n: probes.append(n) or exceeds(n), *args)

    monkeypatch.setattr(bounds, "_smallest_persistent", counted)
    for d in [1 << e for e in range(17)] + [1000]:
        for scan, _, _ in SCANNERS.values():
            scan(d)
    assert len(probes) <= 150


# (stripe, trivial, refined) answers at large d, as the search without guesses gives them
LARGE_ANSWERS = {
    1 << 20: (30, 53860582, 32911523),
    1 << 40: (52, 102343448486113, 58156125271372),
    10**9 + 7: (41, 72140167968, 42133864887),
    3**20: (43, 264612705425, 153645407059),
}


def test_guesses_land_near_the_crossing_in_four_evaluations(monkeypatch):
    # _guess's Newton steps evaluate g once per terms(n) call; at most four
    # evaluations put each box scanner's guess within 2 of its answer
    guess, seen = bounds._guess, []

    def counted(d, terms, start, known=None):
        calls = []
        seen.append((guess(d, lambda n: calls.append(n) or terms(n), start, known), len(calls)))
        return seen[-1][0]

    monkeypatch.setattr(bounds, "_guess", counted)
    ds = [1 << e for e in range(17)] + [1000, *sorted(LARGE_ANSWERS), 1 << 64, 1 << 200]
    for d in ds:
        for name in ("trivial", "refined"):
            seen.clear()
            answer = SCANNERS[name][0](d)
            [(n, evaluations)] = seen
            assert evaluations <= 4 and abs(n - answer) <= 2, (name, d, n - answer, evaluations)


@pytest.mark.parametrize("d", sorted(LARGE_ANSWERS))
def test_large_d_answers_are_pinned(d):
    assert tuple(scan(d) for scan, _, _ in SCANNERS.values()) == LARGE_ANSWERS[d]


@pytest.mark.parametrize("e", [64, 100, 200])
def test_huge_d_answers_are_crossings(monkeypatch, e):
    # the decider holds at each answer and fails one below it, past the scan's
    # start, on brackets alone: the exact products are out of reach
    d = 1 << e
    found = {name: scan(d) for name, (scan, _, _) in SCANNERS.items()}

    def unreachable(*args):
        raise AssertionError("exact comparison")

    monkeypatch.setattr(bounds, "_product_exceeds", unreachable)
    inequalities = {
        "stripe": (lambda n: ((2, n), (d, -1), (n + 1, -2)), None),
        "trivial": (lambda n: ((2, n), (n + 1, -2 * d)), None),
        "refined": (lambda n: ((2, n - d), (n, -2 * d)), (lambda p: _refined_constant(d, p), None)),
    }
    for name, (terms, known) in inequalities.items():
        n = found[name]
        assert n > SCANNERS[name][2](d), name
        assert _exceeds(terms(n), e + 1, known), name
        assert not _exceeds(terms(n - 1), e + 1, known), name


def assert_log2_brackets_certified(seed):
    # 2^lo <= n^(2^p) < 2^hi = 2^(lo + 2) off the powers of two, read off
    # the bit length of the exact power
    rng = random.Random(seed)
    for p in range(1, 13):
        for n in [rng.randrange(1, 1 << rng.randrange(1, 40)) for _ in range(40)]:
            lo, hi = _log2_bracket(n, p)
            bits = (n ** (2**p)).bit_length()
            if n & (n - 1):
                assert lo < bits <= hi == lo + 2, (n, p)
            else:
                assert lo == hi == bits - 1, (n, p)


def test_log2_bracket_is_certified():
    assert_log2_brackets_certified(7)
    assert _log2_bracket(1 << 40, 5) == (40 << 5, 40 << 5)
    with pytest.raises(ValueError):
        _log2_bracket(0, 5)


def test_log2_bracket_holds_at_the_thinnest_guard(monkeypatch):
    # the round-down error stays below 4.5 2^-guard, under 1 at guard 3
    monkeypatch.setattr(bounds, "MANTISSA_GUARD", 3)
    assert_log2_brackets_certified(8)


def test_scanners_make_no_exact_comparison(exact):
    for d in [*range(1, 1001), *(1 << e for e in range(12, 64))]:
        trivial_upper_bound_n(d)
        refined_upper_bound_n(d)
    assert exact == []


def test_refined_constant_brackets_log2_double_factorial(monkeypatch):
    # the constant brackets 2^p log2 (2d-1)!!; at small p the Robbins
    # correction (about 1/(24 d ln 2)) is several units of 2^-p for small d.
    # The refined scanner brackets it once, at the top precision, and hands
    # _exceeds that bracket shifted down to each precision asked for
    shifted = []

    def capture(terms, bits, known=None):
        shifted.append(known[0])
        return _exceeds(terms, bits, known)

    monkeypatch.setattr(bounds, "_exceeds", capture)
    for d in range(1, 21):
        shifted.clear()
        refined_upper_bound_n(d)
        for p in range(2, 9):
            power = double_factorial(2 * d - 1) ** (2**p)
            for lo, hi in (_refined_constant(d, p), shifted[0](p)):
                assert 2**lo <= power <= 2**hi, (d, p)


def test_exceeds_decides_like_the_exact_product(exact):
    # seeded random products, exact ties and tied products times a known
    # factor, at precisions low enough that some brackets straddle 0
    rng = random.Random(15)
    cases = [((4, 3), (8, -2)), ((6, 2), (4, -1), (9, -1)), ((2, 0),), ((1, 40), (64, -1))]
    for _ in range(600):
        terms = [(rng.randint(1, 64), rng.randint(-40, 40)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:  # an exact tie: (ab)^w a^-w b^-w = 1
            a, b, w = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 5)
            terms[:] = [(a * b, w), (a, -w), (b, -w)] + terms[: rng.randint(0, 1)]
        rng.shuffle(terms)
        cases.append(tuple(terms))
    for i, terms in enumerate(cases):
        bits = i % 3
        known = None
        if i % 4 == 3:  # the known factor K = 3^v, against a term (3, -v)
            v = rng.randint(1, 20)
            terms += ((3, -v),)
            known = (lambda p, v=v: _log2_bracket(3**v, p), lambda v=v: 3**v)
        want = _product_exceeds(terms, known[1]() if known else 1)
        assert _exceeds(terms, bits, known) == want, terms
    # each case makes at most one exact comparison, so both paths ran
    assert 0 < len(exact) < len(cases)


def test_refined_constant_is_bracketed_once_per_d(monkeypatch):
    # the (2d-1)!! bracket is built once per d, at the top precision, and
    # shifted down to every precision the guess and the decider ask for
    calls = []

    def counted(d, p):
        calls.append(d)
        return _refined_constant(d, p)

    monkeypatch.setattr(bounds, "_refined_constant", counted)
    ds = [1 << e for e in range(17)] + [1000]
    for d in ds:
        refined_upper_bound_n(d)
    assert calls == ds


def test_ln2_literal_bracket():
    # ln 2 = sum_{k>=1} 1/(k 2^k); the tail after N terms is below 1/((N+1) 2^N)
    terms = bounds.LN2_BITS + 16
    partial = sum(Fraction(1, k << k) for k in range(1, terms + 1))
    tail = Fraction(1, (terms + 1) << terms)
    scale = 1 << bounds.LN2_BITS
    assert Fraction(bounds.LN2_LO, scale) < partial
    assert partial + tail < Fraction(bounds.LN2_HI, scale)


def test_no_module_has_float():
    # no float or complex literal, no float(), and nothing from math that
    # works on floats (math.log, math.log2, math.ceil, ...) in any module
    exact = {"lcm", "gcd", "comb", "factorial", "isqrt"}
    modules = sorted(Path(bounds.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where
            if isinstance(node, ast.Name):
                assert node.id != "float", where
            if isinstance(node, ast.Import):
                assert "math" not in [alias.name for alias in node.names], where
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {alias.name for alias in node.names} <= exact, where


def test_bounds_inequalities_all_go_through_the_decider():
    # _log2_bracket is called only by _exceeds, the (2d-1)!! bracket and
    # _guess, which decides no inequality: it only picks where the scanners'
    # searches start.  bounds imports nothing from the package but its errors
    tree = ast.parse(Path(bounds.__file__).read_text())
    callers = sorted(
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_log2_bracket"
    )
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_log2_bracket"]
    assert callers == ["_exceeds", "_guess", "_refined_constant"] and len(uses) == len(callers)
    imports = [(node.level, node.module) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.level or "torusvc" in node.module)]
    assert imports == [(1, "errors")]
    assert not any("torusvc" in alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names)


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
