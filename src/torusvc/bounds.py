"""Exact evaluation of the upper/lower bound formulas, on integers only.

Each upper-bound scanner finds the smallest n at which the shattering
inequality 2^n <= (count bound) breaks for good; VC is then at most n - 1,
because no n points can be shattered once the count is below 2^n.  Writing
the inequality's failure as g(n) > 0 for a log-gap g:

    stripe   2^n > d (n+1)^2                g(n) = n - log2 d - 2 log2(n+1)
    trivial  2^n > (n+1)^(2d)               g(n) = n - 2d log2(n+1)
    refined  2^n (2d-1)!! > 2^d n^(2d)      g(n) = n + log2 (2d-1)!! - d - 2d log2 n

Ranges.  An arc traces at most n^2 - n + 2 <= (n+1)^2 distinct subsets on
n points of a circle, so d (n+1)^2 bounds the stripe growth function and
(n+1)^(2d) the box growth function at every n >= 0.  The refined count is
the paper's sharper count for boxes; it dips below 1 at small n once d is
large, so it is only read for n >= n0 (below), where it increases with n.

Lemma (one crossing).  Each g is convex, since -log2 is.  For stripe and
trivial g(0) <= 0 (it is -log2 d and 0), so if g(a) > 0 and b > a > 0,
convexity gives g(a) <= (1 - a/b) g(0) + (a/b) g(b) <= (a/b) g(b), hence
g(b) > 0.  For refined g'(n) = 1 - 2d/(n ln 2) >= 0 once n >= 2d/ln 2, so g
is increasing from n0 = ceil(2d 2^K / LN2_LO) >= 2d/ln 2 on, where
K = LN2_BITS and LN2_LO / 2^K is a lower bound on ln 2.  So from the scan's
start the predicate g(n) > 0 runs False...False True...True, its first
True is the answer, and ``_smallest_persistent`` finds it by exponential
search and bisection in O(log answer) probes.

Brackets.  A probe decides g(n) > 0 from an integer bracket on 2^P g(n).
``_log2_bracket`` brackets 2^P log2 x by squaring a fixed-point mantissa P
times, once rounding down and once rounding up.  For refined, Stirling's
formula with Robbins' remainder bounds 1/(12n+1) < r_n < 1/(12n)
(H. Robbins, "A remark on Stirling's formula", Amer. Math. Monthly 62
(1955) 26-29) gives, from (2d-1)!! = (2d)! / (2^d d!),

    log2 (2d-1)!! = d log2 d + d + 1/2 - (d - r_2d + r_d) / ln 2,

which is bracketed in O(1) big-integer operations with the literal bracket
LN2_LO/2^K <= ln 2 <= LN2_HI/2^K.  If the bracket straddles 0 the probe
retries at precision 2P, and if it still does, it falls back to the exact
big-integer comparison of the inequality above.  No float is used.

floor(log2 d) is taken via bit length.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotCertified, PostconditionError
from .extraction import verify_ext_req

# ln 2 lies in [LN2_LO, LN2_HI] / 2^LN2_BITS (LN2_LO = floor(2^256 ln 2))
LN2_BITS = 256
LN2_LO = 80260960185991308862233904206310070533990667611589946606122867505419956976171
LN2_HI = 80260960185991308862233904206310070533990667611589946606122867505419956976172

# a probe first works at 2^-P with P = bit length of d plus these bits; the
# brackets' errors are a few multiples of d 2^-P, so they only overlap zero
# on near-ties
PRECISION_BITS = 32
# fixed-point mantissa bits beyond P in _log2_bracket
MANTISSA_GUARD = 16


def floor_log2(d: int) -> int:
    if d < 1:
        raise ValueError("log2 needs a positive argument")
    return d.bit_length() - 1


def _product(first: int, count: int, step: int) -> int:
    """first * (first + step) * ... (count factors), as a balanced product tree."""
    if count <= 16:
        result = 1
        for k in range(first, first + count * step, step):
            result *= k
        return result
    half = count // 2
    return _product(first, half, step) * _product(first + half * step, count - half, step)


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)...; empty product for n <= 0."""
    if n <= 0:
        return 1
    return _product(2 - n % 2, (n + 1) // 2, 2)


def _log2_bracket(n: int, p: int):
    """Integers (lo, hi) with lo <= 2^p log2 n <= hi, about 1 apart.

    With n = 2^e x, 1 <= x < 2, and y a fixed-point mantissa of x: squaring
    y and halving it when it reaches 2 yields one bit of log2 x per step.
    Rounding every step down keeps y <= x^(2^k) / 2^b with y >= 1, so
    2^p log2 x >= b; rounding up keeps y >= x^(2^k) / 2^b with y < 2, so
    2^p log2 x < b + 1.
    """
    if n < 1:
        raise ValueError("log2 needs a positive argument")
    e = n.bit_length() - 1
    if n == 1 << e:
        return e << p, e << p
    f = p + MANTISSA_GUARD
    two = 2 << f
    ends = []
    for up in (0, 1):  # round every step down, then every step up
        y, b, carry = ((n << f) + up * ((1 << e) - 1)) >> e, 0, up * ((1 << f) - 1)
        for _ in range(p):
            y = (y * y + carry) >> f
            b <<= 1
            if y >= two:
                y = (y + up) >> 1
                b |= 1
        ends.append((e << p) + b + up)
    return tuple(ends)


def _precisions(d: int):
    p = d.bit_length() + PRECISION_BITS
    return p, 2 * p


def _prober(gap, precisions, exact):
    """exceeds(n) <=> g(n) > 0, where gap(n, p) brackets 2^p g(n) in integers.

    An overlap with 0 at every precision is settled by ``exact(n)`` only.
    """

    def exceeds(n):
        for p in precisions:
            lo, hi = gap(n, p)
            if lo > 0:
                return True
            if hi <= 0:
                return False
        return exact(n)

    return exceeds


def _smallest_persistent(exceeds, start: int = 1) -> int:
    """Smallest n >= start with exceeds(n), for a predicate that runs
    False...False True...True from start on (the lemma in the module
    docstring); by monotonicity exceeds then holds for every larger n.

    Exponential search then bisection: O(log(n - start)) probes.  The name
    is kept from the windowed linear scan this replaced, because the
    benchmark's tracer (``bench/tracer.py``) counts probes by wrapping this
    module-level function; the scanners call it through the module global.
    """
    if exceeds(start):
        return start
    lo, step = start, 1  # exceeds(lo) is False
    while not exceeds(lo + step):
        lo += step
        step <<= 1
    hi = lo + step  # exceeds(hi) is True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exceeds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def stripe_upper_bound_n(d: int) -> int:
    """Smallest n with 2^n > d (n+1)^2 (for it and all larger n); VC(stripes_l) <= n - 1."""
    if d < 1:
        raise ValueError("d must be positive")
    precisions = _precisions(d)
    log_d = {p: _log2_bracket(d, p) for p in precisions}

    def gap(n, p):
        d_lo, d_hi = log_d[p]
        lo, hi = _log2_bracket(n + 1, p)
        return (n << p) - d_hi - 2 * hi, (n << p) - d_lo - 2 * lo

    def exact(n):
        return 2**n > d * (n + 1) ** 2

    return _smallest_persistent(_prober(gap, precisions, exact))


def trivial_upper_bound_n(d: int) -> int:
    """Smallest n with 2^n > (n+1)^(2d) (for it and all larger n); VC(boxes) <= n - 1."""
    if d < 1:
        raise ValueError("d must be positive")

    def gap(n, p):
        lo, hi = _log2_bracket(n + 1, p)
        return (n << p) - 2 * d * hi, (n << p) - 2 * d * lo

    def exact(n):
        return 2**n > (n + 1) ** (2 * d)

    return _smallest_persistent(_prober(gap, _precisions(d), exact))


def _refined_constant(d: int, p: int):
    """Bracket on 2^p (1/2 + d log2 d - (d - r_2d + r_d) / ln 2).

    This is 2^p (g(n) - n + 2d log2 n) for the refined gap g, by the
    Stirling-Robbins identity for log2 (2d-1)!! in the module docstring.
    Robbins' bounds put r_d - r_2d strictly between (12d-1) / (24d(12d+1))
    and (12d+1) / (12d(24d+1)).
    """
    c_lo = d + Fraction(12 * d - 1, 24 * d * (12 * d + 1))
    c_hi = d + Fraction(12 * d + 1, 12 * d * (24 * d + 1))
    scale = 1 << (p + LN2_BITS)
    # floor and ceiling of 2^p c / ln 2 over the ln 2 bracket
    div_lo = (scale * c_lo.numerator) // (c_lo.denominator * LN2_HI)
    div_hi = -((-scale * c_hi.numerator) // (c_hi.denominator * LN2_LO))
    log_lo, log_hi = _log2_bracket(d, p)
    half = 1 << (p - 1)
    return half + d * log_lo - div_hi, half + d * log_hi - div_lo


def _refined_start(d: int) -> int:
    """ceil(2d 2^LN2_BITS / LN2_LO): an integer >= 2d/ln 2, where g is least."""
    return -((-2 * d << LN2_BITS) // LN2_LO)


def refined_upper_bound_n(d: int) -> int:
    """Smallest n >= n0 with 2^n (2d-1)!! > 2^d n^(2d) (for it and all larger n);
    VC(boxes) <= n - 1.

    This is the exact version of the refined count 2^d n^(2d) / (2d-1)!!:
    probes are decided on certified integer brackets of its logarithm, and
    a near-tie falls back to this very big-integer inequality.  The scan
    starts at n0 = ``_refined_start(d)``, past the minimum of the log-gap,
    so it never latches onto the small-n range where the count is below 1.
    """
    if d < 1:
        raise ValueError("d must be positive")
    precisions = _precisions(d)
    constant = {p: _refined_constant(d, p) for p in precisions}

    def gap(n, p):
        c_lo, c_hi = constant[p]
        lo, hi = _log2_bracket(n, p)
        return (n << p) + c_lo - 2 * d * hi, (n << p) + c_hi - 2 * d * lo

    def exact(n):
        return 2**n * double_factorial(2 * d - 1) > 2**d * n ** (2 * d)

    return _smallest_persistent(_prober(gap, precisions, exact), _refined_start(d))


@dataclass
class BoundParams:
    """Parameter bundle for the random extraction-matrix construction."""

    d: int
    f: int
    q: Fraction
    m: int
    k: int
    c: int
    d_prime: int
    condition_ok: bool
    ext_req_ok: bool


def choose_parameters(d: int, f_override: int = None) -> BoundParams:
    """q = 1 + 1/f, m = 24 f floor(log2 d), k = floor(d / (mq)), c = mk.

    With the default f = floor(log2 d), qm = 24 (f+1) floor(log2 d) is
    automatically an integer; an overriding f rounds m up to the nearest
    multiple of f to keep it so.
    """
    if d < 2:
        raise ValueError("d too small: it must be at least 2")
    log = floor_log2(d)
    f = f_override if f_override is not None else log
    if f < 1:
        raise ValueError("f must be positive")
    q = 1 + Fraction(1, f)
    m = 24 * f * log
    if m % f:
        m += f - m % f
    k = int(Fraction(d) / (m * q))
    if k == 0:
        raise ValueError(f"d too small for f={f}: k would be 0")
    c = m * k
    qm = q * m
    d_prime = int(qm) * k
    if qm.denominator != 1 or d_prime > d:
        raise PostconditionError(f"qm = {qm} is not an integer or d' = {d_prime} > d = {d}")
    condition_ok = Fraction(d, log) > 48 * (f + 2) ** 2
    ext_req_ok = verify_ext_req(q, m, k)
    return BoundParams(d, f, q, m, k, c, d_prime, condition_ok, ext_req_ok)


def _lower_bound(d: int, f_override: int = None):
    """(c (floor(log2 k) + 1), None) if certified at d, else (None, why not).

    Raises ValueError, as ``choose_parameters`` does, when d is too small.
    """
    params = choose_parameters(d, f_override)
    if not params.condition_ok:
        return None, "parameter condition fails"
    if not params.ext_req_ok:
        return None, "extraction requirement fails"
    return params.c * (floor_log2(params.k) + 1), None


def lower_bound_value(d: int, f_override: int = None) -> int:
    """Constructive lower bound c * (floor(log2 k) + 1) on VC of cubes in T^d.

    Certified only when the parameter condition and the extraction
    requirement both hold at these parameters.
    """
    value, reason = _lower_bound(d, f_override)
    if reason is not None:
        raise NotCertified(f"bound not certified at d={d}: {reason}")
    return value


def bounds_table(d_list, reasons=None):
    """Rows (d, stripe_ub, trivial_ub, refined_ub, lower_bound_or_None).

    The three upper-bound columns are certified VC upper bounds (scanner
    result minus one).  If ``reasons`` is a list, it receives a pair
    (d, why) for each row whose lower bound is None: d too small for the
    parameters, or the parameter condition or the extraction requirement
    failing.
    """
    rows = []
    for d in d_list:
        if d < 1:
            raise ValueError("d must be positive")
        try:
            lower, reason = _lower_bound(d)
        except ValueError as exc:
            lower, reason = None, str(exc)
        if reason is not None and reasons is not None:
            reasons.append((d, reason))
        rows.append(
            (
                d,
                stripe_upper_bound_n(d) - 1,
                trivial_upper_bound_n(d) - 1,
                refined_upper_bound_n(d) - 1,
                lower,
            )
        )
    return rows
