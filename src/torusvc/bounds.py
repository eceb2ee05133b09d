"""Exact big-integer evaluation of the upper/lower bound formulas.

Each upper-bound scanner finds the smallest n at which the shattering
inequality 2^n <= (count bound) breaks and stays broken for a window of 64
consecutive values; VC is then certified to be at most n - 1.  Everything
is integer or rational arithmetic; floor(log2 d) is taken via bit length.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotCertified, PostconditionError
from .extraction import verify_ext_req

PERSISTENCE_WINDOW = 64

# float log2 comparisons are trusted only outside this margin; anything
# closer falls through to the exact big-integer comparison, so the float
# path can never change a verdict (log2 error here is < 1e-9)
LOG_MARGIN = 0.5


def floor_log2(d: int) -> int:
    if d < 1:
        raise ValueError("log2 needs a positive argument")
    return d.bit_length() - 1


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)...; empty product for n <= 0."""
    if n <= 0:
        return 1
    if n % 2:
        m = (n + 1) // 2
        return math.factorial(2 * m) // (2**m * math.factorial(m))
    m = n // 2
    return 2**m * math.factorial(m)


def _smallest_persistent(exceeds, start: int = 1) -> int:
    """Smallest n >= start with exceeds(j) for all j in [n, n + window]."""
    streak_start = None
    j = start
    while True:
        if exceeds(j):
            if streak_start is None:
                streak_start = j
            if j - streak_start >= PERSISTENCE_WINDOW:
                return streak_start
        else:
            streak_start = None
        j += 1


def stripe_upper_bound_n(d: int) -> int:
    """Smallest persistent n with 2^n > d (n+1)^2; VC(stripes_l) <= n - 1."""
    if d < 1:
        raise ValueError("d must be positive")
    return _smallest_persistent(lambda n: 2**n > d * (n + 1) ** 2)


def trivial_upper_bound_n(d: int) -> int:
    """Smallest persistent n with 2^n > (n+1)^(2d); VC(boxes) <= n - 1."""
    if d < 1:
        raise ValueError("d must be positive")

    def exceeds(n):
        rhs_log = 2 * d * math.log2(n + 1)
        if n > rhs_log + LOG_MARGIN:
            return True
        if n < rhs_log - LOG_MARGIN:
            return False
        return 2**n > (n + 1) ** (2 * d)

    return _smallest_persistent(exceeds)


def refined_upper_bound_n(d: int) -> int:
    """Smallest persistent n with 2^n (2d-1)!! > 2^d n^(2d); VC(boxes) <= n - 1.

    This is the exact version of the refined count 2^d n^(2d) / (2d-1)!!,
    compared without any Stirling approximation near the threshold.
    """
    if d < 1:
        raise ValueError("d must be positive")
    dfact = double_factorial(2 * d - 1)
    pow2d = 2**d
    # bit_length brackets log2(dfact) within 1, enough for the prefilter
    dfact_log_lo = dfact.bit_length() - 1
    dfact_log_hi = dfact.bit_length()

    def exceeds(n):
        rhs_log = d + 2 * d * math.log2(n)
        if n + dfact_log_lo > rhs_log + LOG_MARGIN:
            return True
        if n + dfact_log_hi < rhs_log - LOG_MARGIN:
            return False
        return 2**n * dfact > pow2d * n ** (2 * d)

    # the log-gap n + log2((2d-1)!!) - d - 2d log2 n is convex, so its
    # nonpositive set is one interval; for very large d the count dips below
    # 1 initially, and starting at the minimizer 2d/ln 2 keeps the scan from
    # latching onto that degenerate leading streak
    start = max(1, math.ceil(2 * d / math.log(2)))
    return _smallest_persistent(exceeds, start)


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
        raise ValueError("d must be at least 2")
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
        raise ValueError(f"d={d} too small for f={f} (k would be 0)")
    c = m * k
    qm = q * m
    d_prime = int(qm) * k
    if qm.denominator != 1 or d_prime > d:
        raise PostconditionError(f"qm = {qm} is not an integer or d' = {d_prime} > d = {d}")
    condition_ok = Fraction(d, log) > 48 * (f + 2) ** 2
    ext_req_ok = verify_ext_req(q, m, k)
    return BoundParams(d, f, q, m, k, c, d_prime, condition_ok, ext_req_ok)


def lower_bound_value(d: int, f_override: int = None) -> int:
    """Constructive lower bound c * (floor(log2 k) + 1) on VC of cubes in T^d.

    Certified only when the parameter condition and the extraction
    requirement both hold at these parameters.
    """
    params = choose_parameters(d, f_override)
    if not params.condition_ok:
        raise NotCertified(f"bound not certified at d={d}: parameter condition fails")
    if not params.ext_req_ok:
        raise NotCertified(
            f"bound not certified at d={d}: extraction requirement fails"
        )
    return params.c * (floor_log2(params.k) + 1)


def bounds_table(d_list):
    """Rows (d, stripe_ub, trivial_ub, refined_ub, lower_bound_or_None).

    The three upper-bound columns are certified VC upper bounds (scanner
    result minus one).
    """
    rows = []
    for d in d_list:
        if d < 1:
            raise ValueError("d must be positive")
        try:
            lower = lower_bound_value(d)
        except (NotCertified, ValueError):
            lower = None
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
