"""Reference copy of the linear bound scanners that ``torusvc.bounds`` replaced.

Kept verbatim (float log2 prefilter, 64-value persistence window and all) so
that the tests can check the bisection scanners against the answers the
package gave before; it imports nothing from ``torusvc``.  Slow: O(answer)
probes per call.
"""

import math

PERSISTENCE_WINDOW = 64

# float log2 comparisons are trusted only outside this margin; anything
# closer falls through to the exact big-integer comparison, so the float
# path can never change a verdict (log2 error here is < 1e-9)
LOG_MARGIN = 0.5


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
