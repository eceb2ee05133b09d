"""Exact evaluation of the upper/lower bound formulas, on integers only.

Each upper-bound scanner finds the smallest n at which the shattering
inequality 2^n <= (count bound) breaks for good; VC is then at most n - 1,
because no n points can be shattered once the count is below 2^n.  Each
failure is written once, as integer terms (x, w) meaning prod x^w > 1, or
g(n) > 0 for the log-gap g(n) = sum w log2 x:

    stripe   2^n > d (n+1)^2                ((2, n), (d, -1), (n+1, -2))
    trivial  2^n > (n+1)^(2d)               ((2, n), (n+1, -2d))
    refined  2^n (2d-1)!! > 2^d n^(2d)      ((2, n-d), (n, -2d)) and (2d-1)!!

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
start the predicate g(n) > 0 runs False...False True...True, and its first
True is the answer.  Each scanner first estimates it (``_guess``'s Newton
steps on the proved slope for trivial and refined, bit lengths for stripe),
and ``_smallest_persistent`` gallops from the guess and bisects in
O(log |answer - guess|) probes.  The guess decides nothing: the answer is
the probe that holds next to one that fails, so a wrong guess only costs
probes.

Decider.  ``_exceeds`` decides g > 0 on an integer bracket of 2^P g, the
sum of w times ``_log2_bracket``'s bracket [lo, lo + 2) on 2^P log2 x,
which squares a fixed-point mantissa P times in one round-down pass.  It
tries P = b + 4, b + 32 and 2 (b + 32) for inputs of b bits, in turn, until
the bracket clears 0; the coarse first one settles every probe but those
next to the crossing.  Each bracket is certified, so whichever clears 0
gives the exact verdict, and if all three straddle 0, ``_product_exceeds``
compares the product with 1 exactly: no float is used and the paths cannot
disagree.  A known factor enters with its own bracket, computed once at
the top precision and shifted down: for (2d-1)!! = (2d)! / (2^d d!),
Stirling's formula with Robbins' remainder bounds 1/(12n+1) < r_n < 1/(12n)
(H. Robbins, "A remark on Stirling's formula", Amer. Math. Monthly 62
(1955) 26-29) gives

    log2 (2d-1)!! = d log2 d + d + 1/2 - (d - r_2d + r_d) / ln 2,

which is bracketed in O(1) big-integer operations with the literal bracket
LN2_LO/2^K <= ln 2 <= LN2_HI/2^K.  Trivial and refined have exact sides of
about 2d log2 n bits, and the extraction requirement (q - q/k)^(qm) >
q m^2 k^3 about qm log2 k bits, so they go through ``_exceeds``.  Stripe
goes straight to ``_product_exceeds``: its probes sit at its crossing near
log2 d, so both sides have O(log d) bits and one comparison costs no more
than a bracket would.

floor(log2 d) is taken via bit length.
"""

from fractions import Fraction

from .errors import NotCertified, PostconditionError

# ln 2 lies in [LN2_LO, LN2_HI] / 2^LN2_BITS (LN2_LO = floor(2^256 ln 2))
LN2_BITS = 256
LN2_LO = 80260960185991308862233904206310070533990667611589946606122867505419956976171
LN2_HI = 80260960185991308862233904206310070533990667611589946606122867505419956976172

# _exceeds first works at 2^-P with P = the inputs' bit length plus
# COARSE_BITS, where a box scanner's bracket is about 4d 2^-P < 1/4 wide, so
# it settles every probe but those next to a crossing; then with
# PRECISION_BITS, where the brackets only overlap zero on near-ties
COARSE_BITS = 4
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
    """Integers (lo, lo + 2) with lo <= 2^p log2 n < lo + 2 ((lo, lo) at a power of 2).

    With n = 2^e x, 1 <= x < 2, and y a fixed-point mantissa of x with
    f = p + MANTISSA_GUARD fraction bits: squaring y and halving it when it
    reaches 2 yields one bit b of log2 x per step, and every step rounds
    down.  So y <= x^(2^k) / 2^b with y >= 1, hence 2^p log2 x >= b.  Each
    floor keeps y >= 1 and so loses at most delta = -log2 (1 - 2^-f)
    <= 2^-f (1 + 2^-f) / ln 2 in log, and each squaring doubles the log
    error so far.  The start floors once and each step at most twice, so
    after p steps the error rho = log2 (x^(2^p) / 2^b) - log2 y is at most
    (3 2^p - 2) delta < 3 2^-MANTISSA_GUARD / ln 2 < 4.5 2^-MANTISSA_GUARD,
    under 1 for any guard >= 3.  With y < 2, 2^p log2 x < b + 1 + rho < b + 2.
    """
    if n < 1:
        raise ValueError("log2 needs a positive argument")
    e = n.bit_length() - 1
    if n == 1 << e:
        return e << p, e << p
    f = p + MANTISSA_GUARD
    two = 2 << f
    y, b = (n << f) >> e, 0
    for _ in range(p):
        y = (y * y) >> f
        b <<= 1
        if y >= two:
            y >>= 1
            b |= 1
    lo = (e << p) + b
    return lo, lo + 2


def _product_exceeds(terms, factor: int = 1) -> bool:
    """factor * prod x^w > 1 over the terms (x, w), in exact integers."""
    num, den = factor, 1
    for x, w in terms:
        if w >= 0:
            num *= x**w
        else:
            den *= x**-w
    return num > den


def _precisions(bits: int):
    """The precisions ``_exceeds`` tries in turn on inputs of this bit length."""
    fine = bits + PRECISION_BITS
    return bits + COARSE_BITS, fine, 2 * fine


def _exceeds(terms, bits: int, known=None) -> bool:
    """prod x^w > 1 over the terms (x, w), times K if ``known`` is (bracket, value):
    bracket(p) brackets 2^p log2 K at each precision p tried, and value() is K.

    Decided on brackets of 2^p sum w log2 x at each p of ``_precisions(bits)``,
    bits + COARSE_BITS, bits + PRECISION_BITS and twice that, until one clears
    0; if all three straddle 0, by ``_product_exceeds``.
    """
    for p in _precisions(bits):
        lo, hi = known[0](p) if known else (0, 0)
        for x, w in terms:
            x_lo, x_hi = _log2_bracket(x, p)
            if w < 0:
                x_lo, x_hi = x_hi, x_lo
            lo += w * x_lo
            hi += w * x_hi
        if lo > 0:
            return True
        if hi <= 0:
            return False
    return _product_exceeds(terms, known[1]() if known else 1)


def _smallest_persistent(exceeds, start: int = 1, guess=None) -> int:
    """Smallest n >= start with exceeds(n), for a predicate that runs
    False...False True...True from start on (the lemma in the module
    docstring); by monotonicity exceeds then holds for every larger n.

    Gallops from max(start, guess), down while the probe holds and up while
    it fails, doubling the step, then bisects: O(log |n - guess|) probes,
    none below start.  With no guess it gallops up from start.  The name
    is kept from the windowed linear scan this replaced, because the
    benchmark's tracer (``bench/tracer.py``) counts probes by wrapping this
    module-level function; the scanners call it through the module global.
    """
    probe = start if guess is None else max(start, guess)
    step = 1
    if exceeds(probe):
        hi = probe  # exceeds(hi) is True
        while True:
            if hi == start:
                return start
            lo = max(start, hi - step)
            if not exceeds(lo):
                break
            hi, step = lo, step << 1
    else:
        lo = probe  # exceeds(lo) is False
        while not exceeds(lo + step):
            lo += step
            step <<= 1
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exceeds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _guess(d: int, terms, start: int, known=None) -> int:
    """An estimate of a box scanner's crossing c, from its terms(n) and
    ``known`` as in ``_exceeds``, by Newton steps n <- max(start, n - g(n)/s)
    on 2^p g and 2^p s, each rounded down, with p = bit_length(d) + 8.  g is
    summed from the brackets' lower ends, off by under 1/32.  Both scanners'
    terms are (2, n - d or n) and the growing term (x, w), (n + 1, -2d) for
    trivial and (n, -2d) for refined, so g' = 1 + w / (x ln 2), from LN2_LO.

    Lemma.  From the start 2d (L + 1 + bit_length(L + 1)) >= 6d on, with
    L = bit_length(d), every iterate lies past g's minimum at x = 2d/ln 2,
    where g is convex and increasing and g' is concave.  The tangent at n
    lies under g, so the first step, with s = g'(n), lands at or past c from
    either side.  The later steps, from n > c, take s = g'(m) at the midpoint
    m of n and that Newton target, so m >= (n + c) / 2 and s is at least the
    chord slope (g(n) - g(c)) / (n - c): they land at or past c too.  So the
    iterates fall towards c, the error about cubing each step, where plain
    Newton steps square it (5 evaluations of g at d = 2^200, not 4).  They
    stop once a step no longer decreases n, or once a step of t to n has
    d t^2 < n^2, so that the next plain step, g'' t^2 / 2g', would be a few
    units at most.  Rounding only moves where they stop, so it costs probes,
    never a verdict: the scanner probes the crossing's two sides through
    ``_exceeds``.
    """
    bits = d.bit_length()
    p = bits + 8
    offset = known[0](p)[0] if known else 0

    def slope(x, w):
        return (1 << p) + (w << (p + LN2_BITS)) // (x * LN2_LO)

    def step(n, midpoint):
        parts = terms(n)  # one evaluation of g
        x, w = parts[-1]
        gap = offset + sum(v * _log2_bracket(y, p)[0] for y, v in parts)
        target = max(start, n - gap // slope(x, w))
        if midpoint:  # x - n is the same at every n
            target = max(start, n - gap // slope(x + (target - n) // 2, w))
        return target

    n = step(max(start, 2 * d * (bits + 1 + (bits + 1).bit_length())), False)
    while (m := step(n, True)) < n and d * (n - m) ** 2 >= m * m:
        n = m
    return min(n, m)


def stripe_upper_bound_n(d: int) -> int:
    """Smallest n with 2^n > d (n+1)^2 (for it and all larger n); VC(stripes_l) <= n - 1.

    Count lemma: open arcs of one length trace at most 2n subsets of n >= 1 points on a circle:
    a trace changes only at the <= 2n places where an end meets a point, and is new there only if
    a point leaves as one enters. So stripes_l trace at most 2nd in T^d (this scan: d (n+1)^2)."""
    if d < 1:
        raise ValueError("d must be positive")
    # 2^n > d (n+1)^2 just when n >= bit_length(d (n+1)^2), which rises
    # with n, so iterating it from 0 climbs to the crossing
    guess = 0
    while guess < (rise := (d * (guess + 1) ** 2).bit_length()):
        guess = rise
    return _smallest_persistent(
        lambda n: _product_exceeds(((2, n), (d, -1), (n + 1, -2))), 1, guess)


def trivial_upper_bound_n(d: int) -> int:
    """Smallest n with 2^n > (n+1)^(2d) (for it and all larger n); VC(boxes) <= n - 1."""
    if d < 1:
        raise ValueError("d must be positive")
    bits = d.bit_length()

    def terms(n):
        return (2, n), (n + 1, -2 * d)

    return _smallest_persistent(lambda n: _exceeds(terms(n), bits), 1, _guess(d, terms, 1))


def _refined_constant(d: int, p: int):
    """Bracket on 2^p log2 (2d-1)!! = 2^p (d log2 d + d + 1/2 - (d - r_2d + r_d) / ln 2),
    the Stirling-Robbins identity in the module docstring.

    Robbins' bounds put r_d - r_2d strictly between (12d-1) / (24d(12d+1))
    and (12d+1) / (12d(24d+1)), each kept as a numerator over a denominator.
    """
    den_lo, den_hi = 24 * d * (12 * d + 1), 12 * d * (24 * d + 1)
    scale = 1 << (p + LN2_BITS)
    # floor and ceiling of 2^p c / ln 2, c = d + r_d - r_2d, over the ln 2 bracket
    div_lo = (scale * (d * den_lo + 12 * d - 1)) // (den_lo * LN2_HI)
    div_hi = -((-scale * (d * den_hi + 12 * d + 1)) // (den_hi * LN2_LO))
    log_lo, log_hi = _log2_bracket(d, p)
    rest = (d << p) + (1 << (p - 1))
    return rest + d * log_lo - div_hi, rest + d * log_hi - div_lo


def _refined_start(d: int) -> int:
    """ceil(2d 2^LN2_BITS / LN2_LO): an integer >= 2d/ln 2, where g is least."""
    return -((-2 * d << LN2_BITS) // LN2_LO)


def refined_upper_bound_n(d: int) -> int:
    """Smallest n >= n0 with 2^n (2d-1)!! > 2^d n^(2d) (for it and all larger n);
    VC(boxes) <= n - 1.

    This is the exact version of the refined count 2^d n^(2d) / (2d-1)!!.
    The scan starts at n0 = ``_refined_start(d)``, past the minimum of the
    log-gap, so it never latches onto the small-n range where the count is
    below 1.
    """
    if d < 1:
        raise ValueError("d must be positive")
    bits = d.bit_length()
    top = _precisions(bits)[-1]
    c_lo, c_hi = _refined_constant(d, top)

    def terms(n):
        return (2, n - d), (n, -2 * d)

    def constant(p):
        """The top bracket shifted down to precision p: floor for lo, ceiling for hi."""
        return c_lo >> (top - p), -(-c_hi >> (top - p))

    known = (constant, lambda: double_factorial(2 * d - 1))
    start = _refined_start(d)
    return _smallest_persistent(lambda n: _exceeds(terms(n), bits, known), start,
                                _guess(d, terms, start, known))


class BoundParams:
    """Parameters of the random extraction-matrix construction; immutable like a torus.Value."""

    def __init__(self, d: int, f: int, q: Fraction, m: int, k: int, c: int, d_prime: int,
                 condition_ok: bool, ext_req_ok: bool):
        vars(self).update(d=d, f=f, q=q, m=m, k=k, c=c, d_prime=d_prime,
                          condition_ok=condition_ok, ext_req_ok=ext_req_ok)

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def choose_parameters(d: int) -> BoundParams:
    """f = floor(log2 d), q = 1 + 1/f, m = 24 f^2, k = floor(d / (qm)), c = mk;
    qm = 24 (f+1) f is an integer.
    """
    if d < 2:
        raise ValueError("d too small: it must be at least 2")
    f = floor_log2(d)
    q = 1 + Fraction(1, f)
    m = 24 * f * f
    qm = 24 * (f + 1) * f
    k = d // qm
    if k == 0:
        raise ValueError(f"d too small for f={f}: k would be 0")
    c = m * k
    d_prime = qm * k
    if q * m != qm or d_prime > d:
        raise PostconditionError(f"qm = {q * m} is not {qm} or d' = {d_prime} > d = {d}")
    condition_ok = d > 48 * (f + 2) ** 2 * f
    return BoundParams(d, f, q, m, k, c, d_prime, condition_ok, _ext_req_holds(q, m, k))


def _ext_req_holds(q: Fraction, m: int, k: int) -> bool:
    """(q - q/k)^(qm) > q m^2 k^3 for an integral qm; k = 1 makes the left side 0."""
    a, b, qm = q.numerator, q.denominator, int(q * m)
    # q - q/k = a (k-1) / (b k)
    terms = ((a * (k - 1), qm), (b * k, -qm), (b, 1), (a * m * m * k**3, -1))
    return k > 1 and _exceeds(terms, qm.bit_length())


def _lower_bound(d: int):
    """(c (floor(log2 k) + 1), None) if certified at d, else (None, why not).

    Raises ValueError, as ``choose_parameters`` does, when d is too small.
    """
    params = choose_parameters(d)
    if not params.condition_ok:
        return None, "parameter condition fails"
    if not params.ext_req_ok:
        return None, "extraction requirement fails"
    return params.c * (floor_log2(params.k) + 1), None


def lower_bound_value(d: int) -> int:
    """Constructive lower bound c * (floor(log2 k) + 1) on VC of cubes in T^d.

    Certified only when the parameter condition and the extraction
    requirement both hold at these parameters.
    """
    value, reason = _lower_bound(d)
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
        try:
            lower, reason = _lower_bound(d)
        except ValueError as exc:
            lower, reason = None, str(exc)
        if reason is not None and reasons is not None:
            reasons.append((d, reason))
        rows.append((d, stripe_upper_bound_n(d) - 1, trivial_upper_bound_n(d) - 1,
                     refined_upper_bound_n(d) - 1, lower))
    return rows
