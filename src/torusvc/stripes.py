"""Lower-bound construction for stripes.

n+1 points in dimension 2^n, shattered by stripes of any fixed length l.
Dimension i (0-indexed) is associated with the complementary subset pair
{C_i, C \\ C_i}, where the canonical representative C_i is the subset of
points {1..n} whose membership bits are the bits of i (point 0 is never in
a representative).  In dimension i the points of C_i sit at (1-l)/3 and
everybody else at (2+l)/3; the two values are further than l apart going
forward, so a stripe anchored there can pick out either side.
"""

from fractions import Fraction
from math import lcm

from .torus import ONE, Arc, PointSet, Rat, Stripe, _check_coord

Mask = int


def low_value(l: Rat) -> Rat:
    return (1 - l) / 3


def high_value(l: Rat) -> Rat:
    return (2 + l) / 3


def pair_rep(subset: Mask, n_points: int) -> Mask:
    """Canonical representative of {S, complement}: the side without point 0."""
    if subset & 1:
        return ~subset & ((1 << n_points) - 1)
    return subset


def _check_length(l: Rat):
    if not (0 < l < 1):
        raise ValueError(f"stripe length {l} outside (0,1)")
    _check_coord(l, "stripe length")  # refuses a float
    return l


def build_stripe_shattered_set(n: int, l: Rat, ambient_dim: int = None) -> PointSet:
    """n+1 points in T^{2^n} shattered by stripes of length l.

    With ambient_dim >= 2^n the construction is embedded: the extra
    dimensions hold every point at (2+l)/3, so stripes anchored in the
    first 2^n dimensions still witness shattering.
    """
    if n < 1:
        raise ValueError("n must be positive")
    l = _check_length(l)
    d = 1 << n
    if ambient_dim is None:
        ambient_dim = d
    if ambient_dim < d:
        raise ValueError(f"ambient dimension {ambient_dim} < 2^{n}")
    lo, hi = low_value(l), high_value(l)
    denom = lcm(lo.denominator, hi.denominator)
    points = []
    for p in range(n + 1):
        coords = []
        for i in range(ambient_dim):
            if i < d and p > 0 and i >> (p - 1) & 1:
                coords.append(lo)
            else:
                coords.append(hi)
        points.append(tuple(coords))
    return PointSet(ambient_dim, denom, tuple(points))


def stripe_witness(n: int, l: Rat, subset: Mask, ambient_dim: int = None) -> Stripe:
    """A stripe of length l realizing the subset on the constructed set.

    It is anchored in the dimension of the subset's pair, rep >> 1, where
    the representative sits at (1-l)/3 and its complement at (2+l)/3.  The
    empty set takes the open arc from the low value, which holds neither
    value since they are further than l apart; a side takes the arc
    centered on its value, clipped into [0, 1].  So no arc wraps past 1,
    which the lifting construction relies on when scaling arcs into group
    cells.
    """
    l = _check_length(l)
    n_points = n + 1
    if subset < 0 or subset >> n_points:
        raise ValueError(f"mask {subset:#x} out of range for {n_points} points")
    if ambient_dim is None:
        ambient_dim = 1 << n
    rep = pair_rep(subset, n_points)
    if subset == 0:
        start = low_value(l)
    elif subset == rep:
        start = max(Fraction(0), low_value(l) - l / 2)
    else:
        start = min(high_value(l) - l / 2, 1 - l)
    return Stripe(rep >> 1, Arc(start, (start + l) % ONE, closed=False), ambient_dim)
