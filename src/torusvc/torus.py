"""Exact rational geometry on the circle and its d-fold products.

All coordinates are `fractions.Fraction` values (or ints) in [0, 1); a
float is refused.  An arc is a proper sub-interval of the circle; an arc
whose start exceeds its end wraps through 0.  Each arc carries its grid
form (s, e, w, q), computed once: start s/q, end e/q and length w/q over
q = lcm of the endpoint denominators, so the cube edge check, coverage and
certificate output multiply integers.  Boxes are products of closed arcs,
cubes are boxes whose arcs share a common length, and stripes are products
of full circles with a single open arc in one anchor dimension.  Nothing
in this module rounds.  arc_contains is the package's one containment
rule; covered_mask, built on it, checks every witness and certificate
line, and this module imports nothing from the package.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

Rat = Fraction

ONE = Fraction(1)


def _check_coord(x: Rat, what: str = "coordinate") -> None:
    # an exact type test: Arc runs it for every witness, and a float never passes
    if type(x) is not Fraction and type(x) is not int:
        raise ValueError(f"{what} {x!r} is not a Fraction or an int")
    if not 0 <= x.numerator < x.denominator:
        raise ValueError(f"{what} {x} outside [0,1)")


@dataclass(frozen=True)
class Arc:
    """A proper arc of the circle; wraps through 0 when start > end."""

    start: Rat
    end: Rat
    closed: bool = True
    # end - start, or 1 - start + end when wrapping; computed once
    length: Rat = field(init=False, repr=False, compare=False)
    # (s, e, w, q): start s/q, end e/q, length w/q, q = lcm of the endpoint denominators
    grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        start, end = self.start, self.end
        _check_coord(start, "arc start")
        _check_coord(end, "arc end")
        sq, eq = start.denominator, end.denominator
        q = lcm(sq, eq)
        s, e = start.numerator * (q // sq), end.numerator * (q // eq)
        if s == e:
            raise ValueError("degenerate or full-circle arc is not allowed")
        w = e - s if s < e else q - s + e
        object.__setattr__(self, "length", Fraction(w, q))
        object.__setattr__(self, "grid", (s, e, w, q))


def arc_length(arc: Arc) -> Rat:
    """Length of the arc: end - start, or 1 - start + end when wrapping."""
    return arc.length


def arc_contains(arc: Arc, x: Rat) -> bool:
    """Exact containment respecting wrap-around and the closure flag, by
    integer products: x = y/r against the grid ends s/q and e/q."""
    _check_coord(x)
    s, e, _, q = arc.grid
    y, r = x.numerator * q, x.denominator
    lo, hi = (s * r <= y, y <= e * r) if arc.closed else (s * r < y, y < e * r)
    return (lo and hi) if s < e else (lo or hi)


def arc_complement(arc: Arc) -> Arc:
    """The complementary arc, with flipped closure."""
    return Arc(arc.end, arc.start, closed=not arc.closed)


@dataclass(frozen=True)
class Box:
    """Product of d closed arcs on the torus."""

    arcs: tuple

    def __post_init__(self):
        if len(self.arcs) < 1:
            raise ValueError("box needs at least one dimension")
        for a in self.arcs:
            if not a.closed:
                raise ValueError("box factors must be closed arcs")

    @property
    def dim(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class Cube(Box):
    """Box whose arcs all have the same length, its edge."""

    edge: Rat = field(init=False)

    def __post_init__(self):
        # one pass; on a fault Box's checks run first, so their messages outrank the edge's
        if not self.arcs:
            Box.__post_init__(self)
        object.__setattr__(self, "edge", self.arcs[0].length)
        num, den = self.edge.numerator, self.edge.denominator
        for a in self.arcs:
            _, _, w, q = a.grid
            if w * den != num * q or not a.closed:
                Box.__post_init__(self)
                raise ValueError("cube arcs must all have the edge length")


@dataclass(frozen=True)
class Stripe:
    """Full circles in every dimension except one open arc in anchor_dim.

    anchor_dim is 0-indexed.
    """

    anchor_dim: int
    arc: Arc
    ambient_dim: int

    def __post_init__(self):
        if not 0 <= self.anchor_dim < self.ambient_dim:
            raise ValueError("anchor dimension out of range")
        if self.arc.closed:
            raise ValueError("stripe cross-section must be an open arc")


def shape_factors(shape, dim: int):
    """(j, arc) for each dimension j the shape constrains: every dimension
    of a box or a cube, the anchor of a stripe.  The shape's dimension must
    be the points' dim."""
    if isinstance(shape, Stripe):
        shape_dim, factors = shape.ambient_dim, ((shape.anchor_dim, shape.arc),)
    else:
        shape_dim, factors = shape.dim, enumerate(shape.arcs)
    if shape_dim != dim:
        raise ValueError(f"point dimension {dim} != shape dimension {shape_dim}")
    return factors


def shape_contains(shape, p) -> bool:
    """Containment for any of Box, Cube, Stripe."""
    return all(arc_contains(arc, p[j]) for j, arc in shape_factors(shape, len(p)))


@dataclass(frozen=True)
class PointSet:
    """A finite configuration on the d-torus, all coordinates on a 1/D grid."""

    dim: int
    denom: int
    points: tuple
    # integer view: cols[j][i] is D times point i's coordinate in dimension j
    cols: tuple = field(init=False, repr=False, compare=False)
    # {(j, arc.grid, arc.closed): mask of the points in the arc}, covered_mask's cache
    covers: dict = field(init=False, repr=False, compare=False)
    # {family: its shatter tables}, shatter._family_tables's cache
    tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.denom < 1:
            raise ValueError("denominator must be positive")
        cols = [[] for _ in range(self.dim)]
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point dimension mismatch")
            for col, x in zip(cols, p):
                _check_coord(x)
                scaled = x * self.denom
                if scaled.denominator != 1:
                    raise ValueError(f"coordinate {x} not on the 1/{self.denom} grid")
                col.append(scaled.numerator)
        object.__setattr__(self, "cols", tuple(map(tuple, cols)))
        object.__setattr__(self, "covers", {})
        object.__setattr__(self, "tables", {})

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def from_coords(coords) -> "PointSet":
        """Build from an iterable of coordinate tuples, inferring the grid."""
        pts = tuple(tuple(Fraction(x) for x in p) for p in coords)
        if not pts:
            raise ValueError("cannot infer dimension of an empty point set")
        dim = len(pts[0])
        denom = lcm(1, *(x.denominator for p in pts for x in p))
        return PointSet(dim, denom, pts)


def covered_mask(ps: PointSet, shape) -> int:
    """Bitmask of the points of ps in the shape (bit i: point i), by
    arc_contains; each arc's cover is kept in ps.covers."""
    covers = ps.covers
    m = (1 << len(ps.points)) - 1
    for j, arc in shape_factors(shape, ps.dim):
        key = j, arc.grid, arc.closed
        cover = covers.get(key)
        if cover is None:
            cover = covers[key] = sum(1 << i for i, p in enumerate(ps.points)
                                      if arc_contains(arc, p[j]))
        m &= cover
    return m
