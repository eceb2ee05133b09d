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


class Value:
    """An immutable value, compared, hashed and printed by its class's _fields, set once by
    __init__ (shapes, made in bulk, by object.__setattr__, which stores them inline; the rest
    by vars()).  Not a dataclass, whose decorator compiles new methods on every import."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Arc(Value):
    """A proper arc of the circle, wrapping through 0 when start > end.  Its length (end -
    start, or 1 - start + end when wrapping) and grid are computed once."""

    _fields = ("start", "end", "closed")

    def __init__(self, start: Rat, end: Rat, closed: bool = True):
        _check_coord(start, "arc start")
        _check_coord(end, "arc end")
        sq, eq = start.denominator, end.denominator
        q = lcm(sq, eq)
        s, e = start.numerator * (q // sq), end.numerator * (q // eq)
        if s == e:
            raise ValueError("degenerate or full-circle arc is not allowed")
        w = e - s if s < e else q - s + e
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "closed", closed)
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


class Box(Value):
    """Product of d closed arcs on the torus."""

    _fields = ("arcs",)

    def __init__(self, arcs: tuple):
        if len(arcs) < 1:
            raise ValueError("box needs at least one dimension")
        for a in arcs:
            if not a.closed:
                raise ValueError("box factors must be closed arcs")
        object.__setattr__(self, "arcs", arcs)

    @property
    def dim(self) -> int:
        return len(self.arcs)


class Cube(Box):
    """Box whose arcs all have the same length, its edge."""

    _fields = ("arcs", "edge")

    def __init__(self, arcs: tuple):
        # one pass; on a fault Box's checks run first, so their messages outrank the edge's
        if not arcs:
            Box.__init__(self, arcs)
        edge = arcs[0].length
        num, den = edge.numerator, edge.denominator
        for a in arcs:
            _, _, w, q = a.grid
            if w * den != num * q or not a.closed:
                Box.__init__(self, arcs)
                raise ValueError("cube arcs must all have the edge length")
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "edge", edge)


class Stripe(Value):
    """Full circles in every dimension except one open arc in anchor_dim.

    anchor_dim is 0-indexed.
    """

    _fields = ("anchor_dim", "arc", "ambient_dim")

    def __init__(self, anchor_dim: int, arc: Arc, ambient_dim: int):
        if not 0 <= anchor_dim < ambient_dim:
            raise ValueError("anchor dimension out of range")
        if arc.closed:
            raise ValueError("stripe cross-section must be an open arc")
        object.__setattr__(self, "anchor_dim", anchor_dim)
        object.__setattr__(self, "arc", arc)
        object.__setattr__(self, "ambient_dim", ambient_dim)


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


class PointSet(Value):
    """A finite configuration on the d-torus, all coordinates on a 1/D grid."""

    _fields = ("dim", "denom", "points")

    def __init__(self, dim: int, denom: int, points: tuple):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if denom < 1:
            raise ValueError("denominator must be positive")
        cols = [[] for _ in range(dim)]
        for p in points:
            if len(p) != dim:
                raise ValueError("point dimension mismatch")
            for col, x in zip(cols, p):
                _check_coord(x)
                # x is in lowest terms, so it is on the grid iff its denominator divides D
                if denom % x.denominator:
                    raise ValueError(f"coordinate {x} not on the 1/{denom} grid")
                col.append(x.numerator * (denom // x.denominator))
        # cols[j][i] is D times point i's coordinate in dimension j; covers, covered_mask's cache,
        # maps (j, arc.grid, arc.closed) to a mask, and tables a family to its shatter tables
        vars(self).update(dim=dim, denom=denom, points=points, cols=tuple(map(tuple, cols)),
                          covers={}, tables={})

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
