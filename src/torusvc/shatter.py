"""Realizability oracles and shattering verdicts.

A subset of a point set is encoded as an integer bitmask (bit i set means
point i belongs to the subset).  Each oracle either returns a shape whose
intersection with the point set is exactly the requested subset, or None
when no such shape exists; every returned shape is re-checked with
covered_mask, and a mismatch raises PostconditionError.

The oracles are complete at grid resolution: because every coordinate is
a multiple of 1/D, the containment pattern of an arc only depends on which
grid cell (point or open gap) each endpoint lies in and on their order
inside a shared cell, so arc endpoints on the quarter-grid {t/(4D)} (three
candidates inside every gap) realize every pattern that any real arc does.

Coverage is integer arithmetic on PointSet.cols (numerators over D): _cover
rounds an arc's grid endpoints (Arc.grid) onto the point grid and XORs two
prefix masks.
The cube and stripe candidates do not depend on the requested subset, so
their coverages are tabulated once per point set and stripe length.

realizable_masks reads the whole set of realizable masks from the same
tables, asking no oracle; the tests hold it equal to what the oracles find.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import GuardExceeded, PostconditionError
from .torus import (
    ONE,
    Arc,
    Box,
    Cube,
    PointSet,
    Rat,
    Stripe,
    arc_contains,  # noqa: F401  (a binding site bench/test_bench.py checks)
    maximal_gaps,
)

Mask = int

SHATTER_GUARD_N = 30
GROWTH_GUARD_N = 20
TABLE_CACHE_SIZE = 8  # point sets (times family parameters) with cached tables

BOXES = "boxes_per"
CUBES = "cubes_per"
STRIPES_FIXED = "stripes_fixed_length"
STRIPES_ANY = "stripes_any"


@dataclass(frozen=True)
class Family:
    """One of the four shape families; fixed-length stripes carry the length."""

    kind: str
    length: Rat = None

    def __post_init__(self):
        if self.kind not in (BOXES, CUBES, STRIPES_FIXED, STRIPES_ANY):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == STRIPES_FIXED:
            if self.length is None or not (0 < self.length < 1):
                raise ValueError("stripes_fixed_length needs a length in (0,1)")
        elif self.length is not None:
            raise ValueError(f"family {self.kind} takes no length")


@dataclass
class ShatterReport:
    shattered: bool
    missing: Mask = None
    witnesses: dict = field(default_factory=dict)


def _prefix_table(cols: tuple) -> tuple:
    """Per dimension, the sorted distinct numerators and the prefix masks
    below[k] of the points with numerator < values[k] (below[-1]: all)."""
    tables = []
    for col in cols:
        groups = {}
        for i, x in enumerate(col):
            groups[x] = groups.get(x, 0) | 1 << i
        values = sorted(groups)
        below = [0]
        for v in values:
            below.append(below[-1] | groups[v])
        tables.append((values, below))
    return tuple(tables)


# the per-mask oracles' copy; realizable_masks builds its tables afresh, so
# scoring many one-off point sets evicts none of these
_prefix_masks = lru_cache(maxsize=TABLE_CACHE_SIZE)(_prefix_table)


def _cover(table, s: int, e: int, m: int, closed: bool) -> Mask:
    """Mask of the points in the arc from s/(mD) to e/(mD), wrapping when s > e
    (an open arc with s == e is the circle minus one value)."""
    values, below = table
    if closed:
        lo, hi, wraps = -(-s // m), e // m + 1, s > e
    else:
        lo, hi, wraps = s // m + 1, -(-e // m), s >= e
    inner = below[bisect_left(values, hi)] ^ below[bisect_left(values, lo)]
    return below[-1] ^ inner if wraps else inner


def covered_mask(ps: PointSet, shape) -> Mask:
    """Bitmask of the points of ps contained in the shape."""
    if isinstance(shape, Stripe):
        dim, factors = shape.ambient_dim, ((shape.anchor_dim, shape.arc),)
    else:
        dim, factors = shape.dim, enumerate(shape.arcs)
    if dim != ps.dim:
        raise ValueError(f"point dimension {ps.dim} != shape dimension {dim}")
    tables = _prefix_masks(ps.cols)
    m = (1 << len(ps)) - 1
    for j, arc in factors:
        s, e, _, q = arc.grid
        m &= _cover(tables[j], s * ps.denom, e * ps.denom, q, arc.closed)
    return m


def _checked(ps: PointSet, subset: Mask, shape):
    """The shape, once covered_mask confirms it realizes exactly the subset."""
    got = covered_mask(ps, shape)
    if got != subset:
        raise PostconditionError(f"{type(shape).__name__} for mask {subset:#x} covers {got:#x}")
    return shape


def _check_mask(ps: PointSet, subset: Mask) -> None:
    if subset < 0 or subset >> len(ps):
        raise ValueError(f"mask {subset:#x} refers to out-of-range point indices")


def _arc_inside_gap(gap_start: Rat, gap_len: Rat) -> Arc:
    """A closed arc strictly inside the open gap, containing no grid point."""
    s = (gap_start + gap_len / 4) % ONE
    e = (gap_start + 3 * gap_len / 4) % ONE
    return Arc(s, e)


def _point_arc(v: Rat, denom: int) -> Arc:
    """A short closed arc around v containing no other 1/denom grid value."""
    h = Fraction(1, 4 * denom)
    return Arc((v - h) % ONE, (v + h) % ONE)


def _choose_per_dim(per_dim_options, goal: Mask):
    """DP over dimensions: one option per dim, OR of masks must equal goal.

    Returns the chosen payloads (one per dimension) or None.
    """
    # levels[j] maps reachable mask after dims 0..j-1 to (prev mask, payload)
    levels = [{0: None}]
    for options in per_dim_options:
        if not options:
            return None
        cur = {}
        for r in levels[-1]:
            for mask, payload in options:
                m = r | mask
                if m not in cur:
                    cur[m] = (r, payload)
        levels.append(cur)
    if goal not in levels[-1]:
        return None
    chosen = []
    m = goal
    for level in reversed(levels[1:]):
        prev, payload = level[m]
        chosen.append(payload)
        m = prev
    chosen.reverse()
    return chosen


def realizable_by_box(ps: PointSet, subset: Mask):
    """A box whose intersection with ps is exactly the subset, or None.

    Per dimension only minimal enclosing arcs of the subset's coordinates
    matter (one per maximal gap): any realizing box contains one of them,
    and shrinking to it only removes outsiders.
    """
    _check_mask(ps, subset)
    n, denom = len(ps), ps.denom
    if subset == 0:
        if n == 0:
            return Box(tuple(Arc(Fraction(0), Fraction(1, 2)) for _ in range(ps.dim)))
        gs, _, gl = maximal_gaps(ps.cols[0], denom)[0]
        arcs = [_arc_inside_gap(Fraction(gs, denom), Fraction(gl, denom))]
        arcs += [Arc(Fraction(0), Fraction(1, 2)) for _ in range(ps.dim - 1)]
        return _checked(ps, subset, Box(tuple(arcs)))

    outsiders = ((1 << n) - 1) ^ subset
    per_dim = []
    for col, table in zip(ps.cols, _prefix_masks(ps.cols)):
        inside = [v for i, v in enumerate(col) if subset >> i & 1]
        per_dim.append([
            (_cover(table, gs, ge, 1, False) & outsiders, (gs, ge))
            for gs, ge, _ in maximal_gaps(inside, denom)
        ])
    chosen = _choose_per_dim(per_dim, outsiders)
    if chosen is None:
        return None
    arcs = []
    for gs, ge in chosen:
        if gs == ge:
            arcs.append(_point_arc(Fraction(gs, denom), denom))
        else:
            arcs.append(Arc(Fraction(ge, denom), Fraction(gs, denom)))
    return _checked(ps, subset, Box(tuple(arcs)))


def _first_arcs(denom: int, prefix: tuple, g: int, width, closed: bool) -> tuple:
    """Per dimension of the prefix tables, {coverage: (s, e)} for the first
    arc from s/g to e/g giving each coverage, scanning s, then e: every
    e != s on the grid, or e = (s + width) mod g for a fixed width 0 < width < g."""
    tables = []
    for table in prefix:
        first = {}
        for s in range(g):
            for e in range(g) if width is None else ((s + width) % g,):
                if e != s:
                    first.setdefault(_cover(table, s, e, g // denom, closed), (s, e))
        tables.append(first)
    return tuple(tables)


def _stripe_table(denom: int, prefix: tuple, length) -> tuple:
    """(g, width, _first_arcs of the open arcs) of the stripe scan: starts on
    t/g, g = 2 lcm(D, denominator of length), width = length g; or, without
    a length, any start and end on the quarter-grid g = 4D."""
    g = 4 * denom if length is None else 2 * lcm(denom, length.denominator)
    width = None if length is None else int(length * g)
    return g, width, _first_arcs(denom, prefix, g, width, False)


def _cube_table(denom: int, prefix: tuple) -> tuple:
    """_first_arcs of the closed arcs of each edge t/(2D), t = 1..2D-1, starting on {s/(4D)}."""
    return tuple(_first_arcs(denom, prefix, 4 * denom, 2 * t, True) for t in range(1, 2 * denom))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _stripe_arcs(denom: int, cols: tuple, length) -> tuple:
    """The oracles' cached _stripe_table of a point set."""
    return _stripe_table(denom, _prefix_masks(cols), length)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _cube_arcs(denom: int, cols: tuple) -> tuple:
    """The oracles' cached _cube_table of a point set."""
    return _cube_table(denom, _prefix_masks(cols))


def realizable_by_cube(ps: PointSet, subset: Mask):
    """A cube whose intersection with ps is exactly the subset, or None.

    Scans candidate edge lengths on the half-grid in ascending order (a
    realizable pattern is realizable either with the maximal per-dimension
    enclosing length, a multiple of 1/D, or with the minimal edge 1/(2D));
    arc starts run over the quarter-grid so that both endpoints can sit
    strictly inside the same gap.  For each length the per-dimension arcs
    containing all subset coordinates yield outsider-exclusion masks,
    combined by an OR-closure across dimensions.
    """
    _check_mask(ps, subset)
    g = 4 * ps.denom
    outsiders = ((1 << len(ps)) - 1) ^ subset
    for t, per_dim in enumerate(_cube_arcs(ps.denom, ps.cols), start=1):
        options = [[(outsiders & ~cov, arc) for cov, arc in first.items() if cov & subset == subset]
                   for first in per_dim]
        chosen = _choose_per_dim(options, outsiders) if all(options) else None
        if chosen is not None:
            arcs = tuple(Arc(Fraction(s, g), Fraction(e, g)) for s, e in chosen)
            return _checked(ps, subset, Cube(arcs, Fraction(t, 2 * ps.denom)))
    return None


def scan_stripe(ps: PointSet, subset: Mask, length: Rat = None, wrapping: bool = True):
    """The first stripe realizing the subset, or None, scanning dimensions
    then the arcs of _stripe_arcs, with start + length <= 1 unless wrapping."""
    g, width, tables = _stripe_arcs(ps.denom, ps.cols, length)
    for j, first in enumerate(tables):
        if subset in first:
            s, e = first[subset]
            if wrapping or s + width <= g:
                arc = Arc(Fraction(s, g), Fraction(e, g), closed=False)
                return _checked(ps, subset, Stripe(j, arc, ps.dim))
    return None


def realizable_by_stripe(ps: PointSet, subset: Mask, length: Rat):
    """A stripe of exactly the given length realizing the subset, or None.

    Scans, per dimension, open arcs of the given length with start on the
    grid {t/(2 lcm(D, denom(length)))}; the containment pattern of such an
    arc only changes when an endpoint crosses a point coordinate, and all
    critical start values lie on that grid.
    """
    _check_mask(ps, subset)
    if not (0 < length < 1):
        raise ValueError("stripe length must lie in (0,1)")
    return scan_stripe(ps, subset, length)


def realizable_by_any_stripe(ps: PointSet, subset: Mask):
    """A stripe of any length realizing the subset, or None.

    Both endpoints are free, so the search runs over the quarter-grid.
    """
    _check_mask(ps, subset)
    return scan_stripe(ps, subset)


def family_oracle(family: Family):
    """The realizability oracle of a family, as a (ps, mask) callable."""
    if family.kind == BOXES:
        return realizable_by_box
    if family.kind == CUBES:
        return realizable_by_cube
    if family.kind == STRIPES_FIXED:
        return lambda ps, m: realizable_by_stripe(ps, m, family.length)
    return realizable_by_any_stripe


def _intersections(per_dim) -> set:
    """Every AND of one mask from each dimension's collection."""
    per_dim = iter(per_dim)
    out = set(next(per_dim))
    for masks in per_dim:
        out = {a & b for a in out for b in masks}
    return out


def realizable_masks(cols: tuple, denom: int, family: Family) -> set:
    """The masks the family realizes on the points with integer view cols
    (numerators over denom).  A box realizes the AND of one closed-arc trace
    per dimension: nothing, or the run of value indices a..c (wrapping when
    a > c); a cube such an AND over the arcs of one edge; a stripe one arc.
    The tables are built afresh and left out of the oracles' caches."""
    prefix = _prefix_table(cols)
    if family.kind == BOXES:
        return _intersections(
            {0} | {below[c + 1] ^ below[a] ^ (below[-1] if a > c else 0)
                   for a in range(len(values)) for c in range(len(values))}
            for values, below in prefix
        )
    if family.kind == CUBES:
        return set().union(*map(_intersections, _cube_table(denom, prefix)))
    return set().union(*_stripe_table(denom, prefix, family.length)[2])


def shatter_report(ps: PointSet, family: Family) -> ShatterReport:
    """Decide whether the family shatters ps, with per-mask witnesses.

    Iterates the 2^n masks in ascending order, so the first missing mask
    named in a negative report is deterministic.
    """
    n = len(ps)
    if n > SHATTER_GUARD_N:
        raise GuardExceeded(f"shatter_report guard: n={n} > {SHATTER_GUARD_N}")
    oracle = family_oracle(family)
    witnesses = {}
    for mask in range(1 << n):
        shape = oracle(ps, mask)
        if shape is None:
            return ShatterReport(False, missing=mask, witnesses=witnesses)
        witnesses[mask] = shape
    return ShatterReport(True, witnesses=witnesses)


def growth_count(ps: PointSet, family: Family) -> int:
    """Number of distinct subsets of ps realizable by the family."""
    n = len(ps)
    if n > GROWTH_GUARD_N:
        raise GuardExceeded(f"growth_count guard: n={n} > {GROWTH_GUARD_N}")
    return len(realizable_masks(ps.cols, ps.denom, family))
