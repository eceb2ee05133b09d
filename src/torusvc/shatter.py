"""Shattering verdicts, growth counts and witnesses from one closure.

A subset of a point set is encoded as an integer bitmask (bit i set means
point i belongs to the subset).  In one dimension the trace of an arc on
the points is empty or a cyclic run of tied point groups.  A box realizes
the AND of one trace per dimension, a cube the same AND over the arcs of
one edge length, and a stripe a single trace.  _all_ends builds these ANDs
one dimension at a time: level j maps each AND of one trace from each of
the first j+1 tables to the arc ends of the first choice of those traces
that gives it, walking the previous level in insertion order and each
table in table order, and keeps only the level it is building and the one
before.  Growth counts and vcsearch need only the masks, so
realizable_masks builds the same levels as plain sets of masks.
shatter_report reads a shattered set's witnesses off the stored arc ends;
the oracles, and shatter_report for its first 2^(n-8) masks, find the
same witness of one mask without the closure.  The first-seen rule makes
each witness a function of the point set alone, and torus.covered_mask
re-checks every witness (a mismatch raises PostconditionError).

The tables are complete at grid resolution: because every coordinate is a
multiple of 1/D, the containment pattern of an arc only depends on which
grid cell (point or open gap) each endpoint lies in and on their order
inside a shared cell, so arc endpoints on the quarter-grid {t/(4D)} (three
candidates inside every gap) realize every pattern that any real arc does.
The run of distinct values v_a..v_c (wrapping when a > c) is traced by
the arc from (4 v_a - 1)/(4D) to (4 v_c + 1)/(4D), closed for boxes and
open for stripes of any length, and the empty trace by the arc from
(4v + 1)/(4D) to (4v + 2)/(4D).  A realizable cube pattern is realizable
with the maximal per-dimension enclosing length, a multiple of 1/D, or
with the minimal edge 1/(2D), so cube edges run over t/(2D) for t = 1 and
the even t, ascending, with starts on the quarter-grid.  Fixed-length
stripes start on {t/g}, g = 2 lcm(D, denominator of the length), where
every start where an arc end crosses a value lies; those and 0 are scanned.

Trace tables are integer arithmetic on PointSet.cols (numerators over D):
_cover rounds an arc's ends onto the point grid and XORs two prefix masks
of prefix_table.  Witnesses are checked apart, by torus.covered_mask.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import GuardExceeded, PostconditionError
from .torus import (
    Arc,
    Box,
    Cube,
    PointSet,
    Rat,
    Stripe,
    _check_coord,
    arc_contains,  # noqa: F401  (a binding site bench/test_bench.py checks)
    covered_mask,
)

Mask = int

SHATTER_GUARD_N = 30
GROWTH_GUARD_N = 20
PROBE_SHIFT = 8  # shatter_report tries 2^(n - 8) masks one at a time before the full closure

BOXES = "boxes"
CUBES = "cubes"
STRIPES_FIXED = "stripes"
STRIPES_ANY = "stripes-any"
KINDS = (BOXES, CUBES, STRIPES_FIXED, STRIPES_ANY)  # the CLI's --family choices


@dataclass(frozen=True)
class Family:
    """One of the four shape families; fixed-length stripes carry the length."""

    kind: str
    length: Rat = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == STRIPES_FIXED:
            if self.length is None or not (0 < self.length < 1):
                raise ValueError(f"family {self.kind} needs a length in (0,1)")
            _check_coord(self.length, "stripe length")  # refuses a float
        elif self.length is not None:
            raise ValueError(f"family {self.kind} takes no length")


@dataclass
class ShatterReport:
    shattered: bool
    missing: Mask = None
    witnesses: dict = field(default_factory=dict)


def prefix_table(cols: tuple) -> tuple:
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


def _checked(ps: PointSet, subset: Mask, shape):
    """The shape, once covered_mask confirms it realizes exactly the subset."""
    got = covered_mask(ps, shape)
    if got != subset:
        raise PostconditionError(f"{type(shape).__name__} for mask {subset:#x} covers {got:#x}")
    return shape


def _runs(denom: int, prefix: tuple) -> tuple:
    """Per dimension, {trace: (s, e)}: the empty trace, then the cyclic run
    of value indices a..c for each a, then c, each with its first arc from
    s/(4D) to e/(4D)."""
    g = 4 * denom
    tables = []
    for values, below in prefix:
        v = values[0] if values else 0
        runs = {0: (4 * v + 1, 4 * v + 2)}
        for a in range(len(values)):
            for c in range(len(values)):
                trace = below[c + 1] ^ below[a] ^ (below[-1] if a > c else 0)
                if trace not in runs:
                    runs[trace] = (4 * values[a] - 1) % g, 4 * values[c] + 1
        tables.append(runs)
    return tuple(tables)


def _first_arcs(denom: int, prefix: tuple, g: int, width: int, closed: bool) -> tuple:
    """Per dimension, {trace: (s, e)} for the first arc from s/g to e/g = (s + width)/g mod 1
    giving each trace, scanning upward s = 0 and the starts where an end crosses a value."""
    m = g // denom
    shifts = (1, -width) if closed else (0, 1 - width)  # s leaves v m/g, s + width reaches it
    tables = []
    for table in prefix:
        first = {}
        for s in sorted({0, *((v * m + k) % g for v in table[0] for k in shifts)}):
            e = (s + width) % g
            first.setdefault(_cover(table, s, e, m, closed), (s, e))
        tables.append(first)
    return tuple(tables)


def _components(denom: int, prefix: tuple, family: Family):
    """(g, closed, components): the grid 1/g of the family's arc ends,
    whether its arcs are closed, and the (label, per-dimension tables)
    whose closures it unites, in scan order: the one box closure; a cube
    closure per edge t/(2D) for t = 1 and each even t, ascending (built
    lazily; by the module docstring no other edge realizes more); a
    stripe closure per anchor dimension, the label.  Other labels are None."""
    g = 4 * denom
    if family.kind == BOXES:
        return g, True, [(None, _runs(denom, prefix))]
    if family.kind == CUBES:
        return g, True, ((None, _first_arcs(denom, prefix, g, 2 * t, True))
                         for t in (1, *range(2, 2 * denom, 2)))
    if family.kind == STRIPES_ANY:
        tables = _runs(denom, prefix)
    else:
        g = 2 * lcm(denom, family.length.denominator)
        tables = _first_arcs(denom, prefix, g, int(family.length * g), False)
    return g, False, [(j, (table,)) for j, table in enumerate(tables)]


def realizable_masks(cols: tuple, denom: int, family: Family) -> set:
    """The masks the family realizes on the points with integer view cols
    (numerators over denom): the masks of each closure, level by level
    with no choice of traces kept, united until all 2^n are present."""
    prefix = prefix_table(cols)
    full = prefix[0][1][-1]
    masks = set()
    for _, tables in _components(denom, prefix, family)[2]:
        level = {full}
        for table in tables:
            level = {r & t for r in level for t in table}
        masks |= level
        if len(masks) > full:
            break
    return masks


def _family_tables(ps: PointSet, family: Family) -> tuple:
    """The oracles' _components of ps, every table built, kept in ps.tables."""
    tables = ps.tables.get(family)
    if tables is None:
        g, closed, components = _components(ps.denom, prefix_table(ps.cols), family)
        tables = ps.tables[family] = g, closed, tuple(components)
    return tables


def _minimal(masks) -> list:
    """The inclusion-minimal ones among masks."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count):
        if m not in map(m.__or__, kept):  # no kept k has k | m == m, i.e. k within m
            kept.append(m)
    return kept


def _first_ends(components, full: Mask, mask: Mask):
    """(label, arc ends) of mask's witness in the first closure holding it,
    or None, without the closures.  A closure keys each mask to the least
    choice of table positions, in lexicographic order, whose traces AND to
    it.  So each table in turn keeps its first trace t after which the
    later tables can still cut r & t, r the AND so far, to exactly mask.
    Every chosen trace contains mask, and trading a later trace for a
    smaller one that still contains mask never spoils a choice, so they can
    exactly when some AND x of one minimal trace containing mask per later
    table gives r & t & x == mask.  Those ANDs are built from the last table
    back, none for the first table, which nothing reads, and only the
    inclusion-minimal ones are kept: a kept x within an AND y answers for
    it, since mask <= r & t & x <= r & t & y."""
    for label, tables in components:
        holding = []
        for table in tables:
            holding.append([t for t in table if t & mask == mask])
            if not holding[-1]:
                break
        else:
            later = [[full]]  # later[-1 - j]: the kept ANDs of the tables after j
            for traces in reversed(holding[1:]):
                later.append(_minimal(t & x for t in _minimal(traces) for x in later[-1]))
            r, ends = full, []
            for table, traces, ands in zip(tables, holding, reversed(later)):
                t = next((t for t in traces if mask in map((r & t).__and__, ands)), None)
                if t is None:  # only the first table can fail: a kept t leaves a way on
                    break
                r &= t
                ends.append(table[t])
            else:
                return label, tuple(ends)
    return None


def _all_ends(components, full: Mask) -> dict:
    """{mask: (label, arc ends)} for every mask the closures hold, built
    level by level (module docstring) and taken from the first closure
    holding it, stopping at 2^n masks."""
    found = {}
    for label, tables in components:
        prev = {full: ()}
        for table in tables:
            cur = {}
            for r, ends in prev.items():
                for trace, se in table.items():
                    m = r & trace
                    if m not in cur:
                        cur[m] = ends + (se,)
            prev = cur
        for mask, ends in prev.items():
            if mask not in found:
                found[mask] = label, ends
        if len(found) > full:
            break
    return found


def _shape(ps: PointSet, family: Family, g: int, closed: bool, subset: Mask, label, ends, arcs):
    """The checked shape of subset's label (a stripe's anchor) and arc
    ends, building each distinct arc once per arcs dict."""
    for se in ends:
        if se not in arcs:
            arcs[se] = Arc(Fraction(se[0], g), Fraction(se[1], g), closed)
    factors = tuple(arcs[se] for se in ends)
    if family.kind == BOXES:
        shape = Box(factors)
    elif family.kind == CUBES:
        shape = Cube(factors)
    else:
        shape = Stripe(label, factors[0], ps.dim)
    return _checked(ps, subset, shape)


def _oracle(ps: PointSet, family: Family, subset: Mask):
    if subset < 0 or subset >> len(ps):
        raise ValueError(f"mask {subset:#x} refers to out-of-range point indices")
    g, closed, components = _family_tables(ps, family)
    found = _first_ends(components, (1 << len(ps)) - 1, subset)
    return None if found is None else _shape(ps, family, g, closed, subset, *found, {})


def realizable_by_box(ps: PointSet, subset: Mask):
    """A box whose intersection with ps is exactly the subset, or None."""
    return _oracle(ps, Family(BOXES), subset)


def realizable_by_cube(ps: PointSet, subset: Mask):
    """A cube whose intersection with ps is exactly the subset, or None."""
    return _oracle(ps, Family(CUBES), subset)


def realizable_by_stripe(ps: PointSet, subset: Mask, length: Rat):
    """A stripe of exactly the given length realizing the subset, or None
    (Family refuses a length outside (0,1))."""
    return _oracle(ps, Family(STRIPES_FIXED, length), subset)


def realizable_by_any_stripe(ps: PointSet, subset: Mask):
    """A stripe of any length realizing the subset, or None."""
    return _oracle(ps, Family(STRIPES_ANY), subset)


def scan_stripe(ps: PointSet, subset: Mask, length: Rat):
    """The first stripe of the given length realizing the subset with start
    + length <= 1, or None, scanning every dimension then its table: the
    first start is the least, so no later one wraps less."""
    family = Family(STRIPES_FIXED, length)
    g, closed, components = _family_tables(ps, family)
    for j, (first,) in components:
        if subset in first:
            s, e = first[subset]
            if s < e or e == 0:
                return _shape(ps, family, g, closed, subset, j, ((s, e),), {})
    return None


def shatter_report(ps: PointSet, family: Family) -> ShatterReport:
    """Decide whether the family shatters ps, with per-mask witnesses.

    The first missing mask named in a negative report is the smallest mask
    the family does not realize; witnesses cover every mask below it.  The
    masks below 2^(n - PROBE_SHIFT) are first tried one at a time, so a
    small missing mask costs no full closure.
    """
    n = len(ps)
    if n > SHATTER_GUARD_N:
        raise GuardExceeded(f"shatter_report guard: n={n} > {SHATTER_GUARD_N}")
    g, closed, components = _family_tables(ps, family)
    full = (1 << n) - 1
    found = {}
    for mask in range((full + 1) >> PROBE_SHIFT):
        ends = _first_ends(components, full, mask)
        if ends is None:
            break
        found[mask] = ends
    else:
        found = _all_ends(components, full)
    missing = next((mask for mask in range(full + 1) if mask not in found), None)
    arcs = {}
    witnesses = {mask: _shape(ps, family, g, closed, mask, *found[mask], arcs)
                 for mask in range(full + 1 if missing is None else missing)}
    return ShatterReport(missing is None, missing, witnesses)


def growth_count(ps: PointSet, family: Family) -> int:
    """Number of distinct subsets of ps realizable by the family."""
    n = len(ps)
    if n > GROWTH_GUARD_N:
        raise GuardExceeded(f"growth_count guard: n={n} > {GROWTH_GUARD_N}")
    return len(realizable_masks(ps.cols, ps.denom, family))
