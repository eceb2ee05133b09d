"""Lifting a stripe-shattered set through an extraction matrix to cubes.

Given u points in T^k shattered by stripes of length l and a c x d matrix
with the k-extraction property, the c*u lifted points

    y(i;j)_n = (i + x(j)_s) / (c+1)   with s = M[i][n]   (all 0-indexed)

live in disjoint group cells ((i)/(c+1), (i+1)/(c+1))^d and are shattered
by cubes of edge 1 - l/(c+1): each requested subset is covered by one
scaled stripe per group, placed in pairwise distinct dimensions obtained
by matching the anchor-symbol word through the matrix, and the cube is the
complement of those d stripes.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import GuardExceeded
from .extraction import SymbolMatrix
from .matching import maximum_matching
from .shatter import scan_stripe
from .stripes import _check_length, build_stripe_shattered_set, stripe_witness
from .torus import ONE, Arc, Cube, PointSet, Rat, covered_mask
from .torus import arc_contains  # noqa: F401  (a binding site bench/test_bench.py checks)

Mask = int

VERIFY_GUARD_POINTS = 24


@dataclass(frozen=True)
class LiftInstance:
    base: PointSet  # X, u points in T^k
    matrix: SymbolMatrix  # c x d over alphabet k
    length: Rat  # stripe length l used on the base set
    lifted: PointSet  # c*u points in T^d, group-major order
    canonical_n: int  # the construction's n when base is the stripe construction, else None
    filler: Arc = field(repr=False, compare=False)  # cube_witness's arc for unmatched dimensions
    cells: dict = field(repr=False, compare=False)  # cube_witness's {base subset: cell}, on demand


@dataclass
class LiftReport:
    checked: int
    failures: list
    denom: int  # lcm of the arc grid denominators (Arc.grid's q) of the cubes checked

    @property
    def ok(self) -> bool:
        return not self.failures


def lift_points(base: PointSet, matrix: SymbolMatrix, length: Rat) -> LiftInstance:
    """Build the lifted point set; exact, denominator (c+1) * D_base."""
    length = _check_length(length)
    if base.dim != matrix.k:
        raise ValueError(f"base dimension {base.dim} != matrix alphabet size {matrix.k}")
    c, d = matrix.n_rows, matrix.n_cols
    scale = Fraction(1, c + 1)
    points = tuple(tuple((i + p[s]) * scale for s in matrix.rows[i])
                   for i in range(c) for p in base.points)
    lifted = PointSet(d, (c + 1) * base.denom, points)
    return LiftInstance(base, matrix, length, lifted, _detect_construction(base, length),
                        Arc((c + length) * scale, c * scale), {})


def _detect_construction(base: PointSet, length: Rat):
    n = len(base) - 1
    if n < 1 or (1 << n) > base.dim:
        return None
    built = build_stripe_shattered_set(n, length, ambient_dim=base.dim)
    return n if built.points == base.points else None


def _base_stripe(inst: LiftInstance, subset: Mask):
    """A non-wrapping open arc (start, start+l) realizing subset on the base.

    Returns (anchor_dim, start).  The lifting scales arcs affinely into a
    group cell, so only witnesses with start + l <= 1 are usable; for the
    canonical construction these always exist, otherwise we scan for one.
    """
    if inst.canonical_n is not None:
        s = stripe_witness(inst.canonical_n, inst.length, subset, inst.base.dim)
        return s.anchor_dim, s.arc.start
    stripe = scan_stripe(inst.base, subset, inst.length)
    if stripe is None:
        raise ValueError(
            f"base set admits no interval stripe of length {inst.length} realizing {subset:#x}"
        )
    return stripe.anchor_dim, stripe.arc.start


def _cell(inst: LiftInstance, memo: dict, group: Mask):
    """(anchor, supports, arcs) for a base subset, built once per instance.

    supports[i] is row i's support of the anchor symbol and arcs[i] the
    closed complement of the subset's base stripe scaled into group cell i.
    A subset the base cannot realize keeps its error message, raised anew
    on every call.
    """
    cell = memo.get(group)
    if cell is None:
        try:
            anchor, start = _base_stripe(inst, group)
        except ValueError as exc:
            cell = str(exc)
        else:
            c = inst.matrix.n_rows
            scale = Fraction(1, c + 1)
            cell = (
                anchor,
                [inst.matrix.support(i, anchor) for i in range(c)],
                [Arc((i + start + inst.length) * scale % ONE, (i + start) * scale % ONE)
                 for i in range(c)],
            )
        memo[group] = cell
    if isinstance(cell, str):
        raise ValueError(cell)
    return cell


def cube_witness(inst: LiftInstance, subset: Mask) -> Cube:
    """The construction's cube realizing a subset of the lifted points.

    Builds one scaled stripe per group (dimension chosen by matching the
    anchor word through the matrix), fills the remaining dimensions with
    the point-free stripe ((c)/(c+1), (c+l)/(c+1)), and returns the cube
    whose factors are the closed complements; edge is exactly 1 - l/(c+1).
    """
    c, d, u = len(rows := inst.matrix.rows), len(rows[0]), len(inst.base.points)
    if subset < 0 or subset >> (c * u):
        raise ValueError("mask out of range for the lifted point set")

    # the cube is the stripes' complement, so they cover exactly the points outside the subset
    full = (1 << u) - 1
    memo = inst.cells
    adjacency, row_arcs = [], []
    rest = ~subset  # ~subset >> (i * u) == ~(subset >> (i * u)): group i's complement
    for i in range(c):
        group = rest & full
        rest >>= u
        # a built cell is read from the memo here; _cell builds one, or raises a stored error
        if type(cell := memo.get(group)) is not tuple:
            cell = _cell(inst, memo, group)
        adjacency.append(cell[1][i])
        row_arcs.append(cell[2][i])
    size, match = maximum_matching(adjacency, d)
    if size < c:
        raise ValueError(
            "extraction matching failed: matrix lacks the extraction property "
            f"for anchor word {tuple(memo[~(subset >> (i * u)) & full][0] for i in range(c))}"
        )
    arcs = [inst.filler] * d
    for j, arc in zip(match, row_arcs):
        arcs[j] = arc
    return Cube(tuple(arcs))


def _check_guard(masks) -> None:
    # a slice, not len: len(range(1 << n)) overflows once n >= 63
    if masks[1 << VERIFY_GUARD_POINTS:]:
        raise GuardExceeded(f"verify_lift guard: more than 2^{VERIFY_GUARD_POINTS} masks")


def sample_masks(total_points: int, count: int, seed: int) -> list:
    """The sorted distinct masks of count seeded draws, for verify_lift; a
    count past its guard is refused before any mask is drawn."""
    _check_guard(range(count))
    rng = random.Random(seed)
    return sorted({rng.randrange(1 << total_points) for _ in range(count)})


def verify_lift(inst: LiftInstance, masks) -> LiftReport:
    """Check that cube witnesses realize each of the masks, given distinct (range(1 << n)
    for every mask, or sample_masks); the report's denom is the denominator of their
    cubes' certificate."""
    _check_guard(masks)
    failures = []
    denoms = set()
    for mask in masks:
        try:
            cube = cube_witness(inst, mask)
        except ValueError:
            failures.append(mask)
            continue
        if covered_mask(inst.lifted, cube) != mask:
            failures.append(mask)
        denoms.update([arc.grid[3] for arc in cube.arcs])
    return LiftReport(len(masks), failures, lcm(*denoms))
