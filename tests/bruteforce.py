"""Independent brute-force oracles used to cross-check the fast ones.

These deliberately share no code with torusvc.shatter or with the
checker, torus.arc_contains: realizability is decided by enumerating every
arc with endpoints on the quarter-grid {t/(4D)} and combining
per-dimension coverage masks, each from contains below, by intersection.

The quarter-grid oracles rest on the same completeness argument as the
code under test (endpoints on {t/(4D)}, cube edges on {t/(2D)}).  The
``fine_*`` oracles do not: they enumerate arcs whose endpoints and cube
edges lie on the finer grid {t/(12D)} (for fixed-length stripes, starts on
{t/(12 lcm(D, denominator of l))}), so a pattern the coarse grids miss
would show up as a growth-count difference.  They are slow and meant for
tiny instances only.
"""

import random
from fractions import Fraction
from math import lcm

from torusvc.torus import Arc, PointSet


def contains(arc, x):
    """Exact containment compared on the arc's Fraction ends, respecting
    wrap-around and the closure flag; kept apart from torus.arc_contains,
    which works on the arc's grid form and is checked against this."""
    a, b = arc.start, arc.end
    if arc.closed:
        if a < b:
            return a <= x <= b
        return x >= a or x <= b
    if a < b:
        return a < x < b
    return x > a or x < b


def _coverage(ps, j, arc):
    cov = 0
    for i, p in enumerate(ps.points):
        if contains(arc, p[j]):
            cov |= 1 << i
    return cov


def _intersect_dims(ps, arc_masks):
    cur = arc_masks(0)
    for j in range(1, ps.dim):
        fam = arc_masks(j)
        cur = {a & b for a in cur for b in fam}
    return cur


def quarter_arc_masks(ps, j, closed=True):
    """Coverage masks of every quarter-grid arc in dimension j, closed or
    open."""
    g = 4 * ps.denom
    masks = set()
    for t1 in range(g):
        for t2 in range(g):
            if t1 == t2:
                continue
            masks.add(_coverage(ps, j, Arc(Fraction(t1, g), Fraction(t2, g), closed)))
    return masks


def brute_box_masks(ps):
    """All subsets realizable by boxes, by exhaustive arc enumeration."""
    return _intersect_dims(ps, lambda j: quarter_arc_masks(ps, j))


def fixed_length_arc_masks(ps, j, edge):
    g = 4 * ps.denom
    masks = set()
    for t in range(g):
        s = Fraction(t, g)
        masks.add(_coverage(ps, j, Arc(s, (s + edge) % 1)))
    return masks


def brute_cube_masks(ps):
    """All subsets realizable by cubes, over half-grid edges and starts."""
    out = set()
    for t in range(1, 2 * ps.denom):
        edge = Fraction(t, 2 * ps.denom)
        out |= _intersect_dims(ps, lambda j: fixed_length_arc_masks(ps, j, edge))
    return out


def fine_masks(ps, kind, length=None):
    """The subsets a family realizes, with arcs on the 1/(12D) grid.

    kind is one of "boxes", "cubes", "stripes" (fixed length) and
    "stripes-any".
    """
    g = 12 * ps.denom
    grid = [Fraction(t, g) for t in range(g)]
    if kind == "boxes":
        def closed_arcs(j):
            return {_coverage(ps, j, Arc(s, e)) for s in grid for e in grid if s != e}
        return _intersect_dims(ps, closed_arcs)
    if kind == "cubes":
        out = set()
        for edge in grid[1:]:
            def edge_arcs(j):
                return {_coverage(ps, j, Arc(s, (s + edge) % 1)) for s in grid}
            out |= _intersect_dims(ps, edge_arcs)
        return out
    if kind == "stripes":
        gl = 12 * lcm(ps.denom, length.denominator)
        return {
            _coverage(ps, j, Arc(Fraction(t, gl), (Fraction(t, gl) + length) % 1, closed=False))
            for j in range(ps.dim) for t in range(gl)
        }
    if kind == "stripes-any":
        arcs = [Arc(s, e, closed=False) for s in grid for e in grid if s != e]
        return {_coverage(ps, j, arc) for j in range(ps.dim) for arc in arcs}
    raise ValueError(f"unknown kind {kind!r}")


def fine_growth(ps, kind, length=None):
    """Number of subsets realizable by a family, with arcs on the 1/(12D) grid."""
    return len(fine_masks(ps, kind, length))


def random_point_set(rng, n, d, denom):
    points = tuple(
        tuple(Fraction(rng.randrange(denom), denom) for _ in range(d))
        for _ in range(n)
    )
    return PointSet(d, denom, points)


def seeded_point_sets(seed, count, n_max, d_max, denom_max):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        d = rng.randint(1, d_max)
        denom = rng.randint(2, denom_max)
        out.append(random_point_set(rng, n, d, denom))
    return out
