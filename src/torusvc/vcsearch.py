"""Exact VC-dimension computation for small d, plus randomized search.

Configurations are encoded combinatorially: per dimension, an assignment of
points to levels (a weak cyclic order; ties allowed), realized at
coordinates level/n.  For boxes, subset realizability per dimension depends
only on which cyclic runs of tied groups an arc can cover, so enumerating
weak cyclic orders is a complete search.  The enumeration emits one
representative per class under global point relabeling, per-dimension
rotation and reflection, and is sound but not maximally reduced.  Levels
are the integer view of the realized point set over the denominator n, so
verdicts and search scores count shatter.realizable_masks on them.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardExceeded, PostconditionError
from .shatter import BOXES, Family, ShatterReport, realizable_masks, shatter_report
from .torus import PointSet

ENUM_GUARD_D = 2
ENUM_GUARD_N = 8


@dataclass(frozen=True)
class ConfigCode:
    """Per-dimension level assignments; point p sits at levels[j][p] / n."""

    d: int
    n: int
    levels: tuple  # d tuples of n ints in 0..n-1

    def realize(self) -> PointSet:
        n = self.n
        points = tuple(
            tuple(Fraction(self.levels[j][p], n) for j in range(self.d))
            for p in range(n)
        )
        return PointSet(self.d, n, points)


def cyclic_compositions(n: int):
    """Compositions of n, one representative per rotation+reflection class."""
    seen = set()
    out = []

    def gen(prefix, rest):
        if rest == 0:
            canon = _bracelet_canon(tuple(prefix))
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
            return
        for part in range(1, rest + 1):
            prefix.append(part)
            gen(prefix, rest - part)
            prefix.pop()

    gen([], n)
    out.sort()
    return out


def _bracelet_canon(comp):
    b = len(comp)
    variants = []
    for seq in (comp, comp[::-1]):
        for r in range(b):
            variants.append(seq[r:] + seq[:r])
    return min(variants)


def _levels_from_blocks(blocks, n: int):
    levels = [0] * n
    for lv, block in enumerate(blocks):
        for p in block:
            levels[p] = lv
    return tuple(levels)


def _ordered_partitions(rest):
    """All ordered set partitions of a list of points."""
    if not rest:
        yield []
        return
    first = rest[0]
    others = rest[1:]
    # choose the block containing `first` among the remaining points
    for pick in range(1 << len(others)):
        block = [first] + [others[t] for t in range(len(others)) if pick >> t & 1]
        remaining = [others[t] for t in range(len(others)) if not pick >> t & 1]
        for tail in _ordered_partitions(remaining):
            yield [block] + tail


def _dim2_assignments(n: int):
    """Weak cyclic orders of n points, rotation- and reflection-reduced.

    Rotation is fixed by putting point 0's block first; reflection reverses
    the remaining block order, and only the lexicographically smaller of
    the two encodings is emitted.
    """
    for pick in range(1 << (n - 1)):
        block0 = [0] + [p + 1 for p in range(n - 1) if pick >> p & 1]
        rest = [p + 1 for p in range(n - 1) if not pick >> p & 1]
        for tail in _ordered_partitions(rest):
            blocks = [block0] + tail
            code = tuple(tuple(sorted(b)) for b in blocks)
            mirrored = (code[0],) + tuple(reversed(code[1:]))
            if code <= mirrored:
                yield _levels_from_blocks(blocks, n)


def enumerate_configs(d: int, n: int):
    """Stream one ConfigCode per symmetry class (possibly with duplicates).

    The reduction only identifies configurations related by global point
    relabeling, per-dimension rotation/reflection, and dimension
    permutation, all of which preserve the shattering verdict.
    """
    if d > ENUM_GUARD_D:
        raise GuardExceeded(f"enumerate_configs guard: d={d} > {ENUM_GUARD_D}")
    if n > ENUM_GUARD_N:
        raise GuardExceeded(f"enumerate_configs guard: n={n} > {ENUM_GUARD_N}")
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    dim1_classes = []
    for comp in cyclic_compositions(n):
        blocks = []
        at = 0
        for size in comp:
            blocks.append(list(range(at, at + size)))
            at += size
        dim1_classes.append(_levels_from_blocks(blocks, n))
    if d == 1:
        for lv in dim1_classes:
            yield ConfigCode(1, n, (lv,))
        return
    for lv1 in dim1_classes:
        for lv2 in _dim2_assignments(n):
            yield ConfigCode(2, n, (lv1, lv2))


def vc_exact(d: int, family: Family, n_max: int):
    """Largest n <= n_max admitting a shattered configuration.

    Returns (value, witness PointSet or None, witness certificate map).
    The search stops at the first n with no shattered configuration, which
    by monotonicity also rules out all larger sizes.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    best = 0
    best_cfg = None
    for n in range(1, n_max + 1):
        found = None
        for cfg in enumerate_configs(d, n):
            if len(realizable_masks(cfg.levels, n, family)) == 1 << n:
                found = cfg
                break
        if found is None:
            break
        best, best_cfg = n, found
    if best_cfg is None:
        return 0, None, {}
    ps = best_cfg.realize()
    report = shatter_report(ps, family)
    if not report.shattered:
        raise PostconditionError(f"the configuration found for n={best} fails its re-check")
    return best, ps, report.witnesses


def search_shattered(d: int, n: int, budget: int, seed: int):
    """Randomized hill climb for a shattered configuration of boxes.

    Mutates one point's level in one dimension, keeping moves that do not
    decrease the number of realizable masks.  Any returned configuration is
    re-certified through shatter_report, so the result needs no trust in
    the search.  Returns (PointSet, certificate map) or None.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    rng = random.Random(seed)
    levels = [
        [rng.randrange(n) for _ in range(n)] for _ in range(d)
    ]
    want = 1 << n
    score = len(realizable_masks(tuple(map(tuple, levels)), n, Family(BOXES)))
    for _ in range(budget):
        if score == want:
            break
        j = rng.randrange(d)
        p = rng.randrange(n)
        old = levels[j][p]
        levels[j][p] = rng.randrange(n)
        new_score = len(realizable_masks(tuple(map(tuple, levels)), n, Family(BOXES)))
        if new_score >= score:
            score = new_score
        else:
            levels[j][p] = old
    if score != want:
        return None
    cfg = ConfigCode(d, n, tuple(tuple(lv) for lv in levels))
    ps = cfg.realize()
    report: ShatterReport = shatter_report(ps, Family(BOXES))
    if not report.shattered:
        return None
    return ps, report.witnesses
