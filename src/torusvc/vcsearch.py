"""Exact VC-dimension computation for small d, plus randomized search.

A configuration is its level tuple, d tuples of n ints: per dimension, an
assignment of points to levels (a weak cyclic order; ties allowed), which
realize places at coordinates level/n.  For boxes and for stripes of any
length the verdict depends only on these weak cyclic orders, because an
arc's trace in one dimension is a cyclic run of tied groups.  Levels are
the integer view of the realized point set over the denominator n, so
every verdict counts shatter.realizable_masks on them.

vc_exact grows the frontier F_n of shattered classes, a class being the
canonical_class of a configuration, from F_1, the single one-point class:
enumerate_configs(d, n, F_(n-1)) streams the one-point extensions of
F_(n-1), and the shattered ones make up F_n.

Lemma (augmentation).  For boxes and for stripes of any length, F_n is the
set of classes of the shattered one-point extensions of the members of
F_(n-1), where a member with b_j levels in dimension j is extended by a point
that, in each dimension j, ties one of the b_j levels or enters one of the
b_j cyclic gaps.
Proof.  Each such extension that is shattered is in F_n.  Conversely, let C
be a shattered n-point configuration.  Every subset of a shattered set is
shattered, so C minus its last point is a shattered (n-1)-point
configuration, and some symmetry (point relabeling, per-dimension rotation
and reflection, dimension permutation) maps it onto its class in F_(n-1).
These symmetries preserve the verdict, so the image of C is shattered too,
and it is that class plus one point in one of the positions above.
F_1 is the single one-point class, so induction on n gives every F_n, and
the first empty F_n proves that no larger set is shattered.

Lemma (orbits).  Any extension in the orbit of a configuration C is one of
C's anchored images (canonical_class).
Proof.  A frontier class is dense (its levels in dimension j are
0..b_j - 1) and holds the origin, as its anchored minimum does; a tie keeps
the levels, a gap at t shifts the levels above t up by one, so every
extension is dense and keeps the origin.  A symmetry sending C onto it
sends some point p to the origin, and given p, the reflections and the
dimension permutation, that fixes the rotations: it is the anchored image
of p.  Symmetries preserve the verdict, so shattered_frontiers scores a
shattered orbit once, keeps all its anchored images, and skips every later
extension of the same n among them.

Lemma (heredity).  For n >= 2, an extension C of a member of F_(n-1) is
shattered only if, for each point i, the anchored image of C minus i that
sends its point 0 to the origin (dense-ranked levels, rotated, with no
reflection and no permutation) is an anchored image of a member of F_(n-1).
Proof.  Every subset of a shattered set is shattered, so C minus i is, and
F_(n-1) holds its class (augmentation lemma); that image is dense, holds
the origin and lies in C minus i's orbit, so by the orbit lemma's argument
it is an anchored image of that class's member, one key deciding orbit
membership.  Deleting the new point gives back the member extended, so
shattered_frontiers looks up the other n-1 deletions in the anchored images
of F_(n-1), and rejects C, before any closure, at the first one missing.

Lemma (untied point).  For n >= 2, a family realizes the n-1 points
full minus {i} only if point i is alone at its level in some dimension.
Proof.  Every family realizes an AND of per-dimension traces (a stripe a
single one), and each trace is empty, full, or a cyclic run of tied
groups, so a union of whole tied groups.  An AND equal to full minus {i}
needs a trace holding every point but i, and a union of tied groups is
that only when i is alone in its group.  So shattered_frontiers rejects,
before any closure, a candidate with a point tied in every dimension.

Cubes and stripes of one fixed length are subfamilies of boxes and of
stripes of any length, whose value U bounds theirs from above; but their
verdicts depend on distances, not only on the order type.  vc_exact
searches the superfamily's frontier classes, realized at level/n in each
per-dimension rotation, for a witness the subfamily shatters, and reports
the value only when a witness reaches U.  Otherwise the largest witness L
found gives the certified bracket L <= VC <= U, raised as VCBracket.
"""

import itertools
import random
from fractions import Fraction

from .errors import GuardExceeded, PostconditionError, VCBracket
from .shatter import (
    BOXES,
    CUBES,
    GROWTH_GUARD_N,
    STRIPES_ANY,
    STRIPES_FIXED,
    Family,
    realizable_masks,
    shatter_report,
)
from .torus import PointSet

ENUM_GUARD_D = 2
ENUM_GUARD_N = 8

# the superfamily whose frontier a distance-dependent family is searched in
SUPERFAMILY = {CUBES: BOXES, STRIPES_FIXED: STRIPES_ANY}


def realize(levels) -> PointSet:
    """The configuration's point set: point p sits at levels[j][p] / n in
    dimension j, for d tuples of n levels in 0..n-1."""
    n = len(levels[0])
    return PointSet(len(levels), n, tuple(
        tuple(Fraction(col[p], n) for col in levels) for p in range(n)))


def _check_size(d: int, n: int) -> None:
    """The guards of enumerate_configs; shattered_frontiers also runs them
    before it seeds F_1, which no enumeration builds."""
    if d > ENUM_GUARD_D:
        raise GuardExceeded(f"enumerate_configs guard: d={d} > {ENUM_GUARD_D}")
    if n > ENUM_GUARD_N:
        raise GuardExceeded(f"enumerate_configs guard: n={n} > {ENUM_GUARD_N}")
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")


def enumerate_configs(d: int, n: int, frontier):
    """Stream the n-point configurations to score: the one-point extensions
    of each (n-1)-point class in the frontier, which by the module's lemma
    contain a member of every shattered n-point class when the frontier is
    complete.  Per dimension the new point ties one of the b levels or
    enters one of the b cyclic gaps; a new point that duplicates an old one
    is skipped."""
    _check_size(d, n)
    for cls in frontier:
        if len(cls) != n - 1 or any(len(p) != d for p in cls):
            raise ValueError(f"frontier class {cls} is not {n - 1} points in dimension {d}")
        options = []
        for col in zip(*cls):
            b = max(col) + 1
            options.append([(col + (t,), t) for t in range(b)]
                           + [(tuple(x + (x > t) for x in col) + (t + 1,), None) for t in range(b)])
        for choice in itertools.product(*options):
            # t is None in a gap, where no old point can sit
            if tuple(t for _, t in choice) not in cls:
                yield tuple(levels for levels, _ in choice)


def _key(cols) -> int:
    """The sorted points of the columns cols as one int, one byte per
    level.  Levels are dense ranks, below n <= ENUM_GUARD_N, so a byte
    holds each one (at most 256 points).  Every key of one n and d has n·d
    bytes, so on configurations of one n and d the order of the ints is the
    lexicographic order of the sorted point tuples."""
    return int.from_bytes(bytes(itertools.chain.from_iterable(sorted(zip(*cols)))), "big")


def _points(key: int, n: int, d: int) -> tuple:
    """The sorted points of a key (see _key) of n points in dimension d."""
    return tuple(zip(*[iter(key.to_bytes(n * d, "big"))] * d))


def _images(levels) -> set:
    """The keys (see _key) of the anchored images of a configuration: its
    dense-ranked levels, reflected per dimension, rotated so that one point
    sits at the origin, and its dimensions put in every order."""
    n = len(levels[0])
    ranks = [{v: r for r, v in enumerate(sorted(set(col)))} for col in levels]
    dense = [([rank[v] for v in col], len(rank)) for col, rank in zip(levels, ranks)]
    return {
        _key(cols)
        for p in range(n)
        for signs in itertools.product((1, -1), repeat=len(dense))
        for cols in itertools.permutations(
            [[s * (x - col[p]) % b for x in col] for (col, b), s in zip(dense, signs)])
    }


def canonical_class(levels) -> tuple:
    """The class of a configuration: the minimum, over dimension
    permutations and per-dimension rotations and reflections of the
    dense-ranked levels, of the sorted tuple of points.

    Lemma (anchoring).  The minimum is taken over the images that send some
    point p to the origin, one per point, reflection vector and dimension
    permutation: n·2^d·d! images instead of d!·∏(2b_j).
    Proof.  Let I be an image whose first point q is not the origin.
    Rotations act on each dimension independently, so rotating each
    dimension j of I by -q_j gives another image, which holds the origin;
    the origin is the least point, so that image sorts before I.  Hence the
    minimum holds the origin, as the image of some point p, and given p,
    the reflections and the permutation, one rotation per dimension sends
    p to 0.

    Each image is keyed with one byte per dense-ranked level (see _key),
    so at most 256 points.
    """
    return _points(min(_images(levels)), len(levels[0]), len(levels))


def _untied(levels) -> bool:
    """Whether every point is alone at its level in some dimension, which
    a shattered configuration needs (the untied-point lemma)."""
    n = len(levels[0])
    return len({i for col in levels for i, x in enumerate(col) if col.count(x) == 1}) == n


def _hereditary(levels, below: set) -> bool:
    """Whether every one-point deletion of an extension, but that of its
    last (new) point, has its class in F_(n-1), whose anchored images'
    keys are below (the heredity lemma): each deletion is dense-ranked and
    rotated to put its point 0 at the origin, and that image is looked up.
    Extensions are dense (orbit lemma), so deleting point i lowers the
    levels above its own, and b, by one exactly when i is alone there."""
    for i in range(len(levels[0]) - 1):
        cols = []
        for col in levels:
            v, b = col[i], max(col) + 1
            if col.count(v) == 1:
                col, b = [x - (x > v) for x in col], b - 1
            rest = col[:i] + col[i + 1:]
            cols.append([(x - rest[0]) % b for x in rest])
        if _key(cols) not in below:
            return False
    return True


def _shattered(levels, family: Family) -> bool:
    """Whether the family shatters the configuration, by its closure."""
    n = len(levels[0])
    return len(realizable_masks(levels, n, family)) == 1 << n


def shattered_frontiers(d: int, family: Family, n_max: int) -> list:
    """[F_1, F_2, ...]: the sorted frontiers of shattered classes of the
    boxes or any-length stripes, up to n_max or the last nonempty one.
    Each candidate is keyed by its sorted points' bytes (see _key) and
    passes the untied-point test, then the heredity test against the
    anchored images of F_(n-1), before its closure.  A shattered one adds
    its whole orbit, its anchored images, to the images of F_n, and its class
    is the least of them; a rejected one adds its own key.  So by the orbit
    lemma each shattered orbit is decided once per n, and each other point
    multiset once."""
    if family.kind not in (BOXES, STRIPES_ANY):
        raise ValueError(f"order type does not decide the verdict of {family.kind}")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    _check_size(d, 1)
    frontiers = [[((0,) * d,)]]  # F_1: one point, at the origin in every dimension
    below = _images(((0,),) * d)
    for n in range(2, n_max + 1):
        images, rejected, found = set(), set(), []
        for levels in enumerate_configs(d, n, frontiers[-1]):
            key = _key(levels)
            if key in images or key in rejected:
                continue
            if _untied(levels) and _hereditary(levels, below) and _shattered(levels, family):
                orbit = _images(levels)
                images.update(orbit)
                found.append(_points(min(orbit), n, d))
            else:
                rejected.add(key)
        if not found:
            break
        frontiers.append(sorted(found))
        below = images
    return frontiers


def _rotations(cls):
    """The class's levels in each per-dimension rotation, the unrotated
    one first."""
    cols = tuple(zip(*cls))
    sizes = [max(col) + 1 for col in cols]
    for rotation in itertools.product(*map(range, sizes)):
        yield tuple(tuple((x + r) % b for x in col) for col, r, b in zip(cols, rotation, sizes))


def _rechecked(levels, family: Family):
    """(PointSet, certificate map) of a configuration found shattered,
    once shatter_report confirms it (PostconditionError if not)."""
    ps = realize(levels)
    report = shatter_report(ps, family)
    if not report.shattered:
        raise PostconditionError(f"the configuration found for n={len(ps)} fails its re-check")
    return ps, report.witnesses


def vc_exact(d: int, family: Family, n_max: int):
    """min(VC, n_max): the largest n <= n_max admitting a shattered set.

    Returns (value, witness PointSet, witness certificate map).  For boxes
    and stripes of any length the witness is the first class of the last
    nonempty frontier.  For cubes and fixed-length stripes it is the first
    rotation of a superfamily class the family shatters, searched from the
    superfamily's value U downward; when the largest such witness has
    L < U points, raises VCBracket(L, U) instead.  Every witness is
    re-checked by shatter_report.
    """
    superfamily = Family(SUPERFAMILY.get(family.kind, family.kind))
    frontiers = shattered_frontiers(d, superfamily, n_max)
    upper = len(frontiers)
    value, witness = upper, next(_rotations(frontiers[-1][0]))
    if family != superfamily:
        # every family shatters one point, so the search ends by n = 1
        value, witness = next(
            (n, levels) for n in range(upper, 0, -1)
            for cls in frontiers[n - 1] for levels in _rotations(cls) if _shattered(levels, family))
    ps, witnesses = _rechecked(witness, family)
    if value < upper:
        raise VCBracket(value, upper)
    return value, ps, witnesses


def search_shattered(d: int, n: int, budget: int, seed: int):
    """Randomized hill climb for a shattered configuration of boxes.

    Mutates one point's level in one dimension, keeping moves that do not
    decrease the number of realizable masks.  Any returned configuration is
    re-certified through shatter_report, so the result needs no trust in
    the search (PostconditionError if it fails).  Returns (PointSet,
    certificate map), or None when the budget runs out.  Each score counts
    a full closure, so n > GROWTH_GUARD_N is refused, as growth_count
    refuses it.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if n > GROWTH_GUARD_N:
        raise GuardExceeded(f"search_shattered guard: n={n} > {GROWTH_GUARD_N}")
    rng = random.Random(seed)
    levels = [[rng.randrange(n) for _ in range(n)] for _ in range(d)]
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
    return _rechecked(levels, Family(BOXES))
