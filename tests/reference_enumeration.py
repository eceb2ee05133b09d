"""Reference copies of the complete weak-cyclic-order enumeration and of
the dense-rank heredity test that ``torusvc.vcsearch`` replaced.

Kept verbatim, so that the tests can check the frontiers that
``vcsearch.shattered_frontiers`` grows by one-point extensions against every
weak cyclic order, and its heredity test, which re-ranks a deletion's
levels incrementally, against dense-ranking each deletion from scratch; it
imports nothing from ``torusvc``.  The enumeration handles d <= 2 only,
and yields level tuples (d tuples of n ints in 0..n-1), the form in which
``vcsearch`` holds every configuration.
"""

import itertools


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
    # choose the first block among all nonempty subsets of the points
    for pick in range(1, 1 << len(rest)):
        block = [rest[t] for t in range(len(rest)) if pick >> t & 1]
        remaining = [rest[t] for t in range(len(rest)) if not pick >> t & 1]
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


def enumerate_levels(d: int, n: int):
    """One level tuple or more per class of all weak cyclic orders of n
    points in dimension d, identifying only configurations related by global
    point relabeling, per-dimension rotation/reflection, and dimension
    permutation."""
    if d not in (1, 2) or n < 1:
        raise ValueError(f"the reference enumerates d in (1, 2) and n >= 1, not d={d}, n={n}")
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
            yield (lv,)
        return
    for lv1 in dim1_classes:
        for lv2 in _dim2_assignments(n):
            yield (lv1, lv2)


def _key(cols) -> int:
    """The sorted points of the columns cols as one int, one byte per
    level.  Levels are dense ranks, below n <= ENUM_GUARD_N, so a byte
    holds each one (at most 256 points).  Every key of one n and d has n·d
    bytes, so on configurations of one n and d the order of the ints is the
    lexicographic order of the sorted point tuples."""
    return int.from_bytes(bytes(itertools.chain.from_iterable(sorted(zip(*cols)))), "big")


def _dense(col) -> tuple:
    """(the dense ranks of a column's levels, the number of levels)."""
    rank = {v: r for r, v in enumerate(sorted(set(col)))}
    return [rank[v] for v in col], len(rank)


def _hereditary(levels, below: set) -> bool:
    """Whether every one-point deletion of an extension, but the deletion
    of its last (new) point, has its class in F_(n-1), whose anchored
    images' keys are below (the heredity lemma): each deletion is
    dense-ranked and rotated so that its point 0 sits at the origin, and
    that one anchored image is looked up."""
    for i in range(len(levels[0]) - 1):
        dense = [_dense(col[:i] + col[i + 1:]) for col in levels]
        if _key([[(x - col[0]) % b for x in col] for col, b in dense]) not in below:
            return False
    return True
