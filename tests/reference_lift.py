"""Reference copies of the word-by-word extraction checker, its Hall
violator search, the witness-mode search without its memo and the
Fraction-path cube witness that ``torusvc`` replaced.

``_check_exhaustive`` matches every word of the matrix from scratch and
takes its failure witness from ``deficient_set``'s alternating search,
``_check_witness`` expands every node it pops, and ``cube_witness``
rebuilds each group's base stripe, support and arcs per mask.  They are
kept verbatim, but for the witness search's own node budget, so that the
tests can check the prefix-DFS checker, the memoized witness search and
the per-instance cell tables against the answers the package gave before.
They match through ``reference_matching``'s copy of the Kuhn loop, not the
one they check.  From ``torusvc`` this imports only ``torus``, ``stripes``
and ``shatter``.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from reference_matching import maximum_matching
from torusvc.shatter import scan_stripe
from torusvc.stripes import stripe_witness
from torusvc.torus import ONE, Arc, Cube

Mask = int


@dataclass
class ExtractionVerdict:
    holds: bool
    counterexample_word: tuple = None
    failure_witness: tuple = None  # (rows U, columns V, {row: symbol})


def deficient_set(adjacency, n_right: int):
    """A Hall violator for an unmatchable instance.

    Returns (rows, neighbourhood) with |neighbourhood| < |rows|, or None if
    a perfect matching of all left vertices exists.
    """
    size, match_left = maximum_matching(adjacency, n_right)
    if size == len(adjacency):
        return None
    match_right = [None] * n_right
    for i, j in enumerate(match_left):
        if j is not None:
            match_right[j] = i
    free = next(i for i, j in enumerate(match_left) if j is None)
    # alternating reachability from the free vertex
    rows = {free}
    cols = set()
    frontier = [free]
    while frontier:
        i = frontier.pop()
        for j in adjacency[i]:
            if j in cols:
                continue
            cols.add(j)
            i2 = match_right[j]
            if i2 is not None and i2 not in rows:
                rows.add(i2)
                frontier.append(i2)
    # every row in rows except the free one is matched into cols
    return sorted(rows), sorted(cols)


def _pad_columns(cols, want: int, n_cols: int):
    """Extend a column set to the wanted cardinality, smallest indices first."""
    out = list(cols)
    for j in range(n_cols):
        if len(out) >= want:
            break
        if j not in cols:
            out.append(j)
    out.sort()
    return tuple(out)


def _check_exhaustive(matrix) -> ExtractionVerdict:
    c = matrix.n_rows
    for word in product(range(matrix.k), repeat=c):
        adjacency = [matrix.support(i, word[i]) for i in range(c)]
        if maximum_matching(adjacency, matrix.n_cols)[0] < c:
            rows, cols = deficient_set(adjacency, matrix.n_cols)
            cols = _pad_columns(cols, len(rows) - 1, matrix.n_cols)
            witness = (tuple(rows), cols, {u: word[u] for u in rows})
            return ExtractionVerdict(False, word, witness)
    return ExtractionVerdict(True)


WITNESS_NODE_BUDGET = 10**7


def _check_witness(matrix) -> ExtractionVerdict:
    """Search rows 0..c-1 in order for a Hall violator (U, V).

    Each row is taken into U with one symbol, which adds that symbol's
    support to V, or skipped; V is a column bitmask.  A row with a support
    already inside V is taken at once without branching: any violator that
    skips it stays one when it is added.  A node is cut when |V| exceeds
    |U| plus the rows left, minus one.  U grows one row at a time, so the
    first |V| < |U| met, where the search stops, has |V| = |U| - 1.  More
    than WITNESS_NODE_BUDGET nodes raise RuntimeError.  The stack is
    explicit, so no matrix is too deep for the interpreter's recursion limit.
    """
    c, k, d = matrix.n_rows, matrix.k, matrix.n_cols
    masks = [[sum(1 << j for j in matrix.support(i, s)) for s in range(k)] for i in range(c)]
    # (next row, V, |U|, U as nested ((row, symbol), rest) pairs)
    stack = [(0, 0, 0, None)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > WITNESS_NODE_BUDGET:
            raise RuntimeError(
                f"witness check guard: more than {WITNESS_NODE_BUDGET} search nodes"
            )
        r, cols, size, taken = stack.pop()
        width = cols.bit_count()
        if width > size + c - r - 1:
            continue
        while width >= size and r < c:
            s = next((s for s, mask in enumerate(masks[r]) if mask | cols == cols), None)
            if s is None:
                break
            taken, size, r = ((r, s), taken), size + 1, r + 1
        if width < size:
            symbols = {}
            while taken is not None:
                (u, s), taken = taken
                symbols[u] = s
            cols = tuple(j for j in range(d) if cols >> j & 1)
            return ExtractionVerdict(False, None, (tuple(sorted(symbols)), cols, symbols))
        if r == c:
            continue
        stack.append((r + 1, cols, size, taken))
        for s in reversed(range(k)):
            stack.append((r + 1, cols | masks[r][s], size + 1, ((r, s), taken)))
    return ExtractionVerdict(True)


def _base_stripe(inst, subset: Mask):
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


def cube_witness(inst, subset: Mask) -> Cube:
    """The construction's cube realizing a subset of the lifted points.

    Builds one scaled stripe per group (dimension chosen by matching the
    anchor word through the matrix), fills the remaining dimensions with
    the point-free stripe ((c)/(c+1), (c+l)/(c+1)), and returns the cube
    whose factors are the closed complements; edge is exactly 1 - l/(c+1).
    """
    c = inst.matrix.n_rows
    d = inst.matrix.n_cols
    u = len(inst.base)
    if subset < 0 or subset >> (c * u):
        raise ValueError("mask out of range for the lifted point set")
    l = inst.length
    scale = Fraction(1, c + 1)

    # the cube is the complement of the stripe union, so the stripes must
    # cover exactly the points outside the requested subset
    anchors = []
    starts = []
    for i in range(c):
        group = ~(subset >> (i * u)) & ((1 << u) - 1)
        anchor, start = _base_stripe(inst, group)
        anchors.append(anchor)
        starts.append(start)

    adjacency = [inst.matrix.support(i, anchors[i]) for i in range(c)]
    size, match = maximum_matching(adjacency, d)
    if size < c:
        raise ValueError(
            "extraction matching failed: matrix lacks the extraction property "
            f"for anchor word {tuple(anchors)}"
        )

    # open stripe arcs per lifted dimension
    stripe_arcs = {}
    for i in range(c):
        n_i = match[i]
        stripe_arcs[n_i] = (
            (i + starts[i]) * scale,
            (i + starts[i] + l) * scale,
        )
    filler = (c * scale, (c + l) * scale)
    arcs = []
    for n in range(d):
        s, e = stripe_arcs.get(n, filler)
        arcs.append(Arc(e % ONE, s % ONE))  # closed complement of the open stripe
    return Cube(tuple(arcs))
