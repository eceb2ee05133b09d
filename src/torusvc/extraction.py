"""k-extraction matrices: checkers, sampler, and exact counting bounds.

A c x d matrix over the alphabet {0..k-1} has the k-extraction property if
every target word of length c can be read off in pairwise distinct columns,
one per row.  The property fails exactly when some row set U and column set
V with |V| = |U| - 1 exist such that every row of U has a symbol occurring
only inside V (a Hall violator in disguise).  Each checker takes its
violator from its own search: exhaustive mode, which gives each row a free
column when its support has one and augments only when it has none, from
the columns its failed augmenting path visited; witness mode from a pruned
depth-first search over the rows.
"""

import random
from fractions import Fraction
from math import comb, factorial

from .errors import GuardExceeded, PostconditionError
from .matching import augment, maximum_matching
from .torus import Value

MODES = ("exhaustive", "witness")  # the modes of check_extraction
EXHAUSTIVE_GUARD = 10**7
# the prefix search and each augmenting path recurse once per row
EXHAUSTIVE_ROW_GUARD = 200
WITNESS_NODE_BUDGET = 10**7
SAMPLE_GUARD_ENTRIES = 1 << 20  # c * d entries a balanced matrix may have


class SymbolMatrix(Value):
    """A c x d matrix with entries in {0..k-1}."""

    _fields = ("rows", "k")

    def __init__(self, rows: tuple, k: int):
        if k < 1:
            raise ValueError("alphabet size must be positive")
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for v in row:
                if not 0 <= v < k:
                    raise ValueError(f"entry {v} outside alphabet of size {k}")
        vars(self).update(rows=rows, k=k)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def support(self, i: int, symbol: int):
        """Columns of row i holding the symbol, ascending."""
        return [j for j, v in enumerate(self.rows[i]) if v == symbol]

    def is_balanced(self) -> bool:
        """Every symbol appears equally often in every row.  A row's counts
        sum to d, so they all equal d // k only when k divides d."""
        per = self.n_cols // self.k
        return all(
            all(row.count(s) == per for s in range(self.k)) for row in self.rows
        )


class ExtractionVerdict(Value):
    _fields = ("holds", "counterexample_word", "failure_witness")

    def __init__(self, holds: bool, counterexample_word: tuple = None,
                 failure_witness: tuple = None):  # (rows U, columns V, {row: symbol})
        vars(self).update(holds=holds, counterexample_word=counterexample_word,
                          failure_witness=failure_witness)


def superdiagonal_matrix(c: int) -> SymbolMatrix:
    """The c x (c+1) two-symbol matrix with symbol 1 on the superdiagonal."""
    if c < 1:
        raise ValueError("c must be positive")
    rows = tuple(
        tuple(1 if j == i + 1 else 0 for j in range(c + 1)) for i in range(c)
    )
    return SymbolMatrix(rows, 2)


def shifted_staircase(d: int) -> SymbolMatrix:
    """The (d-2) x d matrix M[i][j] = min(max(j - i, 0), 2), which has the
    3-extraction property with the ceiling d - k + 1 of rows.

    Row i's supports are [0, i], {i+1} and [i+2, d).  Proof, by Hall: for a
    word and rows U, let a be U's last row choosing 0 (-1 if none) and b its
    first choosing 2 (d - 2 if none).  If a > b, N(U) is every column.
    Else the rows choosing 0, or 1 into [0, a], have index <= a: at most
    a + 1, the size of [0, a].  Those choosing 2, or 1 into [b+2, d), have
    index >= b: at most d - 2 - b, the size of [b+2, d).  The rest choose 1
    and land on distinct columns in between.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    return SymbolMatrix(tuple(
        tuple(min(max(j - i, 0), 2) for j in range(d)) for i in range(d - 2)), 3)


def validate_failure_witness(matrix: SymbolMatrix, witness) -> bool:
    """Independent re-check of a (U, V, symbols) failure witness.

    U holds distinct rows in [0, c) and V distinct columns in [0, d), with
    |V| = |U| - 1, and each row of U has a symbol in [0, k) whose support
    lies inside V.
    """
    rows, cols, symbols = witness
    rowset, colset = set(rows), set(cols)
    if len(cols) != len(rows) - 1:
        return False
    if len(rowset) != len(rows) or not rowset <= set(range(matrix.n_rows)):
        return False
    if len(colset) != len(cols) or not colset <= set(range(matrix.n_cols)):
        return False
    for u in rows:
        if u not in symbols or symbols[u] not in range(matrix.k):
            return False
        if not set(matrix.support(u, symbols[u])) <= colset:
            return False
    return True


def word_matchable(matrix: SymbolMatrix, word) -> bool:
    """Can the word be extracted in pairwise distinct columns?"""
    adjacency = [matrix.support(i, word[i]) for i in range(matrix.n_rows)]
    size, _ = maximum_matching(adjacency, matrix.n_cols)
    return size == matrix.n_rows


def check_extraction(matrix: SymbolMatrix, mode: str = "witness") -> ExtractionVerdict:
    """Decide the k-extraction property.

    exhaustive mode tries every word (first counterexample in lexicographic
    word order); witness mode searches the rows depth first for a Hall
    violator, pruned by how many rows are left.  A negative verdict is
    re-checked before it is returned: its failure witness must pass
    validate_failure_witness and its counterexample word, if any, must be
    unmatchable (else PostconditionError).
    """
    c, k = matrix.n_rows, matrix.k
    if mode == "exhaustive":
        if k**c > EXHAUSTIVE_GUARD:
            raise GuardExceeded(
                f"exhaustive check guard: k^c = {k**c} > {EXHAUSTIVE_GUARD}"
            )
        if c > EXHAUSTIVE_ROW_GUARD:
            raise GuardExceeded(
                f"exhaustive check guard: c = {c} rows > {EXHAUSTIVE_ROW_GUARD}"
            )
        verdict = _check_exhaustive(matrix)
    elif mode == "witness":
        verdict = _check_witness(matrix)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    word = verdict.counterexample_word
    if not verdict.holds and (not validate_failure_witness(matrix, verdict.failure_witness)
                              or word is not None and word_matchable(matrix, word)):
        raise PostconditionError(f"negative verdict {verdict} fails its re-check")
    return verdict


def _check_exhaustive(matrix: SymbolMatrix) -> ExtractionVerdict:
    """The first unmatchable word in lexicographic order, or holds.

    A depth-first walk over word prefixes extends the prefix's perfect
    matching by one row at a time; `used` is the bitmask of its matched
    columns.  When row r's support has a free column, r takes the lowest
    one in place, and the match is undone once the subtree is walked; the
    last row has no subtree, so a free column settles it.  Only a support
    with no free column costs a copy of the matching and an augmenting
    path, which ends at the one visited column outside `used`.
    When a prefix p has no augmenting path, no word starting with p is
    matchable, and every word before p + zeros has been matched, so
    p + zeros is the first counterexample.  The failed path visited only
    matched columns and searched the whole support of each row matched
    there, so those rows and the last row (U) against the visited columns
    (V, |V| = |U| - 1) are the failure witness.

    Lemma: the word and the witness do not depend on which perfect
    matching of each prefix the walk keeps, so this walk names the same
    ones as an augmenting path per row would.  Whether a prefix can be
    matched is a property of its graph alone (Berge), so the walk fails
    first at the same word.  There row r is the only unmatched row, so the
    matching is maximum and r's failed search reaches exactly the rows
    that some maximum matching leaves unmatched, with their neighbour
    columns: the Gallai-Edmonds deficient set D and N(D), which no choice
    of maximum matching moves (Dulmage and Mendelsohn, Canad. J. Math. 10
    (1958) 517-534).

    Lemma (settled states).  A subtree entered at row r with columns
    `used` that holds no failing word, and whose augmenting paths visited
    no column in `used` (touched_columns returns the ones they visited),
    never read a prefix row: it is a function of (r, used), so no prefix
    matched onto `used` has a failing word below it.  settled[r] keeps such
    `used`; skipping them keeps the first failure, its matching and witness.
    """
    c, d = matrix.n_rows, matrix.n_cols
    supports = [[matrix.support(i, s) for s in range(matrix.k)] for i in range(c)]
    masks = [[sum(1 << j for j in support) for support in row] for row in supports]
    word = [0] * c
    adjacency = [None] * c
    settled, failure = [set() for _ in range(c)], []

    def touched_columns(r, match_right, used):
        touched = 0
        for s, mask in enumerate(masks[r]):
            free = mask & ~used
            if free and r + 1 == c:
                continue
            word[r] = s
            adjacency[r] = supports[r][s]
            if free:
                low = free & -free
                nxt = used | low
                if nxt in settled[r + 1]:
                    continue
                j = low.bit_length() - 1
                match_right[j] = r
                below = touched_columns(r + 1, match_right, nxt)
                match_right[j] = None
            else:
                extended, visited = match_right[:], set()
                if not augment(adjacency, r, extended, visited):
                    failure.append((r, {r, *(extended[j] for j in visited)}, visited))
                    return None
                seen = sum(1 << j for j in visited)
                touched |= seen
                nxt = used | seen
                if r + 1 == c or nxt in settled[r + 1]:
                    continue
                below = touched_columns(r + 1, extended, nxt)
            if below is None:
                return None
            if not below & nxt:
                settled[r + 1].add(nxt)
            touched |= below
        return touched

    if touched_columns(0, [None] * d, 0) is not None:
        return ExtractionVerdict(True)
    r, rows, cols = failure[0]
    word = tuple(word[: r + 1]) + (0,) * (c - r - 1)
    rows = tuple(sorted(rows))
    return ExtractionVerdict(False, word, (rows, tuple(sorted(cols)), {u: word[u] for u in rows}))


def _check_witness(matrix: SymbolMatrix) -> ExtractionVerdict:
    """Search rows 0..c-1 in order for a Hall violator (U, V).

    Each row is taken into U with one symbol, which adds that symbol's
    support to V, or skipped; V is a column bitmask.  A row with a support
    already inside V is taken at once without branching: any violator that
    skips it stays one when it is added.  A node is cut when |V| exceeds
    |U| plus the rows left, minus one.  A forced take keeps
    |V| <= |U| + (rows left) - 1, so taking the last row gives |V| < |U|:
    a node that gets past the takes always has a row left to branch on.
    U grows one row at a time, so the first |V| < |U| met, where the search
    stops, has |V| = |U| - 1.  More than WITNESS_NODE_BUDGET nodes raise
    GuardExceeded.  The stack is explicit, so no matrix is too deep for the
    interpreter's recursion limit.
    A node whose |U| does not beat best[(r, V)], the largest expanded from (r, V), is
    cut: a larger |U| reaches a violator whenever a smaller one does, and the earlier
    node's subtree, which cannot hold the later node as r grows, held none.
    """
    c, k, d = matrix.n_rows, matrix.k, matrix.n_cols
    masks = [[sum(1 << j for j in matrix.support(i, s)) for s in range(k)] for i in range(c)]
    # (next row, V, |U|, U as nested ((row, symbol), rest) pairs)
    stack = [(0, 0, 0, None)]
    best = {}
    nodes = 0
    while stack:
        nodes += 1
        if nodes > WITNESS_NODE_BUDGET:
            raise GuardExceeded(
                f"witness check guard: more than {WITNESS_NODE_BUDGET} search nodes"
            )
        r, cols, size, taken = stack.pop()
        width = cols.bit_count()
        if width > size + c - r - 1 or best.get((r, cols), -1) >= size:
            continue
        best[r, cols] = size
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
        stack.append((r + 1, cols, size, taken))
        for s in reversed(range(k)):
            stack.append((r + 1, cols | masks[r][s], size + 1, ((r, s), taken)))
    return ExtractionVerdict(True)


def _require_integral_qm(q, m: int) -> int:
    q = Fraction(q)
    qm = q * m
    if qm.denominator != 1:
        raise ValueError(f"qm = {qm} is not an integer")
    return int(qm)


def random_balanced_matrix(m: int, k: int, q, seed: int) -> SymbolMatrix:
    """A c x d matrix whose rows are independent uniform balanced words.

    c = mk, d = qmk; each row is a seeded Fisher-Yates shuffle of the fixed
    multiset with qm copies of every symbol, so the output is deterministic
    for a given seed.
    """
    rng = random.Random(seed)
    return _balanced_matrix_from(rng, m, k, q)


def _balanced_matrix_from(rng, m: int, k: int, q) -> SymbolMatrix:
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    qm = _require_integral_qm(q, m)
    c = m * k
    if c * qm * k > SAMPLE_GUARD_ENTRIES:
        raise GuardExceeded(
            f"balanced matrix guard: c * d = {c * qm * k} entries > {SAMPLE_GUARD_ENTRIES}")
    rows = []
    for _ in range(c):
        row = [s for s in range(k) for _ in range(qm)]
        rng.shuffle(row)
        rows.append(tuple(row))
    return SymbolMatrix(tuple(rows), k)


def sample_extraction_matrix(m: int, k: int, q, max_trials: int, seed: int):
    """Rejection-sample balanced matrices until one has the property.

    Returns (matrix, trials_used), or None when max_trials were exhausted.
    All trials draw from a single seeded stream.
    """
    rng = random.Random(seed)
    for trial in range(1, max_trials + 1):
        matrix = _balanced_matrix_from(rng, m, k, q)
        if check_extraction(matrix, "witness").holds:
            return matrix, trial
    return None


def verify_ext_req(q, m: int, k: int) -> bool:
    """Exact check of (q - q/k)^(qm) > q m^2 k^3."""
    q = Fraction(q)
    qm = _require_integral_qm(q, m)
    return (q - q / k) ** qm > q * m * m * k**3


class CountingLedger(Value):
    """Exact counting quantities behind the random-matrix failure bound: F[i-1] bounds the
    bad balanced words for |U| = i, and H_bound[i-1] the matrices witnessed at size i."""

    _fields = ("q", "m", "k", "c", "d", "A", "T", "F", "H_bound", "B_bound", "ratio_bound")

    def __init__(self, q: Fraction, m: int, k: int, c: int, d: int, A: int, T: int, F: list,
                 H_bound: list, B_bound: int, ratio_bound: Fraction):
        vars(self).update(q=q, m=m, k=k, c=c, d=d, A=A, T=T, F=F, H_bound=H_bound,
                          B_bound=B_bound, ratio_bound=ratio_bound)


def failure_probability_bound(q, m: int, k: int) -> CountingLedger:
    """Exact evaluation of the failure-count chain for balanced matrices.

    ratio_bound = B/T is a valid upper bound on the probability that a
    uniform balanced matrix lacks the k-extraction property.
    """
    q = Fraction(q)
    qm = _require_integral_qm(q, m)
    c = m * k
    d = qm * k
    A = factorial(d) // factorial(qm) ** k
    T = A**c
    F = []
    H = []
    for i in range(1, c + 1):
        f_i = k * comb(i - 1, qm) * (factorial(d - qm) // factorial(qm) ** (k - 1))
        F.append(f_i)
        H.append(comb(c, i) * comb(d, i - 1) * f_i**i * A ** (c - i))
    B = sum(H)
    return CountingLedger(q, m, k, c, d, A, T, F, H, B, Fraction(B, T))
