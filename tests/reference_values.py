"""Reference copies of the 13 dataclasses that ``torusvc`` replaced with
plain classes (``torus.Value`` subclasses and ``bounds.BoundParams``).

Each is kept verbatim, with its ``frozen``, ``init``, ``repr`` and
``compare`` flags and its ``__post_init__`` checks, so that the tests can
check equality, hashing, repr, defaults and constructor signatures against
the semantics the package had before.  The records (``ShatterReport``,
``ExtractionVerdict``, ``LiftReport``, ``CountingLedger``, ``BoundParams``)
were mutable; the plain classes are immutable on purpose.  From
``torusvc`` this imports only ``torus._check_coord`` and the family kinds
of ``shatter``.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from torusvc.shatter import KINDS, STRIPES_FIXED
from torusvc.torus import _check_coord

Rat = Fraction
Mask = int


@dataclass(frozen=True)
class Arc:
    """A proper arc of the circle; wraps through 0 when start > end."""

    start: Rat
    end: Rat
    closed: bool = True
    # end - start, or 1 - start + end when wrapping; computed once
    length: Rat = field(init=False, repr=False, compare=False)
    # (s, e, w, q): start s/q, end e/q, length w/q, q = lcm of the endpoint denominators
    grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        start, end = self.start, self.end
        _check_coord(start, "arc start")
        _check_coord(end, "arc end")
        sq, eq = start.denominator, end.denominator
        q = lcm(sq, eq)
        s, e = start.numerator * (q // sq), end.numerator * (q // eq)
        if s == e:
            raise ValueError("degenerate or full-circle arc is not allowed")
        w = e - s if s < e else q - s + e
        object.__setattr__(self, "length", Fraction(w, q))
        object.__setattr__(self, "grid", (s, e, w, q))


@dataclass(frozen=True)
class Box:
    """Product of d closed arcs on the torus."""

    arcs: tuple

    def __post_init__(self):
        if len(self.arcs) < 1:
            raise ValueError("box needs at least one dimension")
        for a in self.arcs:
            if not a.closed:
                raise ValueError("box factors must be closed arcs")

    @property
    def dim(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class Cube(Box):
    """Box whose arcs all have the same length, its edge."""

    edge: Rat = field(init=False)

    def __post_init__(self):
        # one pass; on a fault Box's checks run first, so their messages outrank the edge's
        if not self.arcs:
            Box.__post_init__(self)
        object.__setattr__(self, "edge", self.arcs[0].length)
        num, den = self.edge.numerator, self.edge.denominator
        for a in self.arcs:
            _, _, w, q = a.grid
            if w * den != num * q or not a.closed:
                Box.__post_init__(self)
                raise ValueError("cube arcs must all have the edge length")


@dataclass(frozen=True)
class Stripe:
    """Full circles in every dimension except one open arc in anchor_dim.

    anchor_dim is 0-indexed.
    """

    anchor_dim: int
    arc: Arc
    ambient_dim: int

    def __post_init__(self):
        if not 0 <= self.anchor_dim < self.ambient_dim:
            raise ValueError("anchor dimension out of range")
        if self.arc.closed:
            raise ValueError("stripe cross-section must be an open arc")


@dataclass(frozen=True)
class PointSet:
    """A finite configuration on the d-torus, all coordinates on a 1/D grid."""

    dim: int
    denom: int
    points: tuple
    # integer view: cols[j][i] is D times point i's coordinate in dimension j
    cols: tuple = field(init=False, repr=False, compare=False)
    # {(j, arc.grid, arc.closed): mask of the points in the arc}, covered_mask's cache
    covers: dict = field(init=False, repr=False, compare=False)
    # {family: its shatter tables}, shatter._family_tables's cache
    tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.denom < 1:
            raise ValueError("denominator must be positive")
        denom = self.denom
        cols = [[] for _ in range(self.dim)]
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point dimension mismatch")
            for col, x in zip(cols, p):
                _check_coord(x)
                # x is in lowest terms, so it is on the grid iff its denominator divides D
                if denom % x.denominator:
                    raise ValueError(f"coordinate {x} not on the 1/{denom} grid")
                col.append(x.numerator * (denom // x.denominator))
        object.__setattr__(self, "cols", tuple(map(tuple, cols)))
        object.__setattr__(self, "covers", {})
        object.__setattr__(self, "tables", {})


@dataclass(frozen=True)
class SymbolMatrix:
    """A c x d matrix with entries in {0..k-1}."""

    rows: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("alphabet size must be positive")
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for v in row:
                if not 0 <= v < self.k:
                    raise ValueError(f"entry {v} outside alphabet of size {self.k}")


@dataclass
class ExtractionVerdict:
    holds: bool
    counterexample_word: tuple = None
    failure_witness: tuple = None  # (rows U, columns V, {row: symbol})


@dataclass
class CountingLedger:
    """Exact counting quantities behind the random-matrix failure bound."""

    q: Fraction
    m: int
    k: int
    c: int
    d: int
    A: int
    T: int
    F: list  # F[i-1] bounds the bad balanced words for |U| = i
    H_bound: list  # H_bound[i-1] bounds the matrices witnessed at size i
    B_bound: int
    ratio_bound: Fraction


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


@dataclass
class BoundParams:
    """Parameter bundle for the random extraction-matrix construction."""

    d: int
    f: int
    q: Fraction
    m: int
    k: int
    c: int
    d_prime: int
    condition_ok: bool
    ext_req_ok: bool
