"""Flat-file formats: point sets, symbol matrices, and certificates.

All three formats are whitespace-separated base-10 integers with newline
line endings and round-trip exactly.  Certificates store one witness shape
per mask, with every coordinate as a numerator over a common denominator,
so they re-verify offline using only containment tests.
"""

from fractions import Fraction
from itertools import chain
from math import lcm

from .extraction import SymbolMatrix
from .torus import Arc, Box, Cube, PointSet, Stripe, shape_factors

SEEN_MAP_POINTS = 24  # the certificate reader marks masks of up to 24 points in a 2 MiB bitmap


class ParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def parse_rat(text: str) -> Fraction:
    """Rational flag syntax: 'p/q' or a plain integer."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}") from exc


def _read_ints(path, lineno, line, count, what):
    parts = line.split()
    if len(parts) != count:
        raise ParseError(path, lineno, f"expected {count} {what}, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(path, lineno, f"non-integer {what}") from None


def _lines(path, kind: str):
    """(number, line) per line of str.splitlines, read as consumed; no line is refused."""
    with open(path) as fh:
        lines = enumerate((line for chunk in fh for line in chunk.splitlines()), start=1)
        first = next(lines, None)
        if first is None:
            raise ParseError(path, 1, f"empty {kind} file")
        yield first
        yield from lines


def _read_rows(path, lines, rows: int, width: int, bound: int, names) -> list:
    """The rows lines after the header, each of width integers in [0, bound);
    only blank lines may follow them.  names = (the rows, the integers, one
    integer), as the error messages call them."""
    what, items, item = names
    if len(lines) < rows + 1:
        raise ParseError(path, len(lines), f"expected {rows} {what}")
    out = []
    for lineno, line in enumerate(lines[1:rows + 1], start=2):
        vals = _read_ints(path, lineno, line, width, items)
        for v in vals:
            if not 0 <= v < bound:
                raise ParseError(path, lineno, f"{item} {v} outside [0,{bound})")
        out.append(tuple(vals))
    for lineno, line in enumerate(lines[rows + 1:], start=rows + 2):
        if line.strip():
            raise ParseError(path, lineno, f"expected {rows} {what}, got more")
    return out


def _write_rows(path, rows) -> None:
    """One line of space-separated integers per row, the header first."""
    with open(path, "w") as fh:
        fh.write("".join(" ".join(map(str, row)) + "\n" for row in rows))


def write_points(ps: PointSet, path: str) -> None:
    _write_rows(path, [(ps.dim, len(ps), ps.denom), *zip(*ps.cols)])


def read_points(path: str) -> PointSet:
    lines = [line for _, line in _lines(path, "points")]
    d, n, denom = _read_ints(path, 1, lines[0], 3, "header fields (d n D)")
    if d < 1 or n < 0 or denom < 1:
        raise ParseError(path, 1, f"invalid header d={d} n={n} D={denom}")
    rows = _read_rows(path, lines, n, d, denom, ("point lines", "coordinates", "coordinate"))
    return PointSet(d, denom, tuple(tuple(Fraction(t, denom) for t in ts) for ts in rows))


def write_matrix(matrix: SymbolMatrix, path: str) -> None:
    _write_rows(path, [(matrix.n_rows, matrix.n_cols, matrix.k), *matrix.rows])


def read_matrix(path: str) -> SymbolMatrix:
    lines = [line for _, line in _lines(path, "matrix")]
    c, d, k = _read_ints(path, 1, lines[0], 3, "header fields (c d k)")
    if c < 1 or d < 1 or k < 1:
        raise ParseError(path, 1, f"invalid header c={c} d={d} k={k}")
    rows = _read_rows(path, lines, c, d, k, ("matrix rows", "entries", "entry"))
    return SymbolMatrix(tuple(rows), k)


def write_certificate(witnesses, dim: int, n_points: int, path: str, denom: int = None) -> None:
    """Serialize shapes of one kind, formatting each distinct arc once: a mask -> shape dict, or
    (mask, shape) pairs in ascending mask order, streamed, with denom the lcm of their arcs' q."""
    if denom is None:
        # lcm(start, end denominators) = lcm(start, length denominators): end = start + length mod 1
        denom = lcm(*(a.grid[3] for s in witnesses.values() for _, a in shape_factors(s, dim)))
        witnesses = sorted(witnesses.items())
    pairs = iter(witnesses)
    first_mask, first = next(pairs, (None, None))
    if first is None:
        raise ValueError("refusing to write an empty certificate")
    kind = type(first).__name__.lower()
    text = {}  # arc grid -> (start, length) numerators over denom, as text
    with open(path, "w") as fh:
        fh.write(f"{dim} {n_points} {denom} {kind}\n")
        for mask, shape in chain([(first_mask, first)], pairs):
            if type(shape) is not type(first):
                raise ValueError(f"mixed shape kinds: {kind} and {type(shape).__name__.lower()}")
            cells = []
            for _, arc in shape_factors(shape, dim):
                if (cell := text.get(arc.grid)) is None:
                    s, _, w, q = arc.grid
                    if denom % q:
                        raise ValueError(f"denominator {denom} is not a multiple of an arc's {q}")
                    cell = text[arc.grid] = str(s * (denom // q)), str(w * (denom // q))
                cells.append(cell)
            starts, lengths = zip(*cells)
            if kind == "stripe":
                starts = (str(shape.anchor_dim), *starts)
            elif kind == "cube":
                lengths = lengths[:1]
            fh.write(f"mask={mask:x} shape={' '.join(starts)} ; {' '.join(lengths)}\n")


def certificate_lines(path: str):
    """Yields the header (dim, n_points, denom, kind), then (mask, shape) per non-blank line
    as it is parsed, in the grammar write_certificate writes: 'mask=' and lowercase hex
    digits, then decimal numerators; each decimal numeral, the header's too, is spelled
    str(int(numeral)), and each arc start is in [0, D).  Repeats are refused: masks in
    [0, 2^n) for n <= SEEN_MAP_POINTS are marked in a 2^n-bit map, others in a set."""
    lines = _lines(path, "certificate")
    head = next(lines)[1].split()
    if len(head) != 4:
        raise ParseError(path, 1, "expected header 'd n D kind'")
    try:
        dim, n_points, denom = map(_numeral, head[:3])
    except ValueError:
        raise ParseError(path, 1, "non-integer header field") from None
    if dim < 1 or n_points < 0:
        raise ParseError(path, 1, f"invalid header d={dim} n={n_points}")
    if denom < 1:
        raise ParseError(path, 1, f"invalid header D={denom}")
    kind = head[3]
    if kind not in ("box", "cube", "stripe"):
        raise ParseError(path, 1, f"unknown certificate kind {kind!r}")
    yield dim, n_points, denom, kind
    seen = bytearray((1 << n_points) + 7 >> 3 if n_points <= SEEN_MAP_POINTS else 0)
    others = set()
    # (length, closed) -> {start: Arc}, numerators' text; _arc_from runs on a miss only
    arcs = _Table(lambda key: _Table(lambda start: _arc_from(start, *key, denom)))
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            mask_part, shape_part = line.split(" shape=")
            digits = mask_part.removeprefix("mask=")
            left, right = shape_part.split(";")
            nums, tail = left.split(), right.split()
            # int() also takes signs, underscores, 0x, other scripts' digits and leading zeros
            if (digits == mask_part or digits.strip("0123456789abcdef")
                    or len(digits) > 1 and digits[0] == "0"
                    or "".join(nums + tail).strip("0123456789")):
                raise ValueError(line)
            mask = int(digits, 16)
        except ValueError:
            raise ParseError(path, lineno, "malformed certificate line") from None
        byte, bit = mask >> 3, 1 << (mask & 7)
        if byte < len(seen) and not seen[byte] & bit:
            seen[byte] |= bit
        elif byte < len(seen) or mask in others:
            raise ParseError(path, lineno, f"repeated mask {mask:x}")
        else:
            others.add(mask)
        try:
            shape = _build_shape(kind, dim, nums, tail, arcs)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        yield mask, shape


def read_certificate(path: str):
    """Returns (dim, n_points, denom, kind, {mask: shape})."""
    lines = certificate_lines(path)
    return (*next(lines), dict(lines))


def _numeral(text: str) -> int:
    # write_certificate's one spelling, str(int(text)): no '+', '_', '-0' or leading zero
    value = int(text)
    if str(value) != text:
        raise ValueError("malformed certificate line")
    return value


class _Table(dict):
    """A dict that builds a missing value as make(key) and keeps it."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        return self.setdefault(key, self.make(key))


def _arc_from(start: str, length: str, closed: bool, denom: int) -> Arc:
    start_num, len_num = _numeral(start), _numeral(length)
    if not 0 < len_num < denom:
        raise ValueError(f"arc length {Fraction(len_num, denom)} outside (0,1)")
    if start_num >= denom:
        raise ValueError(f"arc start {Fraction(start_num, denom)} outside [0,1)")
    end = (start_num + len_num) % denom
    return Arc(Fraction(start_num, denom), Fraction(end, denom), closed=closed)


def _build_shape(kind, dim, nums, tail, arcs):
    if kind == "stripe":
        if len(nums) != 2 or len(tail) != 1:
            raise ValueError("stripe shape needs 'anchor start ; length'")
        return Stripe(_numeral(nums[0]), arcs[tail[0], False][nums[1]], dim)
    if len(nums) != dim:
        raise ValueError(f"expected {dim} arc starts, got {len(nums)}")
    if kind == "cube":
        if len(tail) != 1:
            raise ValueError("cube shape needs a single edge numerator")
        return Cube(tuple(map(arcs[tail[0], True].__getitem__, nums)))  # edge: tail[0] / denom
    if len(tail) != dim:
        raise ValueError(f"expected {dim} arc lengths, got {len(tail)}")
    return Box(tuple(arcs[ln, True][s] for s, ln in zip(nums, tail)))
