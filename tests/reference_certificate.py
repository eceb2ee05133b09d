"""Reference copy of the dict-based certificate writer that ``torusvc``
replaced with a streamed one.

``write_certificate`` collects every line in memory and writes the file
once.  It is kept verbatim so that the tests can check that the streamed
writer, and ``certify-lift`` on top of it, give the same bytes.  From
``torusvc`` this imports only ``torus``.
"""

from math import lcm

from torusvc.torus import shape_factors


def _scaled(arc, denom: int) -> tuple:
    """(start, length) numerators over denom, a multiple of the arc's grid q."""
    s, _, w, q = arc.grid
    return s * (denom // q), w * (denom // q)


def write_certificate(witnesses: dict, dim: int, n_points: int, path: str) -> None:
    """Serialize a mask -> shape map; all shapes must share one kind."""
    if not witnesses:
        raise ValueError("refusing to write an empty certificate")
    kinds = {type(s).__name__.lower() for s in witnesses.values()}
    if len(kinds) != 1:
        raise ValueError(f"mixed shape kinds in certificate: {sorted(kinds)}")
    kind = kinds.pop()
    # lcm(start, end denominators) = lcm(start, length denominators): end = start + length mod 1
    denom = lcm(*(a.grid[3] for s in witnesses.values() for _, a in shape_factors(s, dim)))
    lines = [f"{dim} {n_points} {denom} {kind}"]
    for mask in sorted(witnesses):
        shape = witnesses[mask]
        starts, lengths = zip(*(_scaled(a, denom) for _, a in shape_factors(shape, dim)))
        if kind == "stripe":
            nums, tail = [shape.anchor_dim, *starts], lengths
        else:
            nums, tail = starts, lengths[:1] if kind == "cube" else lengths
        lines.append(
            f"mask={mask:x} shape="
            + " ".join(str(v) for v in nums)
            + " ; "
            + " ".join(str(v) for v in tail)
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
