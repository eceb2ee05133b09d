"""The benchmark's workloads: seeded inputs, steps, and independent anchors.

Every workload is a fixed list of steps, made of parts (``lift_certify``,
``shatter_witness``, ``growth_count``, ``bounds_table``).  A step is one
``torusvc`` CLI invocation (run in-process through ``torusvc.cli.run``) or
one public API call.  The inputs a workload needs are written by this module, never by
the program under test, so the program only ever sees the generated files.

A workload draws its seeded inputs (random point sets, matrix-sampler
seeds) from one of ``POOL`` instances, chosen as ``seed % POOL``: the same
seed always gives the same inputs, and every instance has its outputs
frozen in ``expected.json``.

An anchor is a check that does not depend on the frozen outputs: a value
the paper proves or the acceptance suite pins (VC of boxes in T^2 is 6, the
worked lift is shattered by cubes, ``lower_bound_value(2**20)`` is
6988800, ...).  Re-freezing ``expected.json`` cannot move an anchor.
"""

import random
from dataclasses import dataclass
from typing import Callable

POOL = 16
SIZES = ("full", "smoke")

# The stripe construction at length l = 1/2 puts every coordinate at
# (1-l)/3 = 1/6 or (2+l)/3 = 5/6, so its grid denominator is 6.
HALF_DENOM = 6
HALF_LOW = 1
HALF_HIGH = 5


@dataclass(frozen=True)
class Step:
    """One timed unit of a workload.

    ``argv`` is a CLI argument list run in the work directory; ``call`` is
    instead a ``(name, args)`` pair naming a public ``torusvc`` function
    whose return value is printed.  ``outputs`` are the files the step
    writes; their SHA-256 digests are checked against the frozen values.
    ``anchor`` maps (exit code, stdout) to an error text, or None.
    """

    id: str
    argv: tuple = ()
    call: tuple = None
    outputs: tuple = ()
    anchor: Callable = None

    @property
    def layer(self) -> str:
        """Span name of the step in a traced run: cli.<command> or api.<name>."""
        if self.call is not None:
            return f"api.{self.call[0]}"
        return f"cli.{self.argv[0]}"


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (size, instance) -> ({file name: text}, [Step])

    @staticmethod
    def instance(seed: int) -> int:
        return seed % POOL


# ---------------------------------------------------------------- anchors


def prints(text: str, code: int = 0):
    """Anchor: the step exits with ``code`` and prints exactly ``text``."""

    def check(got_code, out):
        if got_code != code or out != text + "\n":
            return f"expected exit {code} and {text!r}, got exit {got_code} and {out!r}"
        return None

    return check


def count_between(low: int, high: int):
    """Anchor: exit 0 and a single integer in [low, high]."""

    def check(code, out):
        if code != 0 or not out.strip().isdigit():
            return f"expected exit 0 and a count, got exit {code} and {out!r}"
        if not low <= int(out) <= high:
            return f"count {int(out)} outside [{low}, {high}]"
        return None

    return check


def not_shattered(code, out):
    """Anchor: boxes in T^2 have VC dimension 6, so 7 points are never shattered."""
    if code != 1 or not out.startswith("not shattered missing-mask="):
        return f"expected a non-shattered verdict with exit 1, got exit {code} and {out!r}"
    return None


# Criterion 6 of the acceptance suite freezes these scanner values; the
# bounds table prints each minus one.
FROZEN_TRIVIAL = {1 << 6: 1329, 1 << 7: 2952, 1 << 8: 6484, 1 << 9: 14116}
FROZEN_REFINED = {1 << 8: 4542, 1 << 10: 20583}


def bounds_rows(d_list):
    """Anchor: one row per d, frozen values at 2^6..2^10, trivial <= 3 d log2 d at 2^10."""

    def check(code, out):
        lines = out.splitlines()
        if code != 0 or lines[:1] != ["d\tstripe_ub\ttrivial_ub\trefined_ub\tlower_bound"]:
            return f"expected exit 0 and the bounds header, got exit {code}"
        rows = {}
        for line in lines[1:]:
            fields = line.split("\t")
            rows[int(fields[0])] = fields
        if sorted(rows) != sorted(d_list):
            return f"rows for d={sorted(rows)}, expected {sorted(d_list)}"
        for d, n in FROZEN_TRIVIAL.items():
            if rows[d][2] != str(n - 1):
                return f"trivial_ub at d={d} is {rows[d][2]}, expected {n - 1}"
        for d, n in FROZEN_REFINED.items():
            if rows[d][3] != str(n - 1):
                return f"refined_ub at d={d} is {rows[d][3]}, expected {n - 1}"
        if int(rows[1 << 10][2]) > 3 * (1 << 10) * 10:
            return "trivial_ub at d=2^10 exceeds 3 d log2 d"
        return None

    return check


# ---------------------------------------------------------------- inputs


def points_text(denom: int, points) -> str:
    """A points file: header 'd n D', then one line of numerators per point."""
    dim = len(points[0])
    lines = [f"{dim} {len(points)} {denom}"]
    lines += [" ".join(str(v) for v in p) for p in points]
    return "\n".join(lines) + "\n"


def half_construction(n: int):
    """Numerators of the n+1 point stripe construction at l = 1/2 in T^(2^n).

    Point p > 0 sits low in dimension i exactly when bit p of 2i is set.
    """
    return [
        tuple(HALF_LOW if p > 0 and (i << 1) >> p & 1 else HALF_HIGH for i in range(1 << n))
        for p in range(n + 1)
    ]


def lifted(base, rows):
    """Numerators of the lifted set over denominator (c+1)*6, group-major.

    Point (i; j) has coordinate (i + x(j)[M[i][n]]) / (c+1) in dimension n.
    """
    return [
        tuple(i * HALF_DENOM + p[s] for s in row) for i, row in enumerate(rows) for p in base
    ]


def tied_points(rng, n: int, dim: int, denom: int, ties):
    """n points on the 1/denom grid; in every dimension the points take
    len(ties) distinct values, value v shared by ties[v] points.

    The tie pattern is fixed and only the values and the points sharing
    them are random, which keeps the share of realizable masks, and so
    the cost of a run, close across seeds.
    """
    columns = []
    for _ in range(dim):
        values = rng.sample(range(denom), len(ties))
        column = [v for v, count in zip(values, ties) for _ in range(count)]
        rng.shuffle(column)
        columns.append(column)
    return [tuple(col[p] for col in columns) for p in range(n)]


# ---------------------------------------------------------------- workloads


def lift_certify(size: str, instance: int):
    """The construction pipeline: sample and check matrices, lift, certify, re-verify."""
    rng = random.Random(f"lift-certify/{instance}")
    check_seed, lift_seed = rng.randrange(1 << 31), rng.randrange(1 << 31)
    if size == "full":
        check_m, n, masks, lifted_n = "2", 2, 4096, 12
    else:
        check_m, n, masks, lifted_n = "1", 1, 16, 4
    k = str(1 << n)
    half = "1/2"
    steps = [
        Step("extract-sample.check", ("extract-sample", "--m", check_m, "--k", k, "--q", "2",
                                      "--seed", str(check_seed), "-o", "check-matrix.txt"),
             outputs=("check-matrix.txt",)),
        Step("extract-check", ("extract-check", "check-matrix.txt", "--mode", "exhaustive"),
             anchor=prints("holds")),
        Step("stripes-build", ("stripes-build", "--n", str(n), "--l", half, "-o", "base.txt"),
             outputs=("base.txt",),
             anchor=prints(f"wrote {n + 1} points in dimension {1 << n} denom {HALF_DENOM}")),
        Step("extract-sample.lift", ("extract-sample", "--m", "1", "--k", k, "--q", "2",
                                     "--seed", str(lift_seed), "-o", "lift-matrix.txt"),
             outputs=("lift-matrix.txt",)),
        Step("lift", ("lift", "--points", "base.txt", "--matrix", "lift-matrix.txt",
                      "--l", half, "-o", "lifted.txt"),
             outputs=("lifted.txt",),
             anchor=prints(f"wrote {lifted_n} lifted points in dimension {2 << n}")),
        Step("certify-lift", ("certify-lift", "--points", "base.txt", "--matrix",
                              "lift-matrix.txt", "--l", half, "-o", "cert.txt"),
             outputs=("cert.txt",), anchor=prints(f"certified {masks} masks")),
        Step("verify-cert", ("verify-cert", "lifted.txt", "cert.txt"),
             anchor=prints(f"verified {masks} masks")),
    ]
    return {}, steps


def shatter_witness(size: str, instance: int):
    """Positive verdicts: every mask finds a witness, most oracle calls stop early."""
    if size == "full":
        base, row, stripe_n, vc_d, vc = half_construction(2), (0, 1, 2, 3) * 2, 6, "2", "6"
    else:
        base, row, stripe_n, vc_d, vc = half_construction(1), (0, 1) * 2, 3, "1", "3"
    lift_points = lifted(base, [row, row])
    inputs = {
        "worked-lift.txt": points_text(3 * HALF_DENOM, lift_points),
        "stripes.txt": points_text(HALF_DENOM, half_construction(stripe_n)),
    }
    steps = [
        Step("shatter.cubes", ("shatter", "worked-lift.txt", "--family", "cubes"),
             anchor=prints(f"shattered n={len(lift_points)}")),
        Step("shatter.stripes", ("shatter", "stripes.txt", "--family", "stripes", "--l", "1/2"),
             anchor=prints(f"shattered n={stripe_n + 1}")),
        Step("vc-exact", ("vc-exact", "--d", vc_d, "--family", "boxes", "--n-max", "7"),
             anchor=prints(vc)),
    ]
    return inputs, steps


def growth_count(size: str, instance: int):
    """Growth counts on seeded random sets: about half the masks miss and scan everything."""
    rng = random.Random(f"growth-count/{instance}")
    if size == "full":
        plane, space = (7, 2, 6, (2, 2, 1, 1, 1)), (6, 3, 6, (2, 2, 1, 1))
    else:
        plane, space = (5, 2, 4, (2, 1, 1, 1)), (4, 3, 4, (2, 1, 1))
    inputs = {
        "plane.txt": points_text(plane[2], tied_points(rng, *plane)),
        "space.txt": points_text(space[2], tied_points(rng, *space)),
    }

    def growth(name, n, family):
        return Step(f"growth.{name}.{family}", ("growth", f"{name}.txt", "--family", family),
                    anchor=count_between(1, 1 << n))

    steps = [growth("plane", plane[0], family) for family in ("cubes", "stripes-any", "boxes")]
    steps.append(Step("shatter.plane.boxes", ("shatter", "plane.txt", "--family", "boxes"),
                      anchor=not_shattered if size == "full" else None))
    steps += [growth("space", space[0], family) for family in ("stripes-any", "cubes", "boxes")]
    return inputs, steps


def bounds_table(size: str, instance: int):
    """The bound scanners over powers of two plus one non-power, and the 2^20 lower bound."""
    top = 16 if size == "full" else 10
    d_list = [1 << e for e in range(top + 1)] + [1000]
    steps = [
        Step("bounds", ("bounds", "--d-list", ",".join(str(d) for d in d_list)),
             anchor=bounds_rows(d_list)),
        Step("lower_bound_value", call=("lower_bound_value", (1 << 20,)),
             anchor=prints("6988800")),
    ]
    return {}, steps


def combine(*parts):
    """A workload builder that runs the parts' steps one after another."""

    def build(size: str, instance: int):
        inputs, steps = {}, []
        for part in parts:
            part_inputs, part_steps = part(size, instance)
            inputs.update(part_inputs)
            steps += part_steps
        return inputs, steps

    return build


# Two workloads of two parts each: the runs of a benchmark share a fixed
# time budget, and fewer workloads let each run take its median over more
# passes.  "construct" holds the paper's constructions and their found-early
# verdicts (lifting, matching, extraction, certificate I/O, oracle hits,
# vcsearch); "count-bound" holds the paths those bypass (oracle misses that
# scan every candidate, the bound scanners and their big-integer probes).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("construct", combine(lift_certify, shatter_witness)),
        Workload("count-bound", combine(growth_count, bounds_table)),
    )
}
