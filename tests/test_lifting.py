import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference_lift
from torusvc import lifting
from torusvc.errors import GuardExceeded
from torusvc.extraction import SymbolMatrix, check_extraction
from torusvc.fileio import read_certificate, write_certificate
from torusvc.lifting import (
    cube_witness,
    lift_points,
    sample_masks,
    verify_lift,
)
from torusvc.shatter import covered_mask, realizable_by_cube, scan_stripe
from torusvc.stripes import build_stripe_shattered_set
from torusvc.torus import PointSet, arc_complement, arc_contains

F = Fraction


def worked_instance():
    base = build_stripe_shattered_set(2, F(1, 2))
    row = (0, 1, 2, 3, 0, 1, 2, 3)
    matrix = SymbolMatrix((row, row), 4)
    return lift_points(base, matrix, F(1, 2))


def test_matrix_of_worked_instance_has_property():
    inst = worked_instance()
    assert check_extraction(inst.matrix, "exhaustive").holds


def test_lifted_points_layout():
    inst = worked_instance()
    assert inst.lifted.dim == 8
    assert len(inst.lifted) == 6
    assert inst.lifted.denom == 18
    for idx, p in enumerate(inst.lifted.points):
        group = idx // 3
        for x in p:
            assert F(group, 3) < x < F(group + 1, 3)


def test_lift_input_validation():
    base = build_stripe_shattered_set(1, F(1, 2))
    row = (0, 1, 0, 1)
    with pytest.raises(ValueError):
        lift_points(base, SymbolMatrix((row, row), 2), F(3, 2))
    wrong = SymbolMatrix(((0, 1, 2),), 3)
    with pytest.raises(ValueError):
        lift_points(base, wrong, F(1, 2))


def test_exhaustive_verification_passes():
    inst = worked_instance()
    report = verify_lift(inst, range(1 << len(inst.lifted)))
    assert report.ok
    assert report.checked == 64


def test_edge_length_identity():
    inst = worked_instance()
    c = inst.matrix.n_rows
    want = 1 - inst.length / (c + 1)
    assert want == F(5, 6)
    for mask in range(64):
        assert cube_witness(inst, mask).edge == want


def test_cube_equals_stripe_complement_pointwise():
    inst = worked_instance()
    for mask in (0, 0b101010, 0b111111, 0b010011):
        cube = cube_witness(inst, mask)
        for idx, p in enumerate(inst.lifted.points):
            in_cube = all(
                arc_contains(a, x) for a, x in zip(cube.arcs, p)
            )
            in_some_stripe = any(
                arc_contains(arc_complement(a), x)
                for a, x in zip(cube.arcs, p)
            )
            assert in_cube != in_some_stripe
            assert in_cube == bool(mask >> idx & 1)


def test_group_separation():
    # the stripe placed for group i contains no point of any other group
    inst = worked_instance()
    u = len(inst.base)
    for mask in (0b000001, 0b110100, 0b011101):
        cube = cube_witness(inst, mask)
        for j, a in enumerate(cube.arcs):
            stripe_arc = arc_complement(a)
            groups_hit = {
                idx // u
                for idx, p in enumerate(inst.lifted.points)
                if arc_contains(stripe_arc, p[j])
            }
            assert len(groups_hit) <= 1


def test_cube_oracle_agrees():
    inst = worked_instance()
    for mask in (0, 1, 0b101010, 0b111111):
        cube = realizable_by_cube(inst.lifted, mask)
        assert cube is not None
        assert covered_mask(inst.lifted, cube) == mask


def test_sample_mode_and_vacuous_pass():
    inst = worked_instance()
    assert verify_lift(inst, sample_masks(6, 0, 3)).ok
    # the sample draws mask 60 twice; checked counts distinct masks
    report = verify_lift(inst, sample_masks(6, 10, 3))
    assert report.ok and report.checked == 9
    assert sample_masks(6, 10, 3) == sample_masks(6, 10, 3)


def squeezed_instance():
    base = build_stripe_shattered_set(2, F(1, 2))
    # both rows have their symbol-0 support squeezed into one column
    row = (0, 1, 2, 3, 1, 1, 2, 3)
    bad = SymbolMatrix((row, row), 4)
    assert not check_extraction(bad, "exhaustive").holds
    return lift_points(base, bad, F(1, 2))


def test_corrupted_matrix_reports_failures():
    inst = squeezed_instance()
    report = verify_lift(inst, range(1 << len(inst.lifted)))
    assert not report.ok


def test_a_sample_is_its_sorted_distinct_draws_each_checked_once():
    rng = random.Random(3)
    draws = [rng.randrange(1 << 6) for _ in range(10)]
    assert len(set(draws)) == 9
    assert sample_masks(6, 10, 3) == sorted(set(draws))
    # seed 37 draws mask 56 twice, and the squeezed matrix fails on it
    inst = squeezed_instance()
    rng = random.Random(37)
    draws = [rng.randrange(1 << 6) for _ in range(10)]
    assert draws.count(56) == 2
    report = verify_lift(inst, sample_masks(6, 10, 37))
    assert report.checked == 9 and report.failures == [56]


def test_exhaustive_guard():
    base = build_stripe_shattered_set(2, F(1, 2))
    rows = tuple((0, 1, 2, 3, 0, 1, 2, 3) for _ in range(9))
    inst = lift_points(base, SymbolMatrix(rows, 4), F(1, 2))
    assert len(inst.lifted) == 27
    with pytest.raises(GuardExceeded, match="^verify_lift guard: more than 2\\^24 masks$"):
        verify_lift(inst, range(1 << 27))
    # the guard counts masks, not points: one mask past 2^24 is refused,
    # and a range too long for len() is refused too
    for masks in (range((1 << 24) + 1), range(1 << 100)):
        with pytest.raises(GuardExceeded):
            verify_lift(inst, masks)


def test_mask_out_of_range():
    inst = worked_instance()
    with pytest.raises(ValueError):
        cube_witness(inst, 1 << 6)


def unshattered_instance():
    """Three collinear base points that stripes of length 1/2 do not shatter."""
    base = PointSet(2, 4, ((F(0), F(0)), (F(1, 4), F(0)), (F(1, 2), F(0))))
    return lift_points(base, SymbolMatrix(((0, 1, 0, 1), (1, 0, 1, 0)), 2), F(1, 2))


def scanned_instance():
    """The worked lift with its base points reordered, so the base stripes
    come from the scan rather than from the construction's witnesses."""
    base = build_stripe_shattered_set(2, F(1, 2))
    base = PointSet(base.dim, base.denom, base.points[::-1])
    row = (0, 1, 2, 3, 0, 1, 2, 3)
    return lift_points(base, SymbolMatrix((row, row), 4), F(1, 2))


def corrupted_instance():
    row = (0, 1, 2, 3, 1, 1, 2, 3)
    return lift_points(build_stripe_shattered_set(2, F(1, 2)), SymbolMatrix((row, row), 4), F(1, 2))


def outcome(witness, inst, mask):
    try:
        cube = witness(inst, mask)
    except ValueError as exc:
        return "error", str(exc)
    return cube, repr(cube)


@pytest.mark.parametrize("make", [worked_instance, scanned_instance, unshattered_instance,
                                  corrupted_instance])
def test_cube_witness_matches_fraction_reference(make):
    inst = make()
    assert inst.cells == {}  # lift_points builds no base stripe
    for mask in range(1 << len(inst.lifted)):
        assert outcome(cube_witness, inst, mask) == outcome(reference_lift.cube_witness, inst, mask)
    assert inst.cells


def test_verify_lift_lists_each_failing_mask(monkeypatch):
    report = verify_lift(unshattered_instance(), range(64))
    assert report.checked == 64
    assert report.failures == [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 17, 18, 19, 20, 21, 22, 23, 24, 26, 28,
        30, 32, 33, 34, 35, 36, 37, 38, 39, 40, 42, 44, 46, 48, 49, 50, 51, 52, 53, 54, 55,
        56, 58, 60, 62,
    ]
    # a cube that covers another mask fails as well: mask 5 gets the cube of mask 4
    witness = lifting.cube_witness
    monkeypatch.setattr(lifting, "cube_witness", lambda inst, mask: witness(inst, mask ^ (mask == 5)))
    report = verify_lift(worked_instance(), range(64))
    assert (report.checked, report.failures) == (64, [5])


@pytest.mark.parametrize("make", [worked_instance, scanned_instance, unshattered_instance])
def test_base_stripe_runs_once_per_base_subset(make, monkeypatch):
    calls = []
    original = lifting._base_stripe

    def counted(inst, subset):
        calls.append(subset)
        return original(inst, subset)

    monkeypatch.setattr(lifting, "_base_stripe", counted)
    inst = make()
    for _ in range(2):
        verify_lift(inst, range(1 << len(inst.lifted)))
    assert len(calls) == len(set(calls)) <= 1 << len(inst.base)


def test_base_stripe_scan_reads_every_dimension():
    # mask 1 is first held in dimension 0 by the wrapping arc (3/4, 1/4);
    # the non-wrapping stripe (1/4, 3/4) lies in dimension 1
    base = PointSet(2, 2, ((F(0), F(1, 2)),))
    stripe = scan_stripe(base, 0b1, F(1, 2))
    assert (stripe.anchor_dim, stripe.arc.start, stripe.arc.end) == (1, F(1, 4), F(3, 4))
    inst = lift_points(base, SymbolMatrix(((0, 1),), 2), F(1, 2))
    report = verify_lift(inst, range(1 << len(inst.lifted)))
    assert (report.checked, report.failures) == (2, [])


def test_certificate_reads_back_each_masks_cube_witness(tmp_path):
    inst = worked_instance()
    masks = range(1 << len(inst.lifted))
    report = verify_lift(inst, masks)
    path = tmp_path / "cert.txt"
    write_certificate(((mask, cube_witness(inst, mask)) for mask in masks),
                      inst.lifted.dim, len(inst.lifted), path, report.denom)
    dim, n_points, denom, kind, back = read_certificate(path)
    assert (dim, n_points, denom, kind) == (inst.lifted.dim, len(inst.lifted), report.denom, "cube")
    assert sorted(back) == list(masks)
    for mask in masks:
        assert back[mask] == cube_witness(inst, mask), mask


def test_reference_lift_shares_no_code_with_what_it_checks():
    # the reference matches through reference_matching, which imports nothing from torusvc
    for name, allowed in [("reference_lift.py", {"torusvc.torus", "torusvc.stripes", "torusvc.shatter"}),
                          ("reference_matching.py", set())]:
        tree = ast.parse((Path(__file__).parent / name).read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert {m for m in imported if m.startswith("torusvc")} <= allowed, name
        assert not any(isinstance(node, ast.Import) and any(a.name.startswith("torusvc") for a in node.names)
                       for node in ast.walk(tree)), name
