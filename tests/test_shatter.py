import ast
import gc
import hashlib
import itertools
import random
from fractions import Fraction
import weakref
from pathlib import Path

import pytest

import reference_closure
import torusvc
from torusvc import shatter, torus, vcsearch
from bruteforce import (
    brute_box_masks,
    brute_cube_masks,
    contains,
    fine_growth,
    fine_masks,
    random_point_set,
    seeded_point_sets,
)
from torusvc.errors import GuardExceeded, PostconditionError
from torusvc.extraction import SymbolMatrix, sample_extraction_matrix
from torusvc.lifting import cube_witness, lift_points, verify_lift
from torusvc.shatter import (
    BOXES,
    CUBES,
    STRIPES_ANY,
    STRIPES_FIXED,
    Family,
    ShatterReport,
    covered_mask,
    growth_count,
    realizable_by_any_stripe,
    realizable_by_box,
    realizable_by_cube,
    realizable_by_stripe,
    realizable_masks,
    scan_stripe,
    shatter_report,
)
from torusvc.stripes import build_stripe_shattered_set
from torusvc.torus import (
    Arc, Box, Cube, PointSet, Stripe, arc_length, shape_contains, shape_factors)

F = Fraction


def equally_spaced(n):
    return PointSet(1, n, tuple((F(t, n),) for t in range(n)))


def test_three_equally_spaced_points_boxes_growth():
    assert growth_count(equally_spaced(3), Family(BOXES)) == 8


def test_four_equally_spaced_points_boxes():
    ps = equally_spaced(4)
    assert growth_count(ps, Family(BOXES)) == 14
    report = shatter_report(ps, Family(BOXES))
    assert not report.shattered
    assert report.missing == 0b0101  # first alternating pair in mask order
    assert realizable_by_box(ps, 0b0101) is None
    assert realizable_by_box(ps, 0b1010) is None


def test_covered_mask_agrees_with_bruteforce_containment():
    # endpoints on and off the point grid, closed and open, plain and wrapping;
    # starts, ends and cube edges on unrelated denominators.  The expected
    # mask comes from bruteforce.contains on every arc of a box or a cube and
    # on a stripe's anchor arc, not from torus.arc_contains
    rng = random.Random(5)
    for ps in seeded_point_sets(37, 30, 5, 3, 8):
        def coord():
            q = rng.choice([ps.denom, 2 * ps.denom, 4 * ps.denom, 7, 13])
            return F(rng.randrange(q), q)

        def arc(closed):
            start = coord()
            end = coord()
            while end == start:
                end = coord()
            return Arc(start, end, closed=closed)

        for _ in range(20):
            edge = F(rng.randint(1, 10), 11)
            shapes = [
                Box(tuple(arc(True) for _ in range(ps.dim))),
                Cube(tuple(Arc(s, (s + edge) % 1) for s in (coord() for _ in range(ps.dim)))),
                Stripe(rng.randrange(ps.dim), arc(False), ps.dim),
            ]
            for shape in shapes:
                factors = ([(shape.anchor_dim, shape.arc)] if isinstance(shape, Stripe)
                           else list(enumerate(shape.arcs)))
                expected = sum(1 << i for i, p in enumerate(ps.points)
                               if all(contains(arc, p[j]) for j, arc in factors))
                assert covered_mask(ps, shape) == expected, (ps, shape)
    with pytest.raises(ValueError):
        covered_mask(equally_spaced(3), Box((Arc(F(0), F(1, 2)), Arc(F(0), F(1, 2)))))


def contained(ps, shape):
    return sum(1 << i for i, p in enumerate(ps.points) if shape_contains(shape, p))


def test_covered_mask_cache_agrees_with_the_trace_tables(monkeypatch):
    # the prover against the checker: every entry of a _runs or _first_arcs
    # table is the covered_mask of the arc its (s, e) names, in a box whose
    # other arcs hold every point, or in a stripe
    rng = random.Random(16)
    for ps in seeded_point_sets(16, 20, 6, 3, 6):
        denom, dim = ps.denom, ps.dim
        prefix = shatter.prefix_table(ps.cols)
        tables = [(4 * denom, closed, shatter._runs(denom, prefix)) for closed in (True, False)]
        for _ in range(3):
            g = denom * rng.choice((2, 4, 6))
            width, closed = rng.randrange(1, g), rng.random() < 0.5
            tables.append((g, closed, shatter._first_arcs(denom, prefix, g, width, closed)))
        whole = Arc(F(0), F(2 * denom - 1, 2 * denom))  # holds every multiple of 1/D
        shapes, used = [], set()
        for g, closed, per_dim in tables:
            for j, table in enumerate(per_dim):
                for trace, (s, e) in table.items():
                    arc = Arc(F(s, g), F(e, g), closed)
                    if closed:
                        shape = Box(tuple(arc if k == j else whole for k in range(dim)))
                    else:
                        shape = Stripe(j, arc, dim)
                    assert covered_mask(ps, shape) == trace, (ps, g, arc)
                    shapes.append((shape, trace))
                    used.update((k, a.grid, a.closed) for k, a in shape_factors(shape, dim))
        assert set(ps.covers) == used
        # a second pass reads every cover back: it never calls arc_contains
        monkeypatch.setattr(torus, "arc_contains", None)
        assert [covered_mask(ps, shape) for shape, _ in shapes] == [trace for _, trace in shapes]
        monkeypatch.undo()


def test_covered_mask_cache_keys_the_dimension_and_the_point_set():
    arc = Arc(F(0), F(1, 3))
    ps = PointSet(2, 6, ((F(1, 6), F(1, 2)), (F(1, 2), F(1, 6)), (F(1, 3), F(1, 3))))
    # the same Arc object in both dimensions covers different points in each
    assert covered_mask(ps, Stripe(0, Arc(F(0), F(1, 3), closed=False), 2)) == 0b001
    assert covered_mask(ps, Box((arc, Arc(F(0), F(1, 2))))) == 0b101
    assert covered_mask(ps, Box((arc, arc))) == 0b100
    assert covered_mask(ps, Box((Arc(F(0), F(1, 2)), arc))) == 0b110
    assert len(ps.covers) == 5
    # the same arcs on a point set over another denominator: its own covers
    other = PointSet(2, 4, ((F(1, 4), F(1, 2)), (F(1, 2), F(1, 4))))
    assert covered_mask(other, Box((arc, arc))) == contained(other, Box((arc, arc))) == 0b00
    assert covered_mask(other, Box((Arc(F(0), F(1, 2)), arc))) == 0b10
    assert len(ps.covers) == 5 and len(other.covers) == 3
    assert other == PointSet(2, 4, other.points)  # the covers take no part in equality


def grid_points(denom, rows):
    return PointSet(len(rows[0]), denom, tuple(tuple(F(t, denom) for t in row) for row in rows))


def test_ten_points_in_t3_shattered_by_boxes():
    # a set found by hill climbing; VC(boxes, T^3) >= 10
    ps = grid_points(10, [(7, 2, 9), (4, 5, 2), (6, 3, 7), (5, 0, 0), (9, 4, 6),
                          (1, 9, 3), (8, 1, 7), (5, 8, 8), (2, 7, 1), (3, 6, 4)])
    report = shatter_report(ps, Family(BOXES))
    assert report.shattered and len(report.witnesses) == 1 << 10
    assert all(covered_mask(ps, box) == mask for mask, box in report.witnesses.items())


def test_five_point_base_in_t4_shattered_by_non_wrapping_stripes():
    # stripes of length 1/3 whose arcs end by 1 realize each of the 32 masks
    ps = grid_points(24, [(5, 20, 13, 7), (15, 16, 14, 12), (11, 22, 7, 11), (6, 13, 8, 13),
                          (8, 15, 17, 9)])
    for mask in range(1 << 5):
        stripe = scan_stripe(ps, mask, F(1, 3))
        assert stripe.arc.start + F(1, 3) <= 1 and covered_mask(ps, stripe) == mask, mask


# sets found by a seeded hill climb, shattered by stripes of length 1/2:
# d -> (denominator, points)
HALF_STRIPE_WITNESSES = {
    2: (8, [(6, 5), (1, 4), (3, 6), (4, 3)]),
    3: (8, [(2, 3, 0), (0, 1, 6), (3, 5, 5), (1, 3, 4)]),
    4: (8, [(6, 2, 1, 6), (0, 7, 3, 7), (5, 6, 3, 4), (4, 1, 3, 1), (7, 4, 4, 1)]),
    5: (8, [(4, 6, 0, 6, 1), (6, 1, 4, 6, 3), (3, 3, 6, 0, 4), (5, 4, 1, 1, 6), (7, 4, 5, 1, 1)]),
    6: (12, [(2, 2, 0, 4, 9, 8), (4, 11, 4, 2, 6, 4), (7, 3, 3, 3, 1, 0), (6, 0, 11, 7, 11, 3),
             (1, 1, 1, 11, 4, 1), (9, 9, 2, 6, 8, 11)]),
    7: (8, [(3, 7, 4, 2, 6, 5, 7), (4, 3, 3, 7, 4, 6, 5), (5, 6, 5, 5, 3, 1, 7),
            (6, 4, 1, 4, 5, 4, 6), (3, 4, 6, 0, 4, 3, 1), (2, 1, 2, 6, 5, 2, 0)]),
    8: (8, [(0, 7, 7, 3, 7, 7, 5, 6), (6, 2, 1, 3, 1, 6, 4, 2), (6, 1, 0, 6, 6, 1, 6, 0),
            (4, 6, 0, 0, 3, 4, 5, 7), (2, 0, 1, 4, 5, 5, 2, 1), (7, 5, 6, 5, 0, 3, 3, 0)]),
}


@pytest.mark.parametrize("d", sorted(HALF_STRIPE_WITNESSES))
def test_half_length_stripes_shatter_the_count_lemma_value(d):
    # the count lemma (bounds.stripe_upper_bound_n) caps a set shattered by
    # stripes of one length in T^d at the largest n with 2^n <= 2nd (2^n / n
    # grows), and each witness has that many points: VC(stripes_1/2, T^d) = n
    ps = grid_points(*HALF_STRIPE_WITNESSES[d])
    n = len(ps)
    assert ps.dim == d and 2**n <= 2 * n * d and 2 ** (n + 1) > 2 * (n + 1) * d
    report = shatter_report(ps, Family(STRIPES_FIXED, F(1, 2)))
    assert report.shattered and len(report.witnesses) == 1 << n
    assert all(covered_mask(ps, stripe) == mask for mask, stripe in report.witnesses.items())


def test_six_point_base_in_t8_shattered_by_non_wrapping_stripes():
    # stripes of length 1/3 whose arcs end by 1 realize each of the 64 masks
    ps = grid_points(24, [(5, 12, 8, 7, 15, 11, 19, 13), (13, 16, 5, 8, 9, 8, 10, 11),
                          (19, 10, 6, 13, 5, 10, 20, 7), (12, 8, 3, 11, 11, 17, 21, 3),
                          (10, 14, 2, 12, 16, 20, 14, 9), (15, 16, 10, 8, 18, 18, 18, 4)])
    for mask in range(1 << 6):
        stripe = scan_stripe(ps, mask, F(1, 3))
        assert stripe.arc.start + F(1, 3) <= 1 and covered_mask(ps, stripe) == mask, mask


def test_verify_lift_covers_each_distinct_arc_of_a_dimension_once():
    # the benchmark's seed-1 lift: the n = 2 construction through a sampled
    # 4 x 8 matrix, 4096 cubes
    base = build_stripe_shattered_set(2, F(1, 2))
    matrix, _ = sample_extraction_matrix(1, 4, F(2), 1000, 736600063)
    inst = lift_points(base, matrix, F(1, 2))
    assert verify_lift(inst, range(1 << 12)).ok
    pairs = {(j, arc.grid, arc.closed) for mask in range(1 << 12)
             for j, arc in enumerate(cube_witness(inst, mask).arcs)}
    assert set(inst.lifted.covers) == pairs
    assert len(pairs) <= 70


def test_box_witnesses_verify():
    for ps in seeded_point_sets(3, 20, 5, 3, 8):
        for mask in range(1 << len(ps)):
            box = realizable_by_box(ps, mask)
            if box is not None:
                assert covered_mask(ps, box) == mask


def test_box_oracle_exhaustive_small():
    # every 1-dimensional point set on small grids, all masks
    for denom in (2, 3, 4):
        for coords in itertools.product(range(denom), repeat=3):
            ps = PointSet(1, denom, tuple((F(t, denom),) for t in coords))
            brute = brute_box_masks(ps)
            for mask in range(8):
                assert (realizable_by_box(ps, mask) is not None) == (mask in brute)


def test_box_oracle_matches_brute_force_random():
    for ps in seeded_point_sets(17, 40, 5, 3, 8):
        brute = brute_box_masks(ps)
        for mask in range(1 << len(ps)):
            got = realizable_by_box(ps, mask) is not None
            assert got == (mask in brute), (ps, mask)


def test_cube_oracle_matches_brute_force_random():
    for ps in seeded_point_sets(23, 40, 4, 2, 6):
        brute = brute_cube_masks(ps)
        for mask in range(1 << len(ps)):
            cube = realizable_by_cube(ps, mask)
            assert (cube is not None) == (mask in brute), (ps, mask)
            if cube is not None:
                assert covered_mask(ps, cube) == mask


def test_cube_realizable_implies_box_realizable():
    for ps in seeded_point_sets(29, 20, 4, 2, 6):
        for mask in range(1 << len(ps)):
            if realizable_by_cube(ps, mask) is not None:
                assert realizable_by_box(ps, mask) is not None


def test_stripe_oracle_basic():
    ps = PointSet.from_coords([(F(1, 6), F(5, 6)), (F(5, 6), F(5, 6))])
    s = realizable_by_stripe(ps, 0b01, F(1, 2))
    assert isinstance(s, Stripe)
    assert arc_length(s.arc) == F(1, 2)
    assert covered_mask(ps, s) == 0b01
    assert realizable_by_stripe(ps, 0b11, F(1, 2)) is not None
    # no single open arc of length 1/2 separates them in dimension 1
    one_dim = PointSet.from_coords([(F(1, 6),), (F(5, 6),)])
    assert realizable_by_stripe(one_dim, 0b11, F(1, 4)) is None


def test_any_stripe_oracle():
    ps = PointSet.from_coords([(F(0),), (F(1, 2),)])
    assert realizable_by_any_stripe(ps, 0b01) is not None
    assert realizable_by_any_stripe(ps, 0b10) is not None
    assert realizable_by_any_stripe(ps, 0b11) is not None
    assert realizable_by_any_stripe(ps, 0b00) is not None


def test_shatter_report_monotone_under_restriction():
    # a shattered set stays shattered after dropping a point
    ps = PointSet.from_coords([(F(0), F(0)), (F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))])
    assert shatter_report(ps, Family(BOXES)).shattered
    sub = PointSet(ps.dim, ps.denom, ps.points[:2])
    assert shatter_report(sub, Family(BOXES)).shattered


def test_growth_upper_bounds_random():
    for ps in seeded_point_sets(31, 25, 6, 3, 6):
        n, d = len(ps), ps.dim
        assert growth_count(ps, Family(BOXES)) <= (n + 1) ** (2 * d)
        stripes = Family(STRIPES_FIXED, F(1, 3))
        assert growth_count(ps, stripes) <= d * (n + 1) ** 2


def test_family_validation():
    with pytest.raises(ValueError):
        Family("spheres")
    with pytest.raises(ValueError):
        Family(STRIPES_FIXED)
    # a float length in range is refused too, before any table reads its denominator
    with pytest.raises(ValueError, match=r"^stripe length 0\.5 is not a Fraction or an int$"):
        Family(STRIPES_FIXED, 0.5)
    with pytest.raises(ValueError, match="not a Fraction"):
        realizable_by_stripe(PointSet(1, 2, ((F(0),), (F(1, 2),))), 1, 0.5)
    with pytest.raises(ValueError, match=r"^family stripes needs a length in \(0,1\)$"):
        Family(STRIPES_FIXED, 1.5)
    with pytest.raises(ValueError):
        Family(BOXES, F(1, 2))
    with pytest.raises(ValueError):
        Family(STRIPES_ANY, F(1, 2))


def test_guards():
    big = PointSet(1, 64, tuple((F(t, 64),) for t in range(31)))
    with pytest.raises(GuardExceeded):
        shatter_report(big, Family(BOXES))
    mid = PointSet(1, 32, tuple((F(t, 32),) for t in range(21)))
    with pytest.raises(GuardExceeded):
        growth_count(mid, Family(BOXES))


def test_mask_range_checked():
    ps = equally_spaced(3)
    with pytest.raises(ValueError):
        realizable_by_box(ps, 1 << 3)
    with pytest.raises(ValueError):
        realizable_by_cube(ps, -1)


def test_cubes_family_on_diagonal_points():
    ps = PointSet.from_coords([(F(0), F(0)), (F(1, 2), F(1, 2))])
    report = shatter_report(ps, Family(CUBES))
    assert report.shattered
    for mask, shape in report.witnesses.items():
        assert isinstance(shape, Cube)
        assert covered_mask(ps, shape) == mask


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_growth_matches_finer_grid_brute_force(seed):
    # the fine oracle enumerates arcs on 1/(12D), not on the quarter-grid
    # the oracles' completeness argument uses, so it checks that argument
    families = [
        ("boxes", Family(BOXES)),
        ("cubes", Family(CUBES)),
        ("stripes", Family(STRIPES_FIXED, F(1, 3))),
        ("stripes", Family(STRIPES_FIXED, F(2, 5))),
        ("stripes-any", Family(STRIPES_ANY)),
    ]
    for ps in seeded_point_sets(seed, 6, 4, 2, 5):
        for kind, family in families:
            expected = fine_growth(ps, kind, family.length)
            assert growth_count(ps, family) == expected, (ps, kind, family.length)


def brute_masks(ps, family):
    """The masks the family realizes on ps, by the brute-force enumerations."""
    if family.kind == BOXES:
        return brute_box_masks(ps)
    if family.kind == CUBES:
        return brute_cube_masks(ps)
    if family.kind == STRIPES_ANY:
        return fine_masks(ps, "stripes-any")
    return fine_masks(ps, "stripes", family.length)


@pytest.mark.parametrize("family", [
    Family(BOXES),
    Family(CUBES),
    Family(STRIPES_ANY),
    Family(STRIPES_FIXED, F(1, 3)),
    Family(STRIPES_FIXED, F(2, 5)),
], ids=["boxes", "cubes", "stripes-any", "stripes-1/3", "stripes-2/5"])
def test_realizable_masks_match_the_oracles(family):
    # the per-mask oracles read the same closure, so the brute-force oracles
    # are the reference: quarter-grid enumeration for boxes and cubes, the
    # finer 1/(12D) grid for stripes
    small = [
        PointSet(2, 3, ()),
        PointSet(1, 1, ((F(0),),)),
        PointSet(2, 5, ((F(2, 5), F(0)),)),
    ]
    for ps in small + seeded_point_sets(47, 30, 5, 3, 6):
        expected = brute_masks(ps, family)
        assert realizable_masks(ps.cols, ps.denom, family) == expected, (ps, family)


def witness_digest(witnesses):
    text = "\n".join(f"{mask}:{shape!r}" for mask, shape in sorted(witnesses.items()))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family", [
    Family(BOXES),
    Family(CUBES),
    Family(STRIPES_ANY),
    Family(STRIPES_FIXED, F(2, 5)),
], ids=["boxes", "cubes", "stripes-any", "stripes-2/5"])
def test_one_mask_search_finds_the_witness_of_the_closure(family):
    # the oracles and the first masks of shatter_report search one mask at
    # a time; they must name the (closure, trace) choice the closure keeps,
    # which is the one the back-pointer closure walked back to; the second
    # batch has up to six tables, so a choice must look several tables ahead
    for ps in seeded_point_sets(53, 30, 6, 3, 7) + seeded_point_sets(59, 20, 9, 6, 6):
        _, _, components = shatter._family_tables(ps, family)
        full = (1 << len(ps)) - 1
        closure = shatter._all_ends(components, full)
        assert closure == reference_closure._all_ends(components, full), ps
        for mask in range(full + 1):
            assert shatter._first_ends(components, full, mask) == closure.get(mask), (ps, mask)


def scanned_first_arcs(cols, denom, g, width, closed):
    """Per dimension, {trace: (s, e)} for the first arc from s/g to
    (s + width)/g mod 1 giving each trace, trying every start s in order
    and testing each point on its own: point i at v/denom is in the arc when
    its offset (v g/denom - s) mod g past the start is within [0, width], or
    (0, width) for an open arc."""
    m = g // denom
    tables = []
    for col in cols:
        first = {}
        for s in range(g):
            offsets = [(v * m - s) % g for v in col]
            trace = sum(1 << i for i, t in enumerate(offsets)
                        if (0 <= t <= width if closed else 0 < t < width))
            first.setdefault(trace, (s, (s + width) % g))
        tables.append(first)
    return tuple(tables)


def test_first_arcs_scan_only_the_starts_where_a_trace_changes():
    # the same first arc per trace, in the same order, as trying every start
    rng = random.Random(61)
    for _ in range(400):
        denom = rng.randint(1, 9)
        dim, n = rng.randint(1, 2), rng.randint(0, 6)
        cols = tuple(tuple(rng.randrange(denom) for _ in range(n)) for _ in range(dim))
        g = denom * rng.choice((1, 2, 4, 6))
        if g < 2:
            continue
        width, closed = rng.randrange(1, g), rng.random() < 0.5
        got = shatter._first_arcs(denom, shatter.prefix_table(cols), g, width, closed)
        want = scanned_first_arcs(cols, denom, g, width, closed)
        assert [list(t.items()) for t in got] == [list(t.items()) for t in want], (
            cols, denom, g, width, closed)


def test_tables_are_built_once_per_point_set_and_family(monkeypatch):
    built = []
    components = shatter._components

    def counting(denom, prefix, family):
        built.append(family)
        return components(denom, prefix, family)

    monkeypatch.setattr(shatter, "_components", counting)
    ps = PointSet(2, 5, ((F(0), F(1, 5)), (F(2, 5), F(4, 5)), (F(3, 5), F(0))))
    third = Family(STRIPES_FIXED, F(1, 3))
    for _ in range(2):
        realizable_by_box(ps, 0b101)
        shatter_report(ps, Family(BOXES))
        realizable_by_cube(ps, 0b011)
        realizable_by_stripe(ps, 0b001, F(1, 3))
        scan_stripe(ps, 0b001, F(1, 3))
    assert built == [Family(BOXES), Family(CUBES), third]
    assert list(ps.tables) == built
    # an equal point set that is another object builds its own tables
    twin = PointSet(ps.dim, ps.denom, ps.points)
    assert twin == ps and twin.tables == {}
    realizable_by_box(twin, 0b101)
    assert built[3:] == [Family(BOXES)] and list(twin.tables) == [Family(BOXES)]


def test_tables_are_freed_with_their_point_set():
    ps = PointSet(1, 4, ((F(0),), (F(1, 4),), (F(1, 2),)))
    family = Family(STRIPES_FIXED, F(1, 3))
    assert shatter_report(ps, family).shattered is False
    held = weakref.ref(family)
    del family
    gc.collect()
    assert held() is not None  # the key of ps's tables
    del ps
    gc.collect()
    assert held() is None


def test_one_mask_search_stays_cheap_over_tables_that_cut_nothing():
    # 1,199 dimensions whose only trace containing the mask is every point
    # keep one AND, every point, for each table
    d = 1200
    ps = PointSet(d, 4, tuple((F(i, 4),) + (F(0),) * (d - 1) for i in range(4)))
    assert realizable_by_box(ps, 0b0101) is None
    assert realizable_by_cube(ps, 0b0101) is None
    assert covered_mask(ps, realizable_by_cube(ps, 0b0011)) == 0b0011


# explicit ids, so the reported test names do not follow the kind strings
@pytest.mark.parametrize("n, d, kind", [(25, 3, BOXES), (20, 4, CUBES)],
                         ids=["25-3-boxes_per", "20-4-cubes_per"])
def test_a_small_missing_mask_builds_no_closure(n, d, kind, monkeypatch):
    ps = random_point_set(random.Random(1), n, d, 50)

    def closure(components, full):
        raise AssertionError("shatter_report built a full closure")

    monkeypatch.setattr(shatter, "_all_ends", closure)
    report = shatter_report(ps, Family(kind))
    assert not report.shattered and report.missing == 7
    assert sorted(report.witnesses) == list(range(7))
    oracle = realizable_by_box if kind == BOXES else realizable_by_cube
    assert oracle(ps, 7) is None


def test_construction_witnesses_keep_their_shapes():
    # digests of the witnesses the Fraction-scanning oracles returned before
    # the integer-grid tables replaced them: every shape must stay the same
    base = build_stripe_shattered_set(2, F(1, 2))
    row = (0, 1, 2, 3, 0, 1, 2, 3)
    worked = lift_points(base, SymbolMatrix((row, row), 4), F(1, 2)).lifted
    cubes = shatter_report(worked, Family(CUBES))
    assert witness_digest(cubes.witnesses) == (
        "229c9eaa51935f92b536ba117f535256a58e2e917a601a7b8fd713e4930c923d"
    )
    stripes = shatter_report(build_stripe_shattered_set(6, F(1, 2)), Family(STRIPES_FIXED, F(1, 2)))
    assert witness_digest(stripes.witnesses) == (
        "5cdda971b442bab620ad8e9d39a43b1a87f2a500a5dfd0b867db642c1198bab1"
    )


def test_cube_witnesses_of_the_twelve_point_lift_keep_their_shapes():
    # extract-sample --m 3 --k 2 --q 4/3 --seed 1, stripes-build --n 1
    # --l 1/2, then lift: 12 points in T^8 over D = 42; the digest is that
    # of the per-edge search the closure replaced
    matrix, _ = sample_extraction_matrix(3, 2, F(4, 3), 1000, 1)
    lifted = lift_points(build_stripe_shattered_set(1, F(1, 2)), matrix, F(1, 2)).lifted
    assert (len(lifted), lifted.dim, lifted.denom) == (12, 8, 42)
    report = shatter_report(lifted, Family(CUBES))
    assert report.shattered and len(report.witnesses) == 1 << 12
    assert witness_digest(report.witnesses) == (
        "760cd7efd16c7b1281138e0cb7a18f1fa7e62e02a2e9163817e708eebdfbe47f"
    )


@pytest.mark.parametrize("oracle", [
    realizable_by_box,
    realizable_by_cube,
    lambda ps, mask: realizable_by_stripe(ps, mask, F(1, 2)),
    realizable_by_any_stripe,
])
def test_oracles_raise_when_the_post_check_fails(monkeypatch, oracle):
    ps = equally_spaced(3)
    assert oracle(ps, 0b001) is not None
    monkeypatch.setattr(shatter, "covered_mask", lambda ps, shape: 0b110)
    with pytest.raises(PostconditionError, match="covers 0x6"):
        oracle(ps, 0b001)


def test_vc_exact_raises_when_its_re_check_fails(monkeypatch):
    monkeypatch.setattr(vcsearch, "shatter_report", lambda ps, family: ShatterReport(False, 0))
    with pytest.raises(PostconditionError):
        vcsearch.vc_exact(1, Family(BOXES), 3)


def test_bruteforce_imports_only_the_torus_geometry():
    # the brute-force oracles must not share code with what they check
    tree = ast.parse((Path(__file__).parent / "bruteforce.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported if name.startswith(("torusvc", "."))} == {"torusvc.torus"}


def test_reference_closure_imports_nothing():
    tree = ast.parse((Path(__file__).parent / "reference_closure.py").read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))


def test_package_uses_every_name_it_imports():
    # __init__.py re-exports; the two marked arc_contains imports are the
    # binding sites the benchmark's tracer wraps
    unused, marked = [], []
    for path in sorted(Path(torusvc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        marked.append((path.name, name))
                    elif name not in used:
                        unused.append((path.name, name))
    assert unused == []
    assert marked == [("lifting.py", "arc_contains"), ("shatter.py", "arc_contains")]


def test_package_has_no_assert_statements():
    # python -O strips asserts, so post-conditions must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(torusvc.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
