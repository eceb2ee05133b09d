import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
import reference_canonical
import reference_enumeration
from bruteforce import brute_box_masks, fine_growth, quarter_arc_masks

from torusvc import vcsearch
from torusvc.errors import GuardExceeded, PostconditionError, VCBracket
from torusvc.shatter import (
    BOXES,
    CUBES,
    STRIPES_ANY,
    STRIPES_FIXED,
    Family,
    ShatterReport,
    covered_mask,
    realizable_masks,
    shatter_report,
)
from torusvc.torus import PointSet
from reference_enumeration import _dim2_assignments, cyclic_compositions, enumerate_levels

from torusvc.vcsearch import (
    canonical_class,
    enumerate_configs,
    realize,
    search_shattered,
    shattered_frontiers,
    vc_exact,
)

F = Fraction


def box_masks(levels, n):
    """The masks boxes realize on the configuration with these levels."""
    return realizable_masks(tuple(levels), n, Family(BOXES))


def boxes_shatter(levels, n):
    return len(box_masks(levels, n)) == 1 << n


def test_config_realize():
    ps = realize(((0, 1, 2), (0, 0, 1)))
    assert ps.denom == 3
    assert ps.points[1] == (F(1, 3), F(0))


def test_run_masks_agrees_with_geometry():
    # in one dimension the box masks are the run masks read from the prefix
    # table; they must equal the arc-coverage masks of the realized
    # configuration, computed geometrically
    for levels in itertools.product(range(4), repeat=4):
        geometric = quarter_arc_masks(realize((levels,)), 0) | {0, 0b1111}
        assert box_masks((levels,), 4) == geometric


def test_boxes_shatter_agrees_with_oracle():
    for levels1 in itertools.product(range(3), repeat=3):
        for levels2 in ((0, 1, 2), (0, 0, 1), (0, 0, 0)):
            levels = (levels1, levels2)
            fast = boxes_shatter(levels, 3)
            slow = shatter_report(realize(levels), Family(BOXES)).shattered
            assert fast == slow


def test_cyclic_compositions_small():
    assert cyclic_compositions(1) == [(1,)]
    assert cyclic_compositions(2) == [(1, 1), (2,)]
    assert cyclic_compositions(3) == [(1, 1, 1), (1, 2), (3,)]
    for comp in cyclic_compositions(6):
        assert sum(comp) == 6


def test_enumeration_complete_dim1():
    # verdicts over the reduced enumeration match raw brute force
    for n in range(1, 5):
        raw = {
            boxes_shatter((lv,), n)
            for lv in itertools.product(range(n), repeat=n)
        }
        enum = {boxes_shatter(levels, n) for levels in enumerate_levels(1, n)}
        assert raw == enum


def test_enumeration_complete_dim2():
    # growth-count spectra of the reduced enumeration match raw brute force
    for n in range(1, 4):
        raw = set()
        for lv1 in itertools.product(range(n), repeat=n):
            for lv2 in itertools.product(range(n), repeat=n):
                raw.add(len(box_masks((lv1, lv2), n)))
        enum = {len(box_masks(levels, n)) for levels in enumerate_levels(2, n)}
        assert raw == enum


def test_dim2_assignments_reach_every_weak_cyclic_order():
    # every raw level tuple, dense-ranked and reduced by rotation and
    # reflection, is one of the emitted assignments
    for n in range(1, 6):
        emitted = set(_dim2_assignments(n))
        for raw in itertools.product(range(n), repeat=n):
            rank = {v: r for r, v in enumerate(sorted(set(raw)))}
            b = len(rank)
            dense = [rank[v] for v in raw]
            images = {tuple((s * x + r) % b for x in dense) for s in (1, -1) for r in range(b)}
            assert images & emitted, (n, raw)
    assert [sum(1 for _ in enumerate_levels(2, n)) for n in range(1, 6)] == [1, 4, 15, 85, 581]


# explicit ids, here and below, so the reported test names do not follow the kind strings
@pytest.mark.parametrize("d, kind, n_top", [(1, BOXES, 5), (1, STRIPES_ANY, 5),
                                            (2, BOXES, 6), (2, STRIPES_ANY, 5)],
                         ids=["1-boxes_per-5", "1-stripes_any-5", "2-boxes_per-6", "2-stripes_any-5"])
def test_augmentation_frontier_matches_the_complete_enumeration(d, kind, n_top):
    family = Family(kind)
    frontiers = shattered_frontiers(d, family, n_top)
    for n in range(1, n_top + 1):
        complete = sorted({
            canonical_class(levels) for levels in enumerate_levels(d, n)
            if len(realizable_masks(levels, n, family)) == 1 << n
        })
        assert (frontiers[n - 1] if n <= len(frontiers) else []) == complete


def test_frontier_extensions_validate_their_classes():
    with pytest.raises(ValueError):
        list(enumerate_configs(2, 3, [((0, 0),)]))
    # one point in the plane: a tie or a gap per dimension, minus the duplicate
    assert list(enumerate_configs(2, 2, [((0, 0),)])) == [
        ((0, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 1), (0, 1))]


def test_canonical_class_identifies_the_symmetries():
    levels = ((0, 2, 1, 2), (3, 0, 0, 1))
    cls = canonical_class(levels)
    moved = (
        tuple((2 - x) % 3 for x in levels[0]),  # reflect and rotate
        tuple(x + 1 for x in levels[1]),  # not dense: ranked first
    )
    for variant in (levels, moved, levels[::-1], moved[::-1],
                    tuple(tuple(col[p] for p in (3, 1, 0, 2)) for col in levels)):
        assert canonical_class(variant) == cls


def test_anchored_canonical_class_matches_the_unanchored_minimum():
    # up to ENUM_GUARD_N points, where the keys are longest
    rng = random.Random(17)
    for _ in range(300):
        d, n = rng.randint(1, 3), rng.randint(1, vcsearch.ENUM_GUARD_N)
        levels = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(d))
        assert canonical_class(levels) == reference_canonical.canonical_class(levels), levels


@pytest.mark.parametrize("reference", ["reference_canonical.py", "reference_scanners.py",
                                       "reference_enumeration.py"])
def test_references_import_nothing_from_the_package(reference):
    tree = ast.parse((Path(__file__).parent / reference).read_text())
    assert tree.body
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not any(name.startswith(("torusvc", ".")) for name in names)


def test_enumeration_guards():
    with pytest.raises(GuardExceeded):
        list(enumerate_configs(3, 2, [((0, 0, 0),)]))
    with pytest.raises(GuardExceeded):
        list(enumerate_configs(1, 9, [((0,),) * 8]))
    with pytest.raises(ValueError):
        list(enumerate_configs(1, 0, []))
    # the seeded one-point frontier passes the same checks
    with pytest.raises(GuardExceeded):
        shattered_frontiers(3, Family(BOXES), 1)
    with pytest.raises(ValueError, match="d and n must be positive"):
        shattered_frontiers(0, Family(BOXES), 1)
    with pytest.raises(ValueError, match="n_max must be positive"):
        shattered_frontiers(1, Family(BOXES), 0)
    with pytest.raises(ValueError, match="^order type does not decide the verdict of cubes$"):
        shattered_frontiers(2, Family(CUBES), 3)


def test_vc_exact_dim1_boxes_is_three():
    value, ps, witnesses = vc_exact(1, Family(BOXES), 5)
    assert value == 3
    assert len(ps) == 3
    assert len(witnesses) == 8
    for mask, shape in witnesses.items():
        assert covered_mask(ps, shape) == mask


def test_vc_exact_dim1_any_stripes():
    value, _, _ = vc_exact(1, Family(STRIPES_ANY), 4)
    assert value == 3  # arcs shatter 3 cyclic points, never 4


def test_vc_exact_dim2_any_stripes_is_five():
    value, ps, witnesses = vc_exact(2, Family(STRIPES_ANY), 8)
    assert value == 5 and len(witnesses) == 32
    assert fine_growth(ps, "stripes-any") == 32
    # the pentagram the enumeration used to miss is shattered as well
    pentagram = realize(((0, 1, 2, 3, 4), (0, 2, 4, 1, 3)))
    assert shatter_report(pentagram, Family(STRIPES_ANY)).shattered
    assert fine_growth(pentagram, "stripes-any") == 32
    # the upper side: on 6 points an open arc traces, in one dimension, no
    # point, every point, or a proper cyclic run (one of 6 starts and 5
    # lengths), so stripes in T^2 realize at most 2 + 2 * 6 * 5 = 62 < 64
    # subsets; the value 5 < n_max = 8 says the frontier at n = 6 is empty
    assert 2 + 2 * 6 * 5 < 1 << 6


def test_vc_exact_scores_a_fifth_of_the_old_enumeration(monkeypatch):
    scored = 0
    enumerate_all = vcsearch.enumerate_configs

    def counted(*args):
        nonlocal scored
        for levels in enumerate_all(*args):
            scored += 1
            yield levels

    monkeypatch.setattr(vcsearch, "enumerate_configs", counted)
    assert vc_exact(2, Family(BOXES), 7)[0] == 6
    assert 0 < scored <= 14918 // 5


def test_frontiers_score_each_point_multiset_once_per_n(monkeypatch):
    decided, scored, refuted = [], [], []
    untied, hereditary, shattered = vcsearch._untied, vcsearch._hereditary, vcsearch._shattered

    def decided_untied(levels):
        decided.append((len(levels[0]), tuple(sorted(zip(*levels)))))
        return untied(levels)

    def recorded_hereditary(levels, below):
        verdict = hereditary(levels, below)
        if not verdict:
            refuted.append(levels)
        return verdict

    def recorded(levels, family):
        verdict = shattered(levels, family)
        scored.append((len(levels[0]), tuple(sorted(zip(*levels))), verdict,
                       reference_canonical.canonical_class(levels)))
        return verdict

    monkeypatch.setattr(vcsearch, "_untied", decided_untied)
    monkeypatch.setattr(vcsearch, "_hereditary", recorded_hereditary)
    monkeypatch.setattr(vcsearch, "_shattered", recorded)
    frontiers = shattered_frontiers(2, Family(BOXES), 7)
    assert [len(f) for f in frontiers] == [1, 2, 3, 6, 8, 6]  # and F_7 is empty
    # each point multiset is decided once per n (F_1 is seeded) ...
    assert len(set(decided)) == len(decided)
    assert [sum(1 for m, _ in decided if m == n) for n in range(1, 8)] == [0, 2, 6, 25, 129, 446, 636]
    # ... and only those that pass the untied-point and heredity tests get a closure
    assert len({(n, points) for n, points, _, _ in scored}) == len(scored)
    per_n = [sum(1 for m, _, _, _ in scored if m == n) for n in range(1, 8)]
    assert per_n == [0, 2, 3, 11, 38, 87, 21]
    # the heredity test rejects only candidates that are not shattered
    assert len(refuted) == 633
    for levels in refuted:
        n = len(levels[0])
        assert len(realizable_masks(levels, n, Family(BOXES))) < 1 << n
    # a shattered orbit is scored once: its class is never met again at its n
    # (an orbit that is not shattered marks only its own point multiset)
    shattered_orbits = [(n, cls) for n, _, verdict, cls in scored if verdict]
    assert len(set(shattered_orbits)) == len(shattered_orbits)
    for n, frontier in enumerate(frontiers[1:], start=2):
        assert sorted(cls for m, cls in shattered_orbits if m == n) == frontier
    assert not [cls for n, _, verdict, cls in scored if not verdict and (n, cls) in shattered_orbits]


def _reference_frontiers(d, family, n_max):
    """The per-candidate loop the orbit marking replaced: each point
    multiset scored by its full closure, each shattered one canonicalized."""
    frontiers = [[((0,) * d,)]]
    for n in range(2, n_max + 1):
        scored, found = set(), set()
        for levels in enumerate_configs(d, n, frontiers[-1]):
            points = tuple(sorted(zip(*levels)))
            if points not in scored:
                scored.add(points)
                if len(realizable_masks(levels, n, family)) == 1 << n:
                    found.add(reference_canonical.canonical_class(levels))
        if not found:
            break
        frontiers.append(sorted(found))
    return frontiers


@pytest.mark.parametrize("kind, n_max", [(BOXES, 7), (STRIPES_ANY, 6)], ids=["boxes_per", "stripes_any"])
def test_heredity_keeps_the_unpruned_frontiers(kind, n_max):
    # boxes at n = 7 is where the heredity test rejects most candidates
    family = Family(kind)
    assert shattered_frontiers(2, family, n_max) == _reference_frontiers(2, family, n_max)


@pytest.mark.parametrize("d, kind, n_max", [(2, BOXES, 7), (2, STRIPES_ANY, 6), (1, BOXES, 4)],
                         ids=["boxes_d2", "stripes_any_d2", "boxes_d1"])
def test_incremental_heredity_matches_the_dense_rank_reference(monkeypatch, d, kind, n_max):
    # each deletion re-ranked from the extension's dense levels gives the
    # same decision as dense-ranking the deletion from scratch
    hereditary, candidates = vcsearch._hereditary, []

    def compared(levels, below):
        verdict = hereditary(levels, below)
        assert verdict == reference_enumeration._hereditary(levels, below), levels
        candidates.append(levels)
        return verdict

    monkeypatch.setattr(vcsearch, "_hereditary", compared)
    shattered_frontiers(d, Family(kind), n_max)
    assert candidates


def test_orbit_marking_keeps_the_per_candidate_frontiers_in_space(monkeypatch):
    monkeypatch.setattr(vcsearch, "ENUM_GUARD_D", 3)
    frontiers = shattered_frontiers(3, Family(BOXES), 4)
    assert [len(f) for f in frontiers] == [1, 3, 8, 46]
    assert frontiers == _reference_frontiers(3, Family(BOXES), 4)


@pytest.mark.parametrize("kind", [BOXES, STRIPES_ANY], ids=["boxes_per", "stripes_any"])
def test_all_but_one_point_is_realizable_iff_that_point_is_untied(kind):
    # the untied-point lemma of vcsearch, and its converse, against the
    # quarter-grid brute force
    rng = random.Random(29)
    for _ in range(40):
        d, n = rng.randint(1, 3), rng.randint(2, 6)
        levels = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(d))
        ps = realize(levels)
        if kind == BOXES:
            masks = brute_box_masks(ps)
        else:
            masks = {m for j in range(d) for m in quarter_arc_masks(ps, j, closed=False)}
        full = (1 << n) - 1
        for i in range(n):
            untied = any(col.count(col[i]) == 1 for col in levels)
            assert (full ^ 1 << i in masks) == untied, (levels, i)
            if not untied:
                assert not vcsearch._shattered(levels, Family(kind))


def test_distance_dependent_families_need_a_witness_at_the_superfamily_value():
    value, ps, witnesses = vc_exact(1, Family(CUBES), 4)
    assert value == 3 and len(witnesses) == 8
    half = Family(STRIPES_FIXED, F(1, 2))
    with pytest.raises(VCBracket) as bracket:
        vc_exact(1, half, 8)
    # points at level/n find only one shattered point, while any-length
    # stripes shatter 3; {0, 1/4} shows that 1 was never the value
    assert (bracket.value.lower, bracket.value.upper) == (1, 3)
    assert shatter_report(PointSet(1, 4, ((F(0),), (F(1, 4),))), half).shattered


def test_vc_exact_validation():
    with pytest.raises(ValueError):
        vc_exact(1, Family(BOXES), 0)


def test_search_finds_and_certifies():
    found = search_shattered(2, 4, budget=3000, seed=0)
    assert found is not None
    ps, witnesses = found
    assert len(witnesses) == 16
    for mask, shape in witnesses.items():
        assert covered_mask(ps, shape) == mask
    # deterministic for a fixed seed
    again = search_shattered(2, 4, budget=3000, seed=0)
    assert again is not None and again[0] == ps


def test_search_can_fail_gracefully():
    assert search_shattered(1, 4, budget=200, seed=1) is None


def test_search_raises_when_the_recheck_rejects_its_configuration(monkeypatch):
    # realizable_masks scores the configuration as shattered; a re-check
    # that disagrees is a bug, not "nothing found"
    monkeypatch.setattr(vcsearch, "shatter_report", lambda ps, family: ShatterReport(False, 0))
    with pytest.raises(PostconditionError, match="fails its re-check"):
        search_shattered(2, 4, budget=3000, seed=0)
