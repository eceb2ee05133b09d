import itertools
from fractions import Fraction

import pytest

from torusvc import shatter
from torusvc.errors import GuardExceeded
from torusvc.shatter import (
    BOXES,
    CUBES,
    STRIPES_ANY,
    Family,
    covered_mask,
    realizable_by_box,
    realizable_by_cube,
    realizable_masks,
    shatter_report,
)
from torusvc.torus import PointSet
from torusvc.vcsearch import (
    ConfigCode,
    cyclic_compositions,
    enumerate_configs,
    search_shattered,
    vc_exact,
)

F = Fraction


def box_masks(levels, n):
    """The masks boxes realize on the configuration with these levels."""
    return realizable_masks(tuple(levels), n, Family(BOXES))


def boxes_shatter(levels, n):
    return len(box_masks(levels, n)) == 1 << n


def test_config_realize():
    cfg = ConfigCode(2, 3, ((0, 1, 2), (0, 0, 1)))
    ps = cfg.realize()
    assert ps.denom == 3
    assert ps.points[1] == (F(1, 3), F(0))


def test_run_masks_agrees_with_geometry():
    # in one dimension the box masks are the run masks read from the prefix
    # table; they must equal the arc-coverage masks of the realized
    # configuration, computed geometrically
    from bruteforce import closed_arc_masks

    for levels in itertools.product(range(4), repeat=4):
        cfg = ConfigCode(1, 4, (levels,))
        geometric = closed_arc_masks(cfg.realize(), 0) | {0, 0b1111}
        assert box_masks((levels,), 4) == geometric


def test_boxes_shatter_agrees_with_oracle():
    for levels1 in itertools.product(range(3), repeat=3):
        for levels2 in ((0, 1, 2), (0, 0, 1), (0, 0, 0)):
            cfg = ConfigCode(2, 3, (levels1, levels2))
            fast = boxes_shatter(cfg.levels, 3)
            slow = shatter_report(cfg.realize(), Family(BOXES)).shattered
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
        enum = {boxes_shatter(c.levels, n) for c in enumerate_configs(1, n)}
        assert raw == enum


def test_enumeration_complete_dim2():
    # growth-count spectra of the reduced enumeration match raw brute force
    for n in range(1, 4):
        raw = set()
        for lv1 in itertools.product(range(n), repeat=n):
            for lv2 in itertools.product(range(n), repeat=n):
                raw.add(len(box_masks((lv1, lv2), n)))
        enum = {len(box_masks(c.levels, n)) for c in enumerate_configs(2, n)}
        assert raw == enum


def test_enumeration_guards():
    with pytest.raises(GuardExceeded):
        list(enumerate_configs(3, 2))
    with pytest.raises(GuardExceeded):
        list(enumerate_configs(1, 9))
    with pytest.raises(ValueError):
        list(enumerate_configs(1, 0))


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


def test_scoring_configurations_keeps_the_oracles_cached_tables():
    ps = PointSet(2, 5, ((F(0), F(1, 5)), (F(2, 5), F(4, 5)), (F(3, 5), F(0))))
    realizable_by_box(ps, 0b101)
    realizable_by_cube(ps, 0b011)
    before = shatter._prefix_masks.cache_info().misses, shatter._cube_arcs.cache_info().misses
    assert vc_exact(2, Family(BOXES), 5)[0] == 5
    assert vc_exact(1, Family(CUBES), 4)[0] == 3
    assert search_shattered(2, 4, 300, 0) is not None
    # the scoring builds its tables afresh: only the three re-checks by
    # shatter_report (two prefix tables, one cube table) went through the caches
    after = shatter._prefix_masks.cache_info().misses, shatter._cube_arcs.cache_info().misses
    assert after[0] - before[0] <= 3 and after[1] - before[1] <= 1
    hits = shatter._prefix_masks.cache_info().hits, shatter._cube_arcs.cache_info().hits
    shatter._prefix_masks(ps.cols)
    shatter._cube_arcs(ps.denom, ps.cols)
    assert (shatter._prefix_masks.cache_info().hits, shatter._cube_arcs.cache_info().hits) == (
        hits[0] + 1, hits[1] + 1)
