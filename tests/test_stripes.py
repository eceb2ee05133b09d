import hashlib
from fractions import Fraction

import pytest

from torusvc.shatter import covered_mask
from torusvc.stripes import (
    build_stripe_shattered_set,
    high_value,
    low_value,
    pair_rep,
    stripe_witness,
)
from torusvc.torus import arc_contains, arc_length

F = Fraction

LENGTHS = (F(1, 4), F(1, 2), F(3, 4))


def test_values_are_separated_by_more_than_l():
    for l in LENGTHS:
        lo, hi = low_value(l), high_value(l)
        assert 0 < lo < hi < 1
        # the forward distance between the values exceeds l, so an arc of
        # length l inside [0,1) never contains both (the wrap-around
        # distance can be smaller than l, which is why witness arcs are
        # clipped to never wrap)
        assert hi - lo > l


def test_pair_encoding_roundtrip():
    n_points = 4
    for subset in range(1 << n_points):
        rep = pair_rep(subset, n_points)
        assert not rep & 1  # point 0 never in the representative
        assert rep in (subset, ~subset & 0b1111)
        # the pair's dimension i carries C_i = i << 1
        assert stripe_witness(n_points - 1, F(1, 2), subset).anchor_dim << 1 == rep


def test_construction_shape():
    ps = build_stripe_shattered_set(3, F(1, 2))
    assert ps.dim == 8
    assert len(ps) == 4
    lo, hi = low_value(F(1, 2)), high_value(F(1, 2))
    for i in range(8):
        members = i << 1
        for p in range(4):
            want = lo if members >> p & 1 else hi
            assert ps.points[p][i] == want


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        build_stripe_shattered_set(0, F(1, 2))
    with pytest.raises(ValueError):
        build_stripe_shattered_set(2, F(3, 2))
    with pytest.raises(ValueError):
        build_stripe_shattered_set(3, F(1, 2), ambient_dim=7)
    # a float length is refused, not turned into a Fraction over 2^55
    with pytest.raises(ValueError, match=r"^stripe length 0\.1 is not a Fraction or an int$"):
        build_stripe_shattered_set(2, 0.1)
    with pytest.raises(ValueError, match=r"^stripe length 1\.5 outside \(0,1\)$"):
        stripe_witness(2, 1.5, 0)


def test_witness_arc_contains_target_only_and_never_wraps():
    n = 2
    for l in LENGTHS:
        lo, hi = low_value(l), high_value(l)
        for subset in range(1 << (n + 1)):
            arc = stripe_witness(n, l, subset).arc
            assert arc_length(arc) == l
            assert arc.start + l <= 1  # no wrap past 1
            if subset == 0:
                assert not arc_contains(arc, lo) and not arc_contains(arc, hi)
            else:
                side = lo if subset == pair_rep(subset, n + 1) else hi
                assert arc_contains(arc, side)
                assert not arc_contains(arc, lo + hi - side)


def test_single_point_witnesses():
    # n=1, l=1/2: S={p1} is picked out in the {p1}/{p0} pair dimension
    s = stripe_witness(1, F(1, 2), 0b10)
    assert s.anchor_dim == pair_rep(0b10, 2) >> 1
    assert arc_contains(s.arc, low_value(F(1, 2)))
    assert not arc_contains(s.arc, high_value(F(1, 2)))


def test_all_witnesses_verify_small():
    for n in (1, 2, 3):
        for l in LENGTHS:
            ps = build_stripe_shattered_set(n, l)
            for subset in range(1 << (n + 1)):
                s = stripe_witness(n, l, subset)
                assert arc_length(s.arc) == l
                assert covered_mask(ps, s) == subset


def test_embedded_witnesses_verify():
    n, l = 2, F(1, 2)
    ps = build_stripe_shattered_set(n, l, ambient_dim=6)
    assert ps.dim == 6
    for subset in range(1 << (n + 1)):
        s = stripe_witness(n, l, subset, ambient_dim=6)
        assert covered_mask(ps, s) == subset


def test_witness_mask_range():
    with pytest.raises(ValueError):
        stripe_witness(2, F(1, 2), 1 << 3)


def test_witnesses_are_pinned():
    # every anchor and arc for n <= 4, each length, with and without extra
    # dimensions: the lifting scales these arcs into certificates, so a
    # rewrite of the rule must not move one
    lines = []
    for n in range(1, 5):
        for l in LENGTHS:
            for ambient in (None, (1 << n) + 3):
                for subset in range(1 << (n + 1)):
                    s = stripe_witness(n, l, subset, ambient)
                    lines.append(f"{n} {l} {ambient} {subset} {s.anchor_dim} {s.arc.start} "
                                 f"{s.arc.end} {s.arc.closed} {s.ambient_dim}\n")
    assert len(lines) == 360
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "560df1ba0524cc0c5830d18d1f58583d0d521daffba0fefd087afa88dbaaeb00")
