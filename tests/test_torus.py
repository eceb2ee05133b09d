import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import bruteforce
import torusvc
from torusvc import cli, lifting, shatter, torus
from torusvc.torus import (
    Arc,
    Box,
    Cube,
    PointSet,
    Stripe,
    arc_complement,
    arc_contains,
    arc_length,
    shape_contains,
)

F = Fraction


def test_arc_rejects_degenerate():
    with pytest.raises(ValueError):
        Arc(F(1, 3), F(1, 3))
    with pytest.raises(ValueError):
        Arc(F(1, 3), F(3, 2))
    with pytest.raises(ValueError):
        Arc(F(-1, 3), F(1, 2))


def test_arc_length_plain_and_wrapping():
    assert arc_length(Arc(F(1, 4), F(3, 4))) == F(1, 2)
    assert arc_length(Arc(F(3, 4), F(1, 4))) == F(1, 2)
    assert arc_length(Arc(F(9, 10), F(1, 10))) == F(1, 5)


def test_stored_length_leaves_equality_hash_and_repr_alone():
    arc = Arc(F(3, 4), F(1, 4))
    assert arc.length == arc_length(arc) == F(1, 2)
    assert repr(arc) == "Arc(start=Fraction(3, 4), end=Fraction(1, 4), closed=True)"
    assert arc == Arc(F(3, 4), F(1, 4))
    assert hash(arc) == hash((F(3, 4), F(1, 4), True))
    assert arc != Arc(F(1, 4), F(3, 4))  # same length, other arc
    assert arc != Arc(F(3, 4), F(1, 4), closed=False)
    with pytest.raises(TypeError):
        Arc(F(3, 4), F(1, 4), True, F(1, 2))  # the length is not an argument


def test_float_coordinates_are_refused():
    with pytest.raises(ValueError):
        Arc(0.1, 0.3)
    with pytest.raises(ValueError):
        Arc(F(1, 10), 0.3)
    with pytest.raises(ValueError):
        PointSet(1, 4, ((0.25,),))
    # ints are exact: 0 is a coordinate
    assert Arc(0, F(1, 2)) == Arc(F(0), F(1, 2))
    assert PointSet(1, 4, ((0,),)).cols == ((0,),)


def test_grid_is_the_exact_integer_form():
    rng = random.Random(13)
    for _ in range(300):
        qs, qe = rng.randint(1, 30), rng.randint(1, 30)
        start, end = F(rng.randrange(qs), qs), F(rng.randrange(qe), qe)
        if start == end:
            continue
        arc = Arc(start, end, closed=bool(rng.getrandbits(1)))
        s, e, w, q = arc.grid
        assert q == math.lcm(start.denominator, end.denominator)
        assert (F(s, q), F(e, q), F(w, q)) == (start, end, arc.length)
        assert 0 < w < q and (s + w) % q == e


def test_closed_arc_contains_endpoints():
    for a, b in [(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)), (F(0), F(1, 2))]:
        arc = Arc(a, b)
        assert arc_contains(arc, a)
        assert arc_contains(arc, b)
        open_arc = Arc(a, b, closed=False)
        assert not arc_contains(open_arc, a)
        assert not arc_contains(open_arc, b)


def test_wrapping_containment():
    arc = Arc(F(3, 4), F(1, 4))
    assert arc_contains(arc, F(0))
    assert arc_contains(arc, F(7, 8))
    assert not arc_contains(arc, F(1, 2))


def test_arc_contains_agrees_with_the_bruteforce_rule():
    # quarter-grid arcs, closed and open, wrapping and not, at their ends,
    # between them, and at points off the grid
    rng = random.Random(29)
    seen = set()
    for _ in range(300):
        g = 4 * rng.randint(1, 9)
        t1, t2 = rng.sample(range(g), 2)
        arc = Arc(F(t1, g), F(t2, g), closed=bool(rng.getrandbits(1)))
        seen.add((arc.closed, t1 > t2))
        q = rng.choice((g, 2 * g, 7, 13))
        for x in (arc.start, arc.end, *(F(t, g) for t in range(g)), *(F(t, q) for t in range(q))):
            assert arc_contains(arc, x) == bruteforce.contains(arc, x), (arc, x)
    assert len(seen) == 4


def test_arc_contains_refuses_a_float_or_a_point_off_the_circle():
    arc = Arc(F(1, 4), F(3, 4))
    with pytest.raises(ValueError, match="0.5 is not a Fraction or an int"):
        arc_contains(arc, 0.5)
    with pytest.raises(ValueError, match="outside"):
        arc_contains(arc, F(5, 4))


def test_torus_imports_nothing_from_the_package():
    # torus is the checker: it must share no code with the provers
    tree = ast.parse(Path(torus.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not {name for name in imported if name.startswith(("torusvc", "."))}


def test_every_check_binds_the_one_covered_mask():
    for module in (shatter, lifting, cli, torusvc):
        assert module.covered_mask is torus.covered_mask, module


def test_complement_partition():
    rng = random.Random(7)
    for _ in range(200):
        g = 24
        t1, t2 = rng.sample(range(g), 2)
        arc = Arc(F(t1, g), F(t2, g), closed=bool(rng.getrandbits(1)))
        comp = arc_complement(arc)
        assert arc_length(arc) + arc_length(comp) == 1
        for t in range(g):
            x = F(t, g)
            assert arc_contains(arc, x) != arc_contains(comp, x)


def test_box_contains_is_per_dimension_conjunction():
    rng = random.Random(11)
    for _ in range(100):
        g = 12
        arcs = []
        for _ in range(3):
            t1, t2 = rng.sample(range(g), 2)
            arcs.append(Arc(F(t1, g), F(t2, g)))
        box = Box(tuple(arcs))
        p = tuple(F(rng.randrange(g), g) for _ in range(3))
        assert shape_contains(box, p) == all(
            arc_contains(a, x) for a, x in zip(arcs, p)
        )
    with pytest.raises(ValueError, match=r"^point dimension 2 != shape dimension 3$"):
        shape_contains(box, p[:2])


def test_cube_derives_and_checks_edge():
    cube = Cube((Arc(F(0), F(1, 3)), Arc(F(1, 2), F(5, 6))))
    assert cube.edge == F(1, 3)
    with pytest.raises(ValueError):
        Cube((Arc(F(0), F(1, 3)), Arc(F(1, 2), F(3, 4))))
    # lengths 2/6 on the 1/6 grid, plain and wrapping: an edge of 1/3
    cube = Cube((Arc(F(1, 2), F(5, 6)), Arc(F(5, 6), F(1, 6)), Arc(F(1, 6), F(1, 2))))
    assert [a.grid[2:] for a in cube.arcs] == [(2, 6)] * 3 and cube.edge == F(1, 3)
    with pytest.raises(ValueError):
        Cube((Arc(F(1, 2), F(5, 6)), Arc(F(1, 2), F(5, 6) + F(1, 1000))))
    with pytest.raises(TypeError):
        Cube(cube.arcs, F(1, 3))  # the edge is derived, never given


def test_box_requires_closed_arcs():
    with pytest.raises(ValueError, match="^box factors must be closed arcs$"):
        Box((Arc(F(0), F(1, 2), closed=False),))
    with pytest.raises(ValueError, match="^box needs at least one dimension$"):
        Box(())


def test_cube_shape_checks_keep_their_precedence():
    closed, short = Arc(F(0), F(1, 2)), Arc(F(0), F(1, 4))
    opened = Arc(F(1, 2), F(0), closed=False)
    with pytest.raises(ValueError, match="^box needs at least one dimension$"):
        Cube(())
    with pytest.raises(ValueError, match="^cube arcs must all have the edge length$"):
        Cube((closed, short, closed))
    # an open arc outranks a wrong length, before it or after it
    for arcs in ((closed, short, opened), (opened, short), (closed, opened, short)):
        with pytest.raises(ValueError, match="^box factors must be closed arcs$"):
            Cube(arcs)


def test_stripe_validation():
    arc = Arc(F(0), F(1, 2), closed=False)
    s = Stripe(1, arc, 3)
    assert shape_contains(s, (F(0), F(1, 4), F(0)))
    assert not shape_contains(s, (F(1, 4), F(3, 4), F(0)))
    with pytest.raises(ValueError, match=r"^point dimension 2 != shape dimension 3$"):
        shape_contains(s, (F(0), F(1, 4)))
    with pytest.raises(ValueError):
        Stripe(3, arc, 3)
    with pytest.raises(ValueError):
        Stripe(0, Arc(F(0), F(1, 2)), 3)


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(2, 4, ((F(1, 3), F(0)),))
    with pytest.raises(ValueError):
        PointSet(2, 4, ((F(1, 4),),))
    with pytest.raises(ValueError, match="^dimension must be positive$"):
        PointSet(0, 4, ())
    with pytest.raises(ValueError, match="^denominator must be positive$"):
        PointSet(1, 0, ())
    with pytest.raises(ValueError, match="^cannot infer dimension of an empty point set$"):
        PointSet.from_coords([])
    ps = PointSet.from_coords([(F(1, 3), F(1, 2)), (F(0), F(5, 6))])
    assert ps.denom == 6
    assert ps.dim == 2
    assert len(ps) == 2
