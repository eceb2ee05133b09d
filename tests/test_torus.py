import ast
import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bruteforce
import reference_values
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


def test_package_imports_no_dataclasses():
    # a dataclass decorator compiles its generated methods again on every import
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(torusvc.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh process, so that no module the tests loaded hides one torusvc loads
    src = Path(torusvc.__file__).resolve().parent.parent
    code = ("import sys; before = set(sys.modules); import torusvc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _value_args(ns):
    """Per class name, constructor arguments for values built from the classes in ns:
    the first two give equal values, each later one a value unequal to the first."""
    a, b, gap = ns.Arc(F(1, 4), F(3, 4)), ns.Arc(F(3, 4), F(1, 4)), ns.Arc(F(1, 4), F(1, 2), False)
    pts = ((F(1, 4),), (F(1, 2),))
    ps, matrix = ns.PointSet(1, 4, pts), ns.SymbolMatrix(((0, 1),), 2)
    # failure_probability_bound(2, 1, 2) and choose_parameters(2**20)
    ledger = (F(2), 1, 2, 2, 4, 6, 36, [0, 0], [0, 0], 0, F(0))
    params = (1 << 20, 20, F(21, 20), 9600, 104, 998400, 1048320, True, True)
    return {
        "Arc": [(F(1, 4), F(3, 4)), (F(1, 4), F(3, 4), True), (F(1, 4), F(3, 4), False),
                (F(3, 4), F(1, 4))],
        "Box": [((a, b),), ((a, b),), ((b, a),), ((a,),)],
        "Cube": [((a, b),), ((a, b),), ((b, a),), ((a,),)],
        "Stripe": [(0, gap, 2), (0, gap, 2), (1, gap, 2), (0, gap, 1)],
        "PointSet": [(1, 4, pts), (1, 4, pts), (1, 8, pts), (1, 4, pts[:1])],
        "SymbolMatrix": [(((0, 1),), 2), (((0, 1),), 2), (((0, 1),), 3), (((1, 0),), 2)],
        "ExtractionVerdict": [(True,), (True, None, None), (False,),
                              (False, (0, 1), ((0, 1), (1,), {0: 0, 1: 0}))],
        "CountingLedger": [ledger, ledger, ledger[:-1] + (F(1, 2),)],
        "Family": [("boxes",), ("boxes", None), ("cubes",), ("stripes", F(1, 2))],
        "ShatterReport": [(True,), (True, None, {}), (False, 3), (True, None, {0: a})],
        # filler and cells are neither compared nor printed
        "LiftInstance": [(ps, matrix, F(1, 2), ps, None, a, {}),
                         (ps, matrix, F(1, 2), ps, None, b, {0: 1}),
                         (ps, matrix, F(1, 2), ps, 1, a, {})],
        "LiftReport": [(4, [], 12), (4, [], 12), (4, [3], 12), (5, [], 12)],
        "BoundParams": [params, params, params[:-1] + (False,)],
    }


def _values(ns):
    return {name: [getattr(ns, name)(*args) for args in arg_list]
            for name, arg_list in _value_args(ns).items()}


@pytest.mark.parametrize("name", list(_value_args(torusvc)))
def test_values_keep_the_replaced_dataclass_semantics(name):
    assert not dataclasses.is_dataclass(getattr(torusvc, name))
    fields = dataclasses.fields(getattr(reference_values, name))
    ref_all, new_all = _values(reference_values), _values(torusvc)
    others = [(r, n) for key in ref_all for r, n in zip(ref_all[key], new_all[key])]
    for ref, new in zip(ref_all[name], new_all[name]):
        assert repr(new) == repr(ref)
        # every field, derived ones and defaults too, holds the same value
        assert [repr(getattr(new, f.name)) for f in fields] == [
            repr(getattr(ref, f.name)) for f in fields]
        # against every value of every class (so Box(arcs) against Cube(arcs)), and a tuple
        assert ([(new == n, new != n) for _, n in others]
                == [(ref == r, ref != r) for r, _ in others])
        values = tuple(getattr(ref, f.name) for f in fields if f.compare)
        assert (new == values, new != values) == (ref == values, ref != values) == (False, True)
        if type(ref).__dataclass_params__.frozen:
            assert hash(new) == hash(ref)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(new, f.name, None)
            with pytest.raises(AttributeError):
                delattr(new, f.name)
    refs = ref_all[name]  # as _value_args promises: the first two equal, the rest not
    assert [ref == refs[0] for ref in refs] == [True, True] + [False] * (len(refs) - 2)
    for ns in (reference_values, torusvc):
        cls, args = getattr(ns, name), _value_args(ns)[name][0]
        with pytest.raises(TypeError):  # one argument too many
            cls(*args, *[None] * (sum(f.init for f in fields) - len(args) + 1))
        for f in fields:
            if not f.init:
                with pytest.raises(TypeError):  # a derived field is no argument
                    cls(*args, **{f.name: None})


def test_shatter_report_defaults_to_a_fresh_witness_dict():
    for cls in (reference_values.ShatterReport, torusvc.ShatterReport):
        first, second = cls(True), cls(True)
        assert first.witnesses == {} and first.witnesses is not second.witnesses


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


def test_point_set_grid_check_agrees_with_the_fraction_product_rule():
    # on the grid iff x * D is an integer, and then cols holds that integer;
    # coordinates whose denominators divide D and do not, and the int 0
    rng = random.Random(41)
    accepted = refused = 0
    for _ in range(400):
        denom = rng.randint(1, 60)
        qs = [q for q in range(1, 2 * denom + 1) if denom % q == 0] + [rng.randint(1, 90)]
        dim = rng.randint(1, 3)
        points = tuple(tuple(0 if rng.random() < 0.1 else F(rng.randrange(q), q)
                             for q in (rng.choice(qs) for _ in range(dim)))
                       for _ in range(rng.randint(1, 4)))
        scaled = [[x * denom for x in p] for p in points]
        if all(y.denominator == 1 for p in scaled for y in p):
            ps = PointSet(dim, denom, points)
            assert ps.cols == tuple(zip(*((y.numerator for y in p) for p in scaled)))
            accepted += 1
        else:
            x = next(x for p in points for x in p if (x * denom).denominator != 1)
            with pytest.raises(ValueError, match=rf"^coordinate {x} not on the 1/{denom} grid$"):
                PointSet(dim, denom, points)
            refused += 1
    assert accepted > 100 and refused > 100
    assert PointSet(1, 1, ((0,),)).cols == ((0,),)
