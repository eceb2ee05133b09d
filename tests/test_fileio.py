import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference_certificate
import torusvc
from bruteforce import random_point_set
from torusvc.extraction import SymbolMatrix
from torusvc.fileio import (
    ParseError,
    parse_rat,
    read_certificate,
    read_matrix,
    read_points,
    write_certificate,
    write_matrix,
    write_points,
)
from torusvc.shatter import (
    realizable_by_any_stripe,
    realizable_by_box,
    realizable_by_cube,
    realizable_by_stripe,
)
from torusvc.torus import Arc, Box, Cube, PointSet, Stripe

F = Fraction


def test_parse_rat():
    assert parse_rat("2/3") == F(2, 3)
    assert parse_rat("5") == 5
    with pytest.raises(ValueError):
        parse_rat("a/b")
    with pytest.raises(ValueError):
        parse_rat("1/0")


def test_points_roundtrip(tmp_path):
    ps = PointSet.from_coords([(F(1, 6), F(5, 6)), (F(0), F(1, 2))])
    path = tmp_path / "pts.txt"
    write_points(ps, path)
    assert read_points(path) == ps


def test_points_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(ParseError):
        read_points(path)
    path.write_text("2 1 6\n1 x\n")
    with pytest.raises(ParseError) as err:
        read_points(path)
    assert str(err.value).startswith(f"{path}:2:")
    path.write_text("2 1 6\n1 7\n")
    with pytest.raises(ParseError):
        read_points(path)
    path.write_text("2 2 6\n1 2\n")
    with pytest.raises(ParseError):
        read_points(path)
    # a line past the header's count is refused at its own line
    path.write_text("1 2 4\n0\n1\n3\n")
    with pytest.raises(ParseError) as err:
        read_points(path)
    assert str(err.value) == f"{path}:4: expected 2 point lines, got more"
    path.write_text("1 2 4\n0\n1\n\n  \n")
    assert len(read_points(path)) == 2  # blank trailing lines are accepted
    for header in ("0 1 4", "1 -1 4", "1 1 0"):
        path.write_text(header + "\n0\n")
        with pytest.raises(ParseError) as err:
            read_points(path)
        d, n, denom = header.split()
        assert str(err.value) == f"{path}:1: invalid header d={d} n={n} D={denom}"


def test_matrix_roundtrip(tmp_path):
    m = SymbolMatrix(((0, 1, 2, 0), (2, 1, 0, 1)), 3)
    path = tmp_path / "m.txt"
    write_matrix(m, path)
    assert read_matrix(path) == m


def test_matrix_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 2\n0 1\n0 5\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert ":3:" in str(err.value)
    path.write_text("1 2 2\n0 1\n\n1 0\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert str(err.value) == f"{path}:4: expected 1 matrix rows, got more"
    path.write_text("1 2 2\n0 1\n\n")
    assert read_matrix(path).rows == ((0, 1),)
    for text, message in [
        ("", "1: empty matrix file"),
        ("2 2\n", "1: expected 3 header fields (c d k), got 2"),
        ("0 2 2\n", "1: invalid header c=0 d=2 k=2"),
        ("2 2 2\n0 1\n", "2: expected 2 matrix rows"),
        ("1 2 2\n0 x\n", "2: non-integer entries"),
    ]:
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert str(err.value) == f"{path}:{message}"


def test_certificate_roundtrip_box(tmp_path):
    witnesses = {
        0b01: Box((Arc(F(0), F(1, 4)), Arc(F(1, 2), F(3, 4)))),
        0b10: Box((Arc(F(3, 4), F(1, 8)), Arc(F(0), F(1, 2)))),
    }
    path = tmp_path / "cert.txt"
    write_certificate(witnesses, 2, 2, path)
    dim, n_points, _, kind, back = read_certificate(path)
    assert (dim, n_points, kind) == (2, 2, "box")
    assert back == witnesses


def test_certificate_roundtrip_cube(tmp_path):
    witnesses = {
        0: Cube((Arc(F(0), F(1, 3)), Arc(F(1, 2), F(5, 6)))),
    }
    path = tmp_path / "cert.txt"
    write_certificate(witnesses, 2, 1, path)
    _, _, _, kind, back = read_certificate(path)
    assert kind == "cube"
    assert back == witnesses
    assert back[0].edge == F(1, 3)


def test_certificate_roundtrip_stripe(tmp_path):
    witnesses = {
        3: Stripe(1, Arc(F(5, 6), F(1, 3), closed=False), 4),
    }
    path = tmp_path / "cert.txt"
    write_certificate(witnesses, 4, 2, path)
    _, _, _, kind, back = read_certificate(path)
    assert kind == "stripe"
    assert back[3].arc == witnesses[3].arc
    assert back[3].anchor_dim == 1


def test_certificate_refuses_mixed_or_empty(tmp_path):
    path = tmp_path / "cert.txt"
    with pytest.raises(ValueError):
        write_certificate({}, 2, 2, path)
    mixed = {
        0: Box((Arc(F(0), F(1, 2)),)),
        1: Stripe(0, Arc(F(0), F(1, 2), closed=False), 1),
    }
    with pytest.raises(ValueError):
        write_certificate(mixed, 1, 1, path)


def test_certificate_parse_errors(tmp_path):
    path = tmp_path / "cert.txt"
    path.write_text("2 2 8 pyramid\n")
    with pytest.raises(ParseError):
        read_certificate(path)
    path.write_text("2 2 8 box\nmask=1 shape=0 4 ; 2\n")
    with pytest.raises(ParseError) as err:
        read_certificate(path)
    assert ":2:" in str(err.value)
    for text, message in [
        ("", "1: empty certificate file"),
        ("2 2 8\n", "1: expected header 'd n D kind'"),
        ("2 x 8 box\n", "1: non-integer header field"),
        # the header is held to the writer's spelling too: str(int(field))
        ("+1 2 0_4 box\nmask=1 shape=0 ; 1\n", "1: non-integer header field"),
        ("02 2 8 box\n", "1: non-integer header field"),
        ("2 2 \u0668 box\n", "1: non-integer header field"),
        ("1 -0 4 box\nmask=1 shape=0 ; 1\n", "1: non-integer header field"),
        ("2 2 8 box\nmask=1 0 4 ; 2 2\n", "2: malformed certificate line"),
        ("2 2 8 box\nmask=zz shape=0 4 ; 2 2\n", "2: malformed certificate line"),
        ("2 2 8 box\nmask=1 shape=0 4 ; 2 8\n", "2: arc length 1 outside (0,1)"),
        ("2 2 8 stripe\nmask=1 shape=0 4 ; 2 3\n", "2: stripe shape needs 'anchor start ; length'"),
        ("2 2 8 box\nmask=1 shape=0 4 ; 2\n", "2: expected 2 arc lengths, got 1"),
        ("2 2 8 box\nmask=1 shape=0 ; 2 2\n", "2: expected 2 arc starts, got 1"),
        ("2 2 8 cube\nmask=1 shape=0 4 ; 2 2\n", "2: cube shape needs a single edge numerator"),
        # only what write_certificate writes: 'mask=', lowercase hex, plain
        # decimal numerators and starts in [0, D)
        ("1 2 4 box\n0 shape=0 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=0x1 shape=0 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=1_0 shape=0 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=+1 shape=0 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=A shape=0 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask= shape=0 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=1 shape=+0 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=1 shape=0 ; 0_1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=1 shape=0 ; \u0661\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=1 shape=-4 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=1 shape=100 ; 1\n", "2: arc start 25 outside [0,1)"),
        ("1 2 4 box\nmask=1 shape=4 ; 1\n", "2: arc start 1 outside [0,1)"),
        ("1 2 4 stripe\nmask=1 shape=-0 0 ; 1\n", "2: malformed certificate line"),
        # no numeral has a leading zero, so each number has one spelling
        ("1 2 4 box\nmask=00 shape=0 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=01 shape=0 ; 1\n", "2: malformed certificate line"),
        ("1 2 16 box\nmask=1 shape=012 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=1 shape=0 ; 01\n", "2: malformed certificate line"),
        ("2 2 4 stripe\nmask=1 shape=01 0 ; 1\n", "2: malformed certificate line"),
        ("2 2 4 stripe\nmask=1 shape=1 00 ; 1\n", "2: malformed certificate line"),
        ("1 2 4 box\nmask=0 shape=1 ; 1\nmask=1 shape=01 ; 1\n", "3: malformed certificate line"),
        # a start read on an earlier line is checked again with a new length
        ("1 2 4 box\nmask=0 shape=1 ; 2\nmask=1 shape=1 ; 4\n", "3: arc length 1 outside (0,1)"),
        ("2 2 4 cube\nmask=0 shape=1 3 ; 2\nmask=1 shape=3 1 ; 4\n", "3: arc length 1 outside (0,1)"),
    ]:
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_certificate(path)
        assert str(err.value) == f"{path}:{message}"


def test_fileio_imports_no_prover():
    # the certificate reader may not lean on a prover: follow fileio's
    # imports through the package
    src = Path(torusvc.__file__).parent
    todo, reached = ["fileio"], set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    todo.append(node.module)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):  # only relative ones reach in
                    assert "torusvc" not in ast.unparse(node), (name, ast.unparse(node))
    assert not reached & {"lifting", "shatter", "vcsearch"}, reached


def test_certificate_reader_builds_each_distinct_arc_once(tmp_path):
    arc, other = Arc(F(0), F(1, 3)), Arc(F(1, 2), F(5, 6))
    witnesses = {0: Cube((arc, other)), 1: Cube((other, arc)), 2: Cube((arc, arc))}
    path = tmp_path / "cert.txt"
    write_certificate(witnesses, 2, 2, path)
    _, _, denom, _, back = read_certificate(path)
    assert denom == 6 and back == witnesses
    assert len({id(a) for cube in back.values() for a in cube.arcs}) == 2


def test_certificate_reader_keys_each_start_under_its_edge(tmp_path):
    # start 0 under edges 1/3 and 1/2: one start text, two arcs
    witnesses = {0: Cube((Arc(F(0), F(1, 3)), Arc(F(1, 3), F(2, 3)))),
                 1: Cube((Arc(F(1, 2), F(0)), Arc(F(0), F(1, 2))))}
    path = tmp_path / "cert.txt"
    write_certificate(witnesses, 2, 2, path)
    assert path.read_text().splitlines()[1:] == ["mask=0 shape=0 2 ; 2", "mask=1 shape=3 0 ; 3"]
    _, _, denom, _, back = read_certificate(path)
    assert denom == 6 and back == witnesses
    assert back[0].arcs[0] != back[1].arcs[1] and back[1].arcs[1].length == F(1, 2)


def test_certificate_numerators_are_exact_for_large_denominators(tmp_path):
    # 1/(2^60 + 1) and its neighbours: numerators stay exact integers
    big = (1 << 60) + 1
    witnesses = {0: Box((Arc(F(1, big), F(3, big)), Arc(F(big - 1, big), F(1, 2))))}
    path = tmp_path / "cert.txt"
    write_certificate(witnesses, 2, 1, path)
    assert path.read_text().splitlines()[1] == f"mask=0 shape=2 {2 * big - 2} ; 4 {big + 2}"
    assert read_certificate(path)[4] == witnesses


@pytest.mark.parametrize("oracle", [realizable_by_box, realizable_by_cube,
                                    realizable_by_any_stripe,
                                    lambda ps, mask: realizable_by_stripe(ps, mask, F(1, 3))])
def test_certificate_bytes_match_the_dict_writer(tmp_path, oracle):
    # a witness of every mask the family realizes: many shapes sharing a
    # few arcs, over several arc denominators
    rng = random.Random(7)
    for _ in range(4):
        ps = random_point_set(rng, 5, 2, rng.choice((4, 6)))
        found = {mask: oracle(ps, mask) for mask in range(1 << len(ps))}
        witnesses = {mask: shape for mask, shape in found.items() if shape is not None}
        assert len(witnesses) > 8
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_certificate(witnesses, ps.dim, len(ps), got)
        reference_certificate.write_certificate(witnesses, ps.dim, len(ps), want)
        assert got.read_bytes() == want.read_bytes()
        assert read_certificate(got)[4] == witnesses


def test_streamed_certificate_refuses_what_it_cannot_write(tmp_path):
    path = tmp_path / "cert.txt"
    with pytest.raises(ValueError, match="empty certificate"):
        write_certificate(iter([]), 1, 1, path, 1)
    assert not path.exists()
    box = Box((Arc(F(0), F(1, 3)),))
    with pytest.raises(ValueError, match="mixed shape kinds"):
        write_certificate(iter([(0, box), (1, Cube((Arc(F(0), F(1, 3)),)))]), 1, 1, path, 3)
    write_certificate(iter([(0, box), (1, box)]), 1, 1, path, 6)
    assert path.read_text() == "1 1 6 box\nmask=0 shape=0 ; 2\nmask=1 shape=0 ; 2\n"


def test_streamed_certificate_refuses_a_denominator_an_arc_does_not_divide(tmp_path):
    # s * (denom // q) over denom 4 would write the edge 1/3 as 1/4
    path = tmp_path / "cert.txt"
    cube = Cube((Arc(F(0), F(1, 3)),))
    with pytest.raises(ValueError, match="denominator 4 is not a multiple of an arc's 3"):
        write_certificate(iter([(1, cube)]), 1, 1, path, 4)
    write_certificate(iter([(1, cube)]), 1, 1, path, 6)
    assert read_certificate(path)[4] == {1: cube}
