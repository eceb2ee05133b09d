import argparse
import hashlib
import inspect
import io
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import reference_certificate
from torusvc import cli as cli_module
from torusvc import bounds, extraction, vcsearch
from torusvc.cli import build_parser, run
from torusvc.extraction import SymbolMatrix, superdiagonal_matrix
from torusvc.fileio import read_matrix, read_points, write_matrix, write_points
from torusvc.lifting import cube_witness, lift_points, sample_masks
from torusvc.shatter import KINDS, Family
from torusvc.torus import PointSet

F = Fraction
SRC = Path(cli_module.__file__).resolve().parents[1]


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_demo_points(tmp_path):
    ps = PointSet.from_coords(
        [(F(0), F(0)), (F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))]
    )
    path = tmp_path / "pts.txt"
    write_points(ps, path)
    return str(path)


def write_lift_inputs(tmp_path):
    code, _, _ = cli(
        "stripes-build", "--n", "2", "--l", "1/2",
        "-o", str(tmp_path / "base.txt"),
    )
    assert code == 0
    row = (0, 1, 2, 3, 0, 1, 2, 3)
    write_matrix(SymbolMatrix((row, row), 4), tmp_path / "matrix.txt")
    return str(tmp_path / "base.txt"), str(tmp_path / "matrix.txt")


def subcommands(parser):
    """The subcommand parsers of a torusvc parser, by name."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_usage_errors():
    code, _, err = cli("shatter")
    assert code == 2
    code, _, err = cli("no-such-command")
    assert code == 2
    code, _, err = cli("shatter", "nope.txt", "--family", "boxes")
    assert code == 2  # missing file
    code, _, err = cli("bounds", "--d-list", "2,x")
    assert code == 2


def test_console_script_entry_exits_with_the_run_code(tmp_path):
    # main, run as a program, as the installed torusvc script runs it
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "torusvc.cli"]
    done = subprocess.run([*argv, "bounds", "--d-list", "1,2"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, (
        "d\tstripe_ub\ttrivial_ub\trefined_ub\tlower_bound\n"
        "1\t5\t5\t6\tna\n"
        "2\t7\t16\t16\tna\n"))
    missing = str(tmp_path / "missing.txt")
    done = subprocess.run([*argv, "shatter", missing, "--family", "boxes"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: [Errno 2] No such file or directory: {missing!r}\n")


def test_parser_is_built_once_and_parses_like_a_fresh_one(tmp_path):
    pts = write_demo_points(tmp_path)
    argvs = [("shatter",), ("no-such-command",), ("--help",), ("growth", pts, "--family", "cubes"),
             ("vc-exact", "--d", "1", "--family", "boxes", "--l", "1/2")]
    fresh = []
    for argv in argvs:
        cli_module._parser.cache_clear()
        fresh.append(catching_exit(*argv))
    # the last fresh parser then serves every later run, with the same output
    assert [catching_exit(*argv) for argv in argvs] == fresh
    assert [catching_exit(*argv) for argv in argvs] == fresh
    info = cli_module._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(argvs))


def catching_exit(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # --help exits from inside argparse
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


def test_shatter_exit_codes(tmp_path):
    pts = write_demo_points(tmp_path)
    code, out, _ = cli("shatter", pts, "--family", "boxes")
    assert code == 0
    assert "shattered n=3" in out
    code, out, _ = cli("shatter", pts, "--family", "stripes", "--l", "1/100")
    assert code == 1
    assert "missing-mask" in out
    # stripes family demands --l, others refuse it
    assert cli("shatter", pts, "--family", "stripes")[0] == 2
    assert cli("shatter", pts, "--family", "boxes", "--l", "1/2")[0] == 2


def test_growth(tmp_path):
    pts = write_demo_points(tmp_path)
    code, out, _ = cli("growth", pts, "--family", "boxes")
    assert code == 0
    assert out.strip() == "8"
    extra = tmp_path / "extra.txt"
    extra.write_text("1 2 4\n0\n1\n3\n")  # three points under a header of two
    assert cli("growth", str(extra), "--family", "boxes") == (
        2, "", f"error: {extra}:4: expected 2 point lines, got more\n")


def test_stripes_build_then_shatter(tmp_path):
    out_path = str(tmp_path / "built.txt")
    code, out, _ = cli("stripes-build", "--n", "2", "--l", "1/2", "-o", out_path)
    assert code == 0
    ps = read_points(out_path)
    assert ps.dim == 4 and len(ps) == 3
    code, _, _ = cli("shatter", out_path, "--family", "stripes", "--l", "1/2")
    assert code == 0


def test_stripes_build_refuses_constructions_it_cannot_build(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("the guard must refuse before anything is built")

    monkeypatch.setattr(cli_module, "build_stripe_shattered_set", never)
    out_path = tmp_path / "huge.txt"
    for argv in (("--n", "40"), ("--n", "1", "--ambient-dim", "1000000000")):
        assert cli("stripes-build", *argv, "--l", "1/2", "-o", str(out_path)) == (
            3, "", "refused: stripes-build guard: (n+1) * max(2^n, ambient dimension) "
                   "coordinates > 1048576\n")
    assert not out_path.exists()


def test_extract_check_exit_codes(tmp_path, monkeypatch):
    good = tmp_path / "good.txt"
    write_matrix(SymbolMatrix(((0, 1, 1, 0), (1, 0, 0, 1)), 2), good)
    assert cli("extract-check", str(good))[0] == 0
    assert cli("extract-check", str(good), "--mode", "exhaustive")[0] == 0
    bad = tmp_path / "bad.txt"
    write_matrix(SymbolMatrix(((0, 1), (0, 1)), 2), bad)
    code, out, _ = cli("extract-check", str(bad), "--mode", "exhaustive")
    assert code == 1
    assert "fails" in out
    huge = tmp_path / "huge.txt"
    write_matrix(SymbolMatrix(tuple((0,) * 30 for _ in range(30)), 3), huge)
    code, _, err = cli("extract-check", str(huge), "--mode", "exhaustive")
    assert code == 3
    assert "refused" in err
    monkeypatch.setattr(extraction, "WITNESS_NODE_BUDGET", 10)
    write_matrix(superdiagonal_matrix(16), huge)
    assert cli("extract-check", str(huge)) == (
        3, "", "refused: witness check guard: more than 10 search nodes\n")


def test_extract_check_on_deep_matrices_never_recurses_past_the_stack(tmp_path):
    # one symbol, so k^c = 1: every row is a level of the exhaustive prefix
    # search and of its augmenting paths
    path = tmp_path / "deep.txt"
    for c in (500, 1500):
        write_matrix(SymbolMatrix(((0,) * c,) * c, 1), path)
        assert cli("extract-check", str(path)) == (0, "holds\n", "")
        assert cli("extract-check", str(path), "--mode", "exhaustive") == (
            3, "", f"refused: exhaustive check guard: c = {c} rows > 200\n")
    write_matrix(SymbolMatrix(((0,) * 499,) * 500, 1), path)
    assert cli("extract-check", str(path)) == (
        1, f"fails witness U={list(range(500))} V={list(range(499))}\n", "")
    # at the row guard: a 200-deep prefix walk, and with 199 columns a
    # 199-deep augmenting path below it
    write_matrix(SymbolMatrix(((0,) * 200,) * 200, 1), path)
    assert cli("extract-check", str(path), "--mode", "exhaustive") == (0, "holds\n", "")
    write_matrix(SymbolMatrix(((0,) * 199,) * 200, 1), path)
    assert cli("extract-check", str(path), "--mode", "exhaustive") == (
        1, f"fails word={' '.join(['0'] * 200)}\n"
           f"fails witness U={list(range(200))} V={list(range(199))}\n", "")


def test_extract_sample(tmp_path):
    out_path = str(tmp_path / "m.txt")
    code, out, _ = cli(
        "extract-sample", "--m", "2", "--k", "2", "--q", "2",
        "--seed", "0", "-o", out_path,
    )
    assert code == 0
    assert "found after" in out
    from torusvc.fileio import read_matrix

    m = read_matrix(out_path)
    assert m.n_rows == 4 and m.n_cols == 8 and m.is_balanced()
    # the first matrix drawn from seed 0 lacks the property
    missing = tmp_path / "none.txt"
    assert cli("extract-sample", "--m", "1", "--k", "4", "--q", "2", "--seed", "0",
               "--max-trials", "1", "-o", str(missing)) == (1, "exhausted after 1 trials\n", "")
    assert not missing.exists()


def test_lift_certify_verify_pipeline(tmp_path):
    base, matrix = write_lift_inputs(tmp_path)
    lifted = str(tmp_path / "lifted.txt")
    code, out, _ = cli("lift", "--points", base, "--matrix", matrix,
                       "--l", "1/2", "-o", lifted)
    assert code == 0
    assert read_points(lifted).dim == 8

    cert = str(tmp_path / "cert.txt")
    code, out, _ = cli("certify-lift", "--points", base, "--matrix", matrix,
                       "--l", "1/2", "-o", cert)
    assert code == 0
    assert "certified 64 masks" in out

    code, out, _ = cli("verify-cert", lifted, cert)
    assert code == 0
    assert "verified 64 masks" in out
    # a blank line between certificate lines is skipped
    path = tmp_path / "cert.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + ["\n", "  \n"] + lines[5:]))
    assert cli("verify-cert", lifted, cert) == (0, out, "")


def test_certify_lift_refusals(tmp_path):
    base, _ = write_lift_inputs(tmp_path)
    # both rows hold symbols 1, 2 and 3 in one shared column each, so an
    # anchor word repeating one of them cannot be matched
    matrix = tmp_path / "bad-matrix.txt"
    row = (0, 1, 2, 3, 0, 0, 0, 0)
    write_matrix(SymbolMatrix((row, row), 4), matrix)
    cert = tmp_path / "cert.txt"
    argv = ("certify-lift", "--points", base, "--matrix", str(matrix), "--l", "1/2",
            "-o", str(cert))
    assert cli(*argv) == (
        1, "lift verification failed on 12 masks: 9, e, 12, 15, 1b, 1c, 23, 24\n", "")
    assert not cert.exists()
    # exhaustive is the mode without --sample; no flag selects it
    code, out, err = cli(*argv, "--exhaustive")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --exhaustive\n")


def test_every_cli_option_is_read():
    parser = cli_module.build_parser()
    # --jobs is the documented no-op, kept for interface compatibility; the
    # subcommand's own dest only names it in usage errors, its handler is read
    unread = [a.dest for a in parser._actions if a.dest not in ("help", "jobs", "command")]
    for name, sub in subcommands(parser).items():
        source = inspect.getsource(sub.get_default("handler"))
        for helper in (cli_module._family_from_args, cli_module._lift_from_args):
            if f"{helper.__name__}(args)" in source:
                source += inspect.getsource(helper)
        unread += [f"{name} {a.dest}" for a in sub._actions
                   if a.dest != "help" and not re.search(rf"\bargs\.{a.dest}\b", source)]
    assert "args.handler(args)" in inspect.getsource(cli_module.run)
    assert unread == []


def test_every_subcommand_has_its_handler():
    handlers = {name: sub.get_default("handler")
                for name, sub in subcommands(build_parser()).items()}
    assert handlers == {name: getattr(cli_module, "_cmd_" + name.replace("-", "_"))
                        for name in handlers}
    # and no handler is left without its subcommand
    assert sorted(f.__name__ for f in handlers.values()) == sorted(
        name for name in vars(cli_module) if name.startswith("_cmd_"))


def test_tampered_certificate_rejected(tmp_path):
    base, matrix = write_lift_inputs(tmp_path)
    lifted = str(tmp_path / "lifted.txt")
    cert = tmp_path / "cert.txt"
    assert cli("lift", "--points", base, "--matrix", matrix,
               "--l", "1/2", "-o", lifted)[0] == 0
    assert cli("certify-lift", "--points", base, "--matrix", matrix,
               "--l", "1/2", "-o", str(cert))[0] == 0
    lines = cert.read_text().splitlines()
    assert lines[1].startswith("mask=0 ") and lines[2].startswith("mask=1 ")
    # give mask 0 the witness shape of mask 1
    lines[1] = "mask=0 shape=" + lines[2].split(" shape=")[1]
    cert.write_text("\n".join(lines) + "\n")
    code, out, _ = cli("verify-cert", lifted, str(cert))
    assert code == 1
    assert "fails" in out


def test_certificate_for_wrong_points(tmp_path):
    base, matrix = write_lift_inputs(tmp_path)
    cert = str(tmp_path / "cert.txt")
    assert cli("certify-lift", "--points", base, "--matrix", matrix,
               "--l", "1/2", "-o", cert)[0] == 0
    code, _, err = cli("verify-cert", base, cert)
    assert code == 1


def test_bounds_table_output():
    code, out, _ = cli("bounds", "--d-list", "1,4,16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == [
        "d", "stripe_ub", "trivial_ub", "refined_ub", "lower_bound"
    ]
    assert len(lines) == 4
    assert lines[1].split("\t")[0] == "1"
    assert lines[1].split("\t")[4] == "na"


def test_vc_exact_cli():
    code, out, _ = cli("vc-exact", "--d", "1", "--family", "boxes")
    assert code == 0
    assert out.strip() == "3"
    # the seeded one-point frontier passes the size checks first
    assert cli("vc-exact", "--d", "3", "--family", "boxes", "--n-max", "1") == (
        3, "", "refused: enumerate_configs guard: d=3 > 2\n")
    assert cli("vc-exact", "--d", "0", "--family", "boxes", "--n-max", "1") == (
        2, "", "error: d and n must be positive\n")


def test_vc_exact_values_in_the_plane():
    assert cli("vc-exact", "--d", "2", "--family", "stripes-any") == (0, "5\n", "")
    assert cli("vc-exact", "--d", "2", "--family", "cubes") == (0, "6\n", "")


def test_vc_exact_prints_no_value_below_the_superfamily_value():
    # stripes of length 1/2 shatter {0, 1/4}, but the level/n realizations
    # find only one point, against 3 for stripes of any length
    assert cli("vc-exact", "--d", "1", "--family", "stripes", "--l", "1/2") == (
        1, "", "1 <= VC <= 3\n")


def test_family_choices_are_the_family_kinds():
    parsers = subcommands(build_parser())
    for command in ("shatter", "growth", "vc-exact"):
        family = next(a for a in parsers[command]._actions if a.dest == "family")
        assert family.choices == KINDS
    assert KINDS == ("boxes", "cubes", "stripes", "stripes-any")
    for kind in KINDS:
        assert Family(kind, F(1, 2) if kind == "stripes" else None).kind == kind


def test_mode_choices_are_the_checker_modes():
    mode = next(a for a in subcommands(build_parser())["extract-check"]._actions
                if a.dest == "mode")
    assert mode.choices == extraction.MODES == ("exhaustive", "witness")
    two_rows = SymbolMatrix(((0, 1), (0, 1)), 2)  # the word 00 needs column 0 twice
    for name in extraction.MODES:
        assert extraction.check_extraction(superdiagonal_matrix(3), name).holds
        assert not extraction.check_extraction(two_rows, name).holds
    with pytest.raises(ValueError, match="unknown mode 'other'"):
        extraction.check_extraction(superdiagonal_matrix(3), "other")


def test_stripes_length_outside_the_unit_interval_is_a_usage_error(tmp_path):
    points = write_demo_points(tmp_path)
    assert cli("shatter", points, "--family", "stripes", "--l", "2") == (
        2, "", "error: family stripes needs a length in (0,1)\n")


def test_shatter_with_a_fine_stripe_length_scans_only_critical_starts(tmp_path):
    # g = 2 lcm(2, 10^8) grid starts, of which the table scan tries 4
    path = tmp_path / "two.txt"
    path.write_text("1 2 2\n0\n1\n")
    start = time.perf_counter()
    assert cli("shatter", str(path), "--family", "stripes", "--l", "1/100000000") == (
        1, "not shattered missing-mask=3\n", "")
    assert time.perf_counter() - start < 2


def test_vc_exact_rejects_l_outside_stripes():
    code, out, err = cli("vc-exact", "--d", "1", "--family", "boxes", "--l", "1/2")
    assert (code, out) == (2, "")
    assert err == "error: family 'boxes' takes no --l\n"
    code, out, err = cli("vc-exact", "--d", "1", "--family", "stripes")
    assert (code, out) == (2, "")
    assert err == "error: family 'stripes' requires --l\n"


def test_bounds_reasons_go_to_stderr():
    code, out, err = cli("bounds", "--d-list", "1,2,65536,1048576")
    assert code == 0
    assert out == (
        "d\tstripe_ub\ttrivial_ub\trefined_ub\tlower_bound\n"
        "1\t5\t5\t6\tna\n"
        "2\t7\t16\t16\tna\n"
        "65536\t25\t2807686\t1765983\tna\n"
        "1048576\t29\t53860581\t32911522\t6988800\n"
    )
    assert err == (
        "d=1: d too small: it must be at least 2\n"
        "d=2: d too small for f=1: k would be 0\n"
        "d=65536: parameter condition fails\n"
    )


def test_bounds_reports_a_failing_extraction_requirement(monkeypatch):
    # no sampled d that meets the parameter condition fails the requirement, so force it
    monkeypatch.setattr(bounds, "_ext_req_holds", lambda q, m, k: False)
    assert cli("bounds", "--d-list", "1048576") == (
        0,
        "d\tstripe_ub\ttrivial_ub\trefined_ub\tlower_bound\n"
        "1048576\t29\t53860581\t32911522\tna\n",
        "d=1048576: extraction requirement fails\n",
    )


def test_search_cli(tmp_path):
    out_path = str(tmp_path / "found.txt")
    code, out, _ = cli("search", "--d", "2", "--n", "4",
                       "--budget", "3000", "--seed", "0", "-o", out_path)
    assert code == 0
    assert read_points(out_path).dim == 2
    code, out, _ = cli("search", "--d", "1", "--n", "4",
                       "--budget", "100", "--seed", "0")
    assert code == 1


def test_jobs_flag_does_not_change_output(tmp_path):
    pts = write_demo_points(tmp_path)
    runs = [
        cli("--jobs", jobs, "shatter", pts, "--family", "boxes")
        for jobs in ("1", "4")
    ]
    assert runs[0] == runs[1]


def test_certificate_with_repeated_mask_rejected(tmp_path):
    base, matrix = write_lift_inputs(tmp_path)
    lifted = str(tmp_path / "lifted.txt")
    cert = tmp_path / "cert.txt"
    assert cli("lift", "--points", base, "--matrix", matrix,
               "--l", "1/2", "-o", lifted)[0] == 0
    assert cli("certify-lift", "--points", base, "--matrix", matrix,
               "--l", "1/2", "-o", str(cert))[0] == 0
    lines = cert.read_text().splitlines()
    # tamper with mask 0, then repeat its honest line later so that a
    # reader keeping only the last line per mask would never check the lie
    honest = lines[1]
    lines[1] = "mask=0 shape=" + lines[2].split(" shape=")[1]
    cert.write_text("\n".join(lines + [honest]) + "\n")
    code, out, err = cli("verify-cert", lifted, str(cert))
    assert code == 2
    assert out == ""
    assert f":{len(lines) + 1}: repeated mask 0" in err


def certified_lift(tmp_path):
    """The worked lift's points file and certificate path, and the
    certificate's lines."""
    base, matrix = write_lift_inputs(tmp_path)
    lifted = str(tmp_path / "lifted.txt")
    cert = tmp_path / "cert.txt"
    assert cli("lift", "--points", base, "--matrix", matrix, "--l", "1/2", "-o", lifted)[0] == 0
    assert cli("certify-lift", "--points", base, "--matrix", matrix,
               "--l", "1/2", "-o", str(cert))[0] == 0
    return lifted, cert, cert.read_text().splitlines()


def test_verify_cert_parse_error_after_a_failing_line_exits_2(tmp_path):
    lifted, cert, lines = certified_lift(tmp_path)
    lines[1] = "mask=0 shape=" + lines[2].split(" shape=")[1]
    lines[5] = "mask=4 shape=1 2"
    cert.write_text("\n".join(lines) + "\n")
    code, out, err = cli("verify-cert", lifted, str(cert))
    assert (code, out) == (2, "")
    assert err == f"error: {cert}:6: malformed certificate line\n"


def test_verify_cert_names_the_smallest_failing_mask(tmp_path):
    lifted, cert, lines = certified_lift(tmp_path)
    # masks 1 and 3 swap shapes, and mask 3's line moves before mask 1's
    shape = {m: line.split(" shape=")[1] for m, line in ((1, lines[2]), (3, lines[4]))}
    lines[2], lines[4] = f"mask=3 shape={shape[1]}", f"mask=1 shape={shape[3]}"
    cert.write_text("\n".join(lines) + "\n")
    assert cli("verify-cert", lifted, str(cert)) == (1, "mask 1 fails: shape covers 3\n", "")


def test_verify_cert_parse_error_after_a_header_mismatch_exits_2(tmp_path):
    lifted, cert, lines = certified_lift(tmp_path)
    lines[0] = lines[0].replace(" 6 ", " 5 ", 1)
    lines.append("mask=40 shape=")
    cert.write_text("\n".join(lines) + "\n")
    code, out, err = cli("verify-cert", lifted, str(cert))
    assert (code, out) == (2, "")
    assert err == f"error: {cert}:{len(lines)}: malformed certificate line\n"
    assert cli("verify-cert", lifted, str(cert), "--sampled")[0] == 2
    del lines[-1]
    cert.write_text("\n".join(lines) + "\n")
    code, out, err = cli("verify-cert", lifted, str(cert))
    assert (code, out) == (1, "")
    assert err.startswith("certificate is for dimension 8 / 5 points")


def test_certificate_with_nonpositive_denominator_rejected(tmp_path):
    points = tmp_path / "pts.txt"
    points.write_text("1 1 2\n0\n")
    cert = tmp_path / "cert.txt"
    for denom in ("0", "-2"):
        cert.write_text(f"1 1 {denom} box\nmask=1 shape=0 ; 1\n")
        code, out, err = cli("verify-cert", str(points), str(cert))
        assert (code, out) == (2, "")
        assert err == f"error: {cert}:1: invalid header D={denom}\n"


def test_certificate_with_invalid_sizes_rejected(tmp_path):
    points = tmp_path / "pts.txt"
    points.write_text("1 1 2\n0\n")
    cert = tmp_path / "cert.txt"
    for dim, n in (("1", "-1"), ("0", "1")):
        cert.write_text(f"{dim} {n} 2 box\nmask=1 shape=0 ; 1\n")
        code, out, err = cli("verify-cert", str(points), str(cert))
        assert (code, out) == (2, "")
        assert err == f"error: {cert}:1: invalid header d={dim} n={n}\n"


def test_partial_certificate_needs_sampled(tmp_path):
    points = tmp_path / "pts.txt"
    points.write_text("1 1 2\n0\n")
    cert = tmp_path / "cert.txt"
    # mask 1 is witnessed, mask 0 is left out
    cert.write_text("1 1 2 box\nmask=1 shape=0 ; 1\n")
    code, out, err = cli("verify-cert", str(points), str(cert))
    assert (code, out) == (1, "")
    assert err == (
        "certificate holds 1 masks, not each of the 2 masks 0..1 once "
        "(pass --sampled to check a partial certificate)\n"
    )
    assert cli("verify-cert", str(points), str(cert), "--sampled") == (0, "verified 1 masks\n", "")


def test_sampled_lift_certificate_needs_sampled(tmp_path):
    base, matrix = write_lift_inputs(tmp_path)
    lifted = str(tmp_path / "lifted.txt")
    cert = str(tmp_path / "cert.txt")
    assert cli("lift", "--points", base, "--matrix", matrix, "--l", "1/2", "-o", lifted)[0] == 0
    # the seeded sample of 10 draws mask 60 twice: 9 distinct masks are written
    assert cli("certify-lift", "--points", base, "--matrix", matrix, "--l", "1/2",
               "--sample", "10", "--seed", "3", "-o", cert) == (0, "certified 9 masks\n", "")
    code, out, err = cli("verify-cert", lifted, cert)
    assert (code, out) == (1, "")
    assert "pass --sampled" in err
    assert cli("verify-cert", lifted, cert, "--sampled") == (0, "verified 9 masks\n", "")


@pytest.mark.parametrize("sample", [(), ("--sample", "10", "--seed", "3")])
def test_streamed_certificate_bytes_match_the_dict_writer(tmp_path, sample):
    # the seeded sample of 10 draws mask 60 twice, so it holds 9 masks
    base, matrix = write_lift_inputs(tmp_path)
    cert = tmp_path / "cert.txt"
    assert cli("certify-lift", "--points", base, "--matrix", matrix, "--l", "1/2",
               *sample, "-o", str(cert))[0] == 0
    inst = lift_points(read_points(base), read_matrix(matrix), Fraction(1, 2))
    masks = sample_masks(6, 10, 3) if sample else range(64)
    assert len(masks) == (9 if sample else 64)
    want = tmp_path / "want.txt"
    reference_certificate.write_certificate({m: cube_witness(inst, m) for m in masks}, 8, 6, want)
    assert cert.read_bytes() == want.read_bytes()


def test_certify_lift_refuses_a_matching_deeper_than_the_recursion_limit(tmp_path):
    # every row reads 0 1 0 1 ..., so each row's augmenting path runs back
    # through every row matched before it; the recursion limit is lowered
    # to keep the matrix small
    base = str(tmp_path / "base.txt")
    assert cli("stripes-build", "--n", "1", "--l", "1/2", "-o", base)[0] == 0
    matrix = tmp_path / "matrix.txt"
    write_matrix(SymbolMatrix(((0, 1) * 150,) * 200, 2), matrix)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        code, out, err = cli("certify-lift", "--points", base, "--matrix", str(matrix),
                             "--l", "1/2", "--sample", "1", "--seed", "0",
                             "-o", str(tmp_path / "cert.txt"))
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (3, "")
    assert err.startswith("refused: maximum_matching guard: an augmenting path is deeper")
    assert err.count("\n") == 1


def test_certify_lift_refuses_a_sample_past_the_guard(tmp_path, monkeypatch):
    # a range stands in for a drawn sample of 2^24 + 1 masks
    base, matrix = write_lift_inputs(tmp_path)
    monkeypatch.setattr(cli_module, "sample_masks", lambda n, count, seed: range(count))
    assert cli("certify-lift", "--points", base, "--matrix", matrix, "--l", "1/2",
               "--sample", str((1 << 24) + 1), "-o", str(tmp_path / "cert.txt")) == (
        3, "", "refused: verify_lift guard: more than 2^24 masks\n")



def test_certify_lift_refuses_a_large_sample_before_drawing_it(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("a mask was drawn")

    base, matrix = write_lift_inputs(tmp_path)
    monkeypatch.setattr(random.Random, "randrange", never)
    assert cli("certify-lift", "--points", base, "--matrix", matrix, "--l", "1/2",
               "--sample", str((1 << 24) + 1), "-o", str(tmp_path / "cert.txt")) == (
        3, "", "refused: verify_lift guard: more than 2^24 masks\n")


def test_extract_sample_refuses_a_matrix_past_the_guard(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("a row was drawn")

    out_path = tmp_path / "m.txt"
    monkeypatch.setattr(random.Random, "shuffle", never)
    assert cli("extract-sample", "--m", "1000", "--k", "1000", "--q", "1", "-o", str(out_path)) == (
        3, "", "refused: balanced matrix guard: c * d = 1000000000000 entries > 1048576\n")
    assert not out_path.exists()
    monkeypatch.undo()
    # c * d = 4 * 8 entries: refused above a guard of 31, sampled at 32
    monkeypatch.setattr(extraction, "SAMPLE_GUARD_ENTRIES", 31)
    argv = ("extract-sample", "--m", "2", "--k", "2", "--q", "2", "-o", str(out_path))
    assert cli(*argv)[0] == 3
    monkeypatch.setattr(extraction, "SAMPLE_GUARD_ENTRIES", 32)
    assert cli(*argv)[0] == 0


def test_bounds_at_astronomical_d_is_fast():
    start = time.perf_counter()
    code, out, _ = cli("bounds", "--d-list", f"{1 << 100},{1 << 200}")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert [line.split("\t")[0] for line in out.splitlines()[1:]] == [str(1 << 100), str(1 << 200)]


# SHA-256 of the certificates certify-lift wrote before its cube witnesses
# came from per-instance cell tables: the bytes must not move
CERTIFICATE_SHA256 = {
    "worked": "471809ac4b99d23a19b0f3b6560f8dceecd88e2d273db450844ab42365dad466",
    "seed-1": "e9c2e3d571ea81f44ab9748b9c3da813dd6a9f5964e98acfd36159a9075cc157",
    "seed-2": "00eb5abf77c84c34a07ab24ef65847a2a8769ba46e9b525870b0108135812fbf",
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_SHA256))
def test_certify_lift_certificate_bytes_are_pinned(tmp_path, name):
    base, matrix = write_lift_inputs(tmp_path)
    masks = 64
    if name != "worked":
        # a 4 x 8 matrix over 4 symbols drawn by the sampler: 12 lifted points
        code, _, _ = cli("extract-sample", "--m", "1", "--k", "4", "--q", "2",
                         "--seed", name.removeprefix("seed-"), "-o", matrix)
        assert code == 0
        masks = 4096
    cert = tmp_path / "cert.txt"
    assert cli("certify-lift", "--points", base, "--matrix", matrix, "--l", "1/2",
               "-o", str(cert)) == (0, f"certified {masks} masks\n", "")
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == CERTIFICATE_SHA256[name]


# the 21-point lift: 3 points in T^2 over 12, shattered by stripes of length
# 1/2, through the 7 x 8 staircase M[i][j] = [j <= i] over 2 symbols
LIFT21_BASE = "2 3 12\n10 8\n4 6\n6 9\n"
LIFT21_MATRIX = "7 8 2\n" + "".join(
    " ".join("1" if j <= i else "0" for j in range(8)) + "\n" for i in range(7))


def test_lift21_sampled_certificate_round_trip(tmp_path):
    # README gives the full-range commands; 4096 seeded draws cover c = 7,
    # the filler arc of the one unmatched dimension and a sampled denominator
    base, matrix = tmp_path / "base.txt", tmp_path / "stair.txt"
    base.write_text(LIFT21_BASE)
    matrix.write_text(LIFT21_MATRIX)
    lift = ("--points", str(base), "--matrix", str(matrix), "--l", "1/2")
    cert, lifted = tmp_path / "cert.txt", tmp_path / "lifted.txt"
    assert cli("certify-lift", *lift, "--sample", "4096", "--seed", "0", "-o", str(cert)) == (
        0, "certified 4092 masks\n", "")
    assert cert.read_text().startswith("8 21 192 cube\n")
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == (
        "3be20abbdcf75e59606e81c1ffc0d5a7104796151abdcada0298f28eeebb9ee0")
    assert cli("lift", *lift, "-o", str(lifted))[0] == 0
    assert cli("verify-cert", str(lifted), str(cert), "--sampled") == (
        0, "verified 4092 masks\n", "")


def test_search_refuses_more_points_than_a_growth_count(monkeypatch):
    # the guard's own size is still searched
    assert cli("search", "--d", "1", "--n", "20", "--budget", "0")[0] == 1

    def scored(*args):
        raise AssertionError("search built a closure")

    monkeypatch.setattr(vcsearch, "realizable_masks", scored)
    assert cli("search", "--d", "8", "--n", "30", "--budget", "1") == (
        3, "", "refused: search_shattered guard: n=30 > 20\n")


def test_search_rejects_nonpositive_sizes():
    for d, n in (("0", "3"), ("2", "0")):
        code, out, err = cli("search", "--d", d, "--n", n, "--budget", "5")
        assert (code, out, err) == (2, "", "error: d and n must be positive\n")


NEGATIVE_COUNTS = {
    "--max-trials": ("extract-sample", "--m", "1", "--k", "2", "--q", "2", "-o", "m.txt"),
    "--budget": ("search", "--d", "1", "--n", "2"),
    "--sample": ("certify-lift", "--points", "p.txt", "--matrix", "m.txt", "--l", "1/2",
                 "-o", "c.txt"),
}


@pytest.mark.parametrize("option", sorted(NEGATIVE_COUNTS))
def test_negative_count_is_a_usage_error(monkeypatch, option):
    # refused by the parser, before any command runs or reads a file
    parser = build_parser()
    for sub in subcommands(parser).values():
        sub.set_defaults(handler=lambda args: pytest.fail("a handler ran"))
    monkeypatch.setattr(cli_module, "_parser", lambda: parser)
    argv = NEGATIVE_COUNTS[option]
    code, out, err = cli(*argv, option, "-1")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: negative count '-1'\n")
    code, out, err = cli(*argv, option, "x")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: invalid int value: 'x'\n")


def test_lift_length_outside_the_unit_interval_is_a_usage_error(tmp_path):
    base, matrix = write_lift_inputs(tmp_path)
    for command in ("lift", "certify-lift"):
        out_path = tmp_path / f"{command}.txt"
        assert cli(command, "--points", base, "--matrix", matrix, "--l", "2",
                   "-o", str(out_path)) == (2, "", "error: stripe length 2 outside (0,1)\n")
        assert not out_path.exists()
