import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from torusvc.cli import run
from torusvc.extraction import SymbolMatrix
from torusvc.fileio import read_points, write_matrix, write_points
from torusvc.torus import PointSet

F = Fraction


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


def test_usage_errors():
    code, _, err = cli("shatter")
    assert code == 2
    code, _, err = cli("no-such-command")
    assert code == 2
    code, _, err = cli("shatter", "nope.txt", "--family", "boxes")
    assert code == 2  # missing file
    code, _, err = cli("bounds", "--d-list", "2,x")
    assert code == 2


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


def test_stripes_build_then_shatter(tmp_path):
    out_path = str(tmp_path / "built.txt")
    code, out, _ = cli("stripes-build", "--n", "2", "--l", "1/2", "-o", out_path)
    assert code == 0
    ps = read_points(out_path)
    assert ps.dim == 4 and len(ps) == 3
    code, _, _ = cli("shatter", out_path, "--family", "stripes", "--l", "1/2")
    assert code == 0


def test_extract_check_exit_codes(tmp_path):
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
