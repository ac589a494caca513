import numpy as np
import pytest

from degenmfem.cli import main


def _run(argv):
    return main(argv)


def test_theory_subcommand(capsys):
    code = _run(["theory", "--tol", "1e-3", "--tau", "0.05"])
    assert code == 0
    out = capsys.readouterr().out
    assert "L = ceil(1/delta)   = 19" in out
    assert "C(alpha)            = 0.0740741" in out
    assert "delta (closed form) = 0.0552605" in out


def test_theory_with_eps(capsys):
    code = _run(["theory", "--tol", "1e-4", "--tau", "0.025", "--eps", "1e-4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "L = ceil(1/delta)   = 50" in out
    assert "regularized-L value = 50" in out


@pytest.mark.parametrize(
    "argv",
    [
        # hl takes no eps
        ["solve", "--scheme", "hl", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--eps", "1e-3"],
        # newton takes no L
        ["solve", "--scheme", "newton", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--eps", "1e-3", "--L", "5"],
        # lreg requires eps
        ["solve", "--scheme", "lreg", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3"],
        # unknown scheme / table
        ["solve", "--scheme", "picard", "--tau", "0.25", "--steps", "2",
         "--tol", "1e-3"],
        ["tables", "--which", "7"],
        # missing required flags
        ["solve", "--scheme", "hl"],
        # bad values
        ["solve", "--scheme", "hl", "--n", "0", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3"],
        ["theory", "--tol", "1e-3", "--tau", "0.05", "--alpha", "1.0"],
        # rejected by the scheme config, before the reference run
        ["solve", "--scheme", "hl", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--L", "-1"],
        ["solve", "--scheme", "lreg", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--eps", "1e-3", "--L", "0"],
        ["solve", "--scheme", "lreg", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--eps", "1e-3", "--shift", "-0.5"],
        ["solve", "--scheme", "hl", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--reg-kind", "quadratic"],
        # non-finite values
        ["solve", "--scheme", "newton", "--n", "2", "--tau", "nan",
         "--steps", "2", "--tol", "1e-3", "--eps", "1e-3"],
        ["solve", "--scheme", "newton", "--n", "2", "--tau", "inf",
         "--steps", "2", "--tol", "1e-3", "--eps", "1e-3"],
        ["solve", "--scheme", "hl", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "nan"],
        ["solve", "--scheme", "hl", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--L", "nan"],
        ["solve", "--scheme", "newton", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--eps", "nan"],
        ["solve", "--scheme", "lreg", "--n", "2", "--tau", "0.25",
         "--steps", "2", "--tol", "1e-3", "--eps", "1e-3", "--shift", "inf"],
        ["theory", "--tol", "nan", "--tau", "0.05"],
        ["theory", "--tol", "1e-3", "--tau", "inf"],
        # tol * tau underflows, so 1/delta would divide by zero
        ["theory", "--tol", "1e-300", "--tau", "1e-300"],
        # theory prints nothing when its last flag is bad
        ["theory", "--tol", "1e-3", "--tau", "0.05", "--eps", "-1"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as info:
        _run(argv)
    assert info.value.code == 1
    assert capsys.readouterr().out == ""


def test_solve_hl_smoke(tmp_path, capsys):
    code = _run(["solve", "--scheme", "hl", "--n", "4", "--tau", "0.25",
                 "--steps", "2", "--tol", "1e-3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "L = 11" in out  # ceil(1/delta) for tol=1e-3, tau=0.25
    assert "converged = true" in out
    csv_text = (tmp_path / "solve_result.csv").read_text()
    assert csv_text.startswith(
        "scheme,tol,eps,tau,L,total_iterations,per_step,converged")
    assert ",true" in csv_text
    report = (tmp_path / "solve_report.txt").read_text()
    assert "scheme = hl" in report
    assert "step" in report


def test_solve_reports_nc_with_exit_2(tmp_path, capsys):
    # A coarse regularization cannot reach a 1e-9 tolerance; the newton
    # run must report nc and exit 2.
    code = _run(["solve", "--scheme", "newton", "--n", "4", "--tau", "0.25",
                 "--steps", "2", "--tol", "1e-9", "--eps", "1e-2",
                 "--out", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert "converged = false" in out
    assert "max_iterations" in out or "divergence" in out
    csv_text = (tmp_path / "solve_result.csv").read_text()
    assert ",false" in csv_text


def test_solve_deterministic_outputs(tmp_path):
    args = ["solve", "--scheme", "lreg", "--n", "2", "--tau", "0.25",
            "--steps", "2", "--tol", "1e-3", "--eps", "1e-3"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run(args + ["--out", str(out_a)]) == 0
    assert _run(args + ["--out", str(out_b)]) == 0
    assert (out_a / "solve_result.csv").read_bytes() == \
        (out_b / "solve_result.csv").read_bytes()
    assert (out_a / "solve_report.txt").read_bytes() == \
        (out_b / "solve_report.txt").read_bytes()


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DEGENMFEM_OUT", str(tmp_path / "envdir"))
    code = _run(["solve", "--scheme", "hl", "--n", "2", "--tau", "0.25",
                 "--steps", "1", "--tol", "1e-2"])
    assert code == 0
    assert (tmp_path / "envdir" / "solve_result.csv").exists()


def test_tables_hl_smoke(tmp_path, capsys):
    code = _run(["tables", "--which", "5", "--n", "2", "--out", str(tmp_path)])
    assert code == 0
    csv_lines = (tmp_path / "table5.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 10  # header + 3 TOL x 3 tau
    assert all(line.startswith("hl,") for line in csv_lines[1:])
    summary = (tmp_path / "summary.txt").read_text()
    assert "table 5 (hl)" in summary


HL_REPORT = """\
degenmfem solve report
scheme = hl
n = 8
tau = 0.1
steps = 3
tol = 0.0001
L = 31
converged = true
total_iterations = 202

step  t        iterations  converged  reason
   1  0.1              68       true  -
   2  0.2              67       true  -
   3  0.3              67       true  -
"""

LREG_REPORT = """\
degenmfem solve report
scheme = lreg
n = 8
tau = 0.1
steps = 3
tol = 0.0001
eps = 0.001
reg_kind = linear
shift = 0
L = 16
converged = true
total_iterations = 106

step  t        iterations  converged  reason
   1  0.1              36       true  -
   2  0.2              35       true  -
   3  0.3              35       true  -
"""

NEWTON_REPORT = """\
degenmfem solve report
scheme = newton
n = 8
tau = 0.1
steps = 3
tol = 0.0001
eps = 0.001
reg_kind = linear
shift = 0
converged = true
total_iterations = 8

step  t        iterations  converged  reason
   1  0.1               3       true  -
   2  0.2               3       true  -
   3  0.3               2       true  -
"""


# Byte-for-byte outputs of four small solves; the quadratic run's report
# is not pinned, only its nc row.
@pytest.mark.parametrize(
    "flags,code,row,report",
    [
        (["--scheme", "hl"], 0,
         "hl,1e-04,,0.1,31,202,67.3333,true", HL_REPORT),
        (["--scheme", "lreg", "--eps", "1e-3"], 0,
         "lreg,1e-04,1e-03,0.1,16,106,35.3333,true", LREG_REPORT),
        (["--scheme", "newton", "--eps", "1e-3"], 0,
         "newton,1e-04,1e-03,0.1,,8,2.66667,true", NEWTON_REPORT),
        (["--scheme", "lreg", "--eps", "1e-3", "--L", "50",
          "--reg-kind", "quadratic", "--shift", "0.01"], 2,
         "lreg,1e-04,1e-03,0.1,50,,,false", None),
    ],
    ids=["hl", "lreg", "newton", "lreg-quadratic"],
)
def test_solve_outputs_pinned(tmp_path, capsys, flags, code, row, report):
    argv = ["solve", *flags, "--n", "8", "--tau", "0.1", "--steps", "3",
            "--tol", "1e-4", "--out", str(tmp_path)]
    assert _run(argv) == code
    assert (tmp_path / "solve_result.csv").read_bytes() == (
        "scheme,tol,eps,tau,L,total_iterations,per_step,converged\n"
        f"{row}\n").encode()
    if report is not None:
        assert (tmp_path / "solve_report.txt").read_bytes() == report.encode()
        assert capsys.readouterr().out == report
