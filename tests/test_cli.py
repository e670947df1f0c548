"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pspectral
from pspectral import cli, verify
from pspectral.bochner import catalog
from pspectral.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def start_module(*argv):
    """Start `python -m pspectral` in a fresh interpreter, so warnings
    and tracebacks reach stderr as a user would see them."""
    src = str(pathlib.Path(pspectral.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, "-m", "pspectral", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def finish_module(proc, timeout=120):
    """(exit code, stdout, stderr) of a started run; one that outlives
    timeout is killed and fails the test."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail(f"{shlex.join(proc.args[1:])} ran past {timeout} s")
    return proc.returncode, out, err


def run_module(*argv):
    return finish_module(start_module(*argv))


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ------------------------------------------------------------- ptrig

def test_ptrig_pi_row(capsys):
    code, out, _ = run_cli(capsys, "ptrig", "--p", "2", "--fn", "pi")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["p", "pi_p", "quadrature", "rel_diff"]
    assert float(rows[0][1]) == pytest.approx(math.pi, abs=1e-12)
    assert float(rows[0][3]) < 1e-12


def test_ptrig_grid_values(capsys):
    code, out, _ = run_cli(capsys, "ptrig", "--p", "2", "--fn", "sin",
                           "--grid", "0:1:3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "value"]
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    assert float(rows[2][1]) == pytest.approx(math.sin(1.0), rel=1e-12)


def test_ptrig_bad_grid(capsys):
    code, _, err = run_cli(capsys, "ptrig", "--p", "2", "--grid", "oops")
    assert code == 2
    assert "LO:HI:NUM" in err


def test_ptrig_grid_with_negative_lo(capsys):
    for grid in ("-1:1:3", "-.5:0.5:3"):
        code, out, _ = run_cli(capsys, "ptrig", "--p", "2", "--fn", "sin",
                               "--grid", grid)
        assert code == 0, grid
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == -float(rows[2][0]) and float(rows[1][0]) == 0.0


# ------------------------------------------------------------- model

def test_model_trajectory_starts_at_left_endpoint(capsys):
    code, out, _ = run_cli(capsys, "model", "--p", "2", "--n", "2",
                           "--a", "1", "--lambda", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "w", "wdot", "phi", "e"]
    assert float(rows[0][0]) == 1.0
    assert float(rows[0][1]) == -1.0
    # terminal row sits at the critical point: wdot ~ 0, w = max
    assert abs(float(rows[-1][2])) < 1e-10
    assert 0.0 < float(rows[-1][1]) < 1.0


def test_model_json_summary(capsys):
    code, out, _ = run_cli(capsys, "model", "--p", "2", "--n", "3",
                           "--a", "inf", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == pytest.approx(math.pi, rel=1e-12)
    assert doc["m_max"] == pytest.approx(1.0, rel=1e-12)
    assert len(doc["trajectory"]["t"]) == len(doc["trajectory"]["w"])


def test_model_rejects_bad_a(capsys):
    code, _, err = run_cli(capsys, "model", "--p", "2", "--n", "2",
                           "--a", "zzz")
    assert code == 2
    assert "--a" in err


# --------------------------------------------------------- delta-scan

def test_delta_scan_rows(capsys):
    code, out, _ = run_cli(capsys, "delta-scan", "--p", "2", "--n", "3",
                           "--a-values", "0.1,100")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["a", "delta", "m_max", "t0", "b", "status"]
    assert len(rows) == 2
    gaps = [float(r[1]) - math.pi for r in rows]
    assert gaps[0] > gaps[1] > 0.0
    assert all(r[5] == "ok" for r in rows)


def test_delta_scan_float_failure_is_a_row_status():
    # n = 1e300 printed scipy's "overflow encountered in divide"
    # RuntimeWarning for each row
    code, out, err = run_module("delta-scan", "--p", "2", "--n", "1e300",
                                "--a-values", "1,2")
    assert code == 0 and err == "", err
    header, rows = parse_csv(out)
    status = [r[header.index("status")] for r in rows]
    assert len(status) == 2
    assert all(s.startswith("error: solve_model: floating-point failure")
               for s in status), status


# ------------------------------------------------------------ certify

def test_certify_passes_and_writes_grid(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "certify", "--p", "2", "--n", "3",
                           "--a", "1", "--grid-out", str(grid))
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert set(doc["verdict"]) == {"slacks_positive", "ordering",
                                   "kappa_positive", "a3_small"}
    header, rows = parse_csv(grid.read_text())
    assert header[:3] == ["t", "X", "f"]
    assert len(rows) == doc["grid_size"]
    slack1 = np.array([float(r[header.index("slack1")]) for r in rows])
    assert (slack1 > 0).all()


def test_certify_verdict_failure_exit_code(capsys):
    # (6, 3, 1) is a known ordering failure (tests/test_comparison.py)
    code, out, _ = run_cli(capsys, "certify", "--p", "6", "--n", "3",
                           "--a", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"]["ordering"] is False
    assert doc["all_ok"] is False


def test_certify_prints_the_certificate_verify_builds(capsys, tmp_path):
    # one setting: at lam = p - 1 the CLI and verify build one certificate
    grid = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "certify", "--p", "3", "--n", "2",
                           "--a", "1", "--grid-out", str(grid))
    assert code == 0
    doc = json.loads(out)
    cert = verify.Cache().certificate(3.0, 2.0, 1.0)
    assert (doc["offset"], doc["epsilon"]) == (cert.offset, cert.epsilon)
    assert doc["offset"] == 1e-06
    assert doc["verdict"] == cert.verdict
    header, rows = parse_csv(grid.read_text())
    for j, col in enumerate(header):
        assert [float(r[j]) for r in rows] == cert.grid[col].tolist(), col


def test_certify_uses_certificate_grade_step(capsys):
    # the a3 probe differentiates the model solve's dense output: an
    # RK45 phase solve's 4th-order one put max|a3| at 2.1e-4 here without
    # a step cap; the DOP853 phase solve's gives 3.4e-7
    code, out, _ = run_cli(capsys, "certify", "--p", "1.2", "--n", "3",
                           "--a", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["a3_small"] is True
    assert doc["all_ok"] is True


def test_certify_rejects_n_at_most_one():
    code, out, err = run_module("certify", "--p", "2", "--n", "1", "--a", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err
    # the model itself is defined at n = 1
    code, _, err = run_module("model", "--p", "2", "--n", "1", "--a", "1")
    assert code == 0
    assert err == ""


def test_certify_far_window_is_a_failed_certificate():
    # at a = 5.5e11 the barrier's first step is below the float spacing
    # at t0 on both sides; reading the stepless dense output raised an
    # IndexError traceback; the verdicts that read the barrier fail
    code, out, err = run_module("certify", "--p", "1.5", "--n", "2",
                                "--a", "549755813886.0")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert not doc["verdict"]["slacks_positive"]
    assert not doc["verdict"]["ordering"]
    assert doc["all_ok"] is False


@pytest.mark.parametrize("argv", [
    ["certify", "--p", "1.0000001", "--n", "2", "--a", "1"],
    ["certify", "--p", "2", "--n", "1e300", "--a", "1"],
    ["model", "--p", "2", "--n", "1e300", "--a", "1", "--lambda", "1"],
    ["model", "--p", "1.1", "--n", "8", "--a", "5e-324"],
    ["model", "--p", "1.1", "--n", "3", "--a", "0", "--lambda", "1e308"],
])
def test_model_and_certify_float_failures_are_clean(argv):
    # p near 1: lam^(1/(p-1)) underflowed to 0, X_of printed
    # RuntimeWarnings and kappa_check divided by its zero k0 (a
    # traceback); n = 1e300: the phase solve printed scipy's "overflow
    # encountered in divide" RuntimeWarning before failing; a = 5e-324:
    # the drift -(n-1)/a overflowed, the first slope was NaN and the
    # solver's step-size search never ended; lam = 1e308 at p = 1.1: the
    # scale (lam/(p-1))^(1/p) was inf and the a = 0 solve, started at
    # 0 * inf = nan, never ended either
    code, out, err = run_module(*argv)
    assert code in (1, 2), (code, err)
    assert err.count("\n") == 1, err
    assert "Traceback" not in err and "Warning" not in err, err


# ------------------------------------------------------------ bochner

def test_bochner_single_field(capsys):
    code, out, _ = run_cli(capsys, "bochner", "--field", "quad_2d",
                           "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["residual"]) < 1e-6


def test_bochner_all_csv(capsys):
    code, out, _ = run_cli(capsys, "bochner", "--field", "all",
                           "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["field", "p", "step", "residual"]
    assert len(rows) >= 12
    assert max(abs(float(r[3])) for r in rows) < 1e-4


def test_bochner_unknown_field(capsys):
    code, _, err = run_cli(capsys, "bochner", "--field", "nope")
    assert code == 2
    assert "unknown field" in err


def test_bochner_rejects_p_at_most_one(capsys):
    # the operator needs p > 1; p = 1 once returned a residual
    code, out, err = run_cli(capsys, "bochner", "--field", "quad_2d",
                             "--p", "1.0")
    assert code == 2
    assert out == ""
    assert "p > 1" in err


# --------------------------------------------------------- eigensolve

def test_eigensolve_variational_json(capsys, tmp_path):
    nodes = tmp_path / "nodes.csv"
    code, out, _ = run_cli(capsys, "eigensolve", "--kind", "segment",
                           "--N", "200", "--p", "2", "--seed", "3",
                           "--nodes-out", str(nodes))
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == pytest.approx(math.pi**2, rel=1e-3)
    assert doc["method"] == "variational"
    assert doc["converged"] is True
    header, rows = parse_csv(nodes.read_text())
    assert header == ["x", "u"]
    assert len(rows) == 200
    assert float(rows[0][1]) == pytest.approx(-1.0, abs=1e-12)


def test_eigensolve_shooting_radial(capsys):
    code, out, _ = run_cli(capsys, "eigensolve", "--kind", "radial",
                           "--N", "400", "--p", "2", "--R", "1", "--n", "3",
                           "--method", "shooting")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "shooting"
    assert doc["lambda"] > math.pi**2  # radial level exceeds the segment one
    assert doc["residual"] < 1e-4


def test_eigensolve_missing_domain_flags(capsys):
    # build_domain names the missing value
    for extra, named in [(["--kind", "radial"], "outer radius R"),
                         (["--kind", "radial", "--R", "1"], "dimension n"),
                         (["--kind", "circle"], "circumference L")]:
        code, out, err = run_cli(capsys, "eigensolve", "--N", "100",
                                 "--p", "2", *extra)
        assert (code, out) == (2, ""), extra
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert named in err, err


@pytest.mark.parametrize("extra", [
    ["--kind", "segment", "--p", "200"],
    ["--kind", "circle", "--p", "2", "--L", "1e-300"],
    ["--kind", "segment", "--p", "3", "--x1", "1e-300"],
    ["--kind", "radial", "--p", "2", "--R", "1e-300", "--n", "3",
     "--method", "shooting"],
    ["--kind", "radial", "--p", "2", "--R", "1e-200", "--n", "3",
     "--method", "shooting"],
    ["--kind", "radial", "--p", "1.125", "--R", "2.168435946916333e-264",
     "--n", "1", "--method", "shooting"],
])
def test_eigensolve_overflow_is_clean(extra):
    # p = 200: |grad|^2 overflowed, the normalized gradient was 0 and the
    # level stopped on step collapse after one iteration with lambda
    # 8.77e223, where the discrete minimum is 2.41e61, below the
    # continuum value (p-1) pi_p^p = 3.22e62 of the unit segment; on a
    # 1e-300 domain the differences overflowed and the run ended on
    # "identically zero"; both printed RuntimeWarnings.
    # Shooting on a tiny radius overflowed the Python float (b1/R)^p and
    # printed a traceback; at R = 2.2e-264 the rescale fits but the
    # differences of the sampled profile overflowed (a RuntimeWarning).
    code, out, err = run_module("eigensolve", "--N", "16", *extra)
    assert "Warning" not in err, err
    if code == 0:
        assert err == ""
        doc = json.loads(out)
        p = doc["p"]
        assert doc["converged"]
        assert 0.0 < doc["lambda"] <= (p - 1.0) * pspectral.pi_p(p) ** p
    else:
        assert code == 2 and err.count("\n") == 1, err
        assert "floating-point failure" in err, err


def test_eigensolve_unsolved_descent_is_not_converged(capsys):
    # Newton fails at n = 1e4 and the descent stops with lambda 5.17e-28
    # and residual 1.05e182, far off the discrete eigen-equation; no
    # level hit its cap, so it printed "converged": true
    code, out, _ = run_cli(capsys, "eigensolve", "--kind", "radial",
                           "--N", "16", "--p", "2", "--R", "1", "--n", "1e4")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] > 1e-8 and doc["converged"] is False


@pytest.mark.parametrize("method", ["variational", "shooting"])
def test_eigensolve_underflowing_radial_weights_are_named(method):
    # every node weight r^(n-1) h underflows to 0: the run used to end on
    # "function is identically zero after the p-mean shift"
    code, out, err = run_module("eigensolve", "--kind", "radial", "--N", "16",
                                "--p", "2", "--R", "1e-150", "--n", "3",
                                "--method", method)
    assert code == 2 and out == ""
    assert err.count("\n") == 1, err
    assert "radial domain" in err and "R = 1e-150" in err, err


# ------------------------------------------------------------- bounds

def test_bounds_table_at_p2(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "2", "--d",
                           "3.14159265358979")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["name", "value", "applicable", "requires"]
    vals = {r[0]: float(r[1]) for r in rows}
    assert vals["sharp"] == pytest.approx(1.0, rel=1e-12)
    assert vals["sharp"] > vals["hui"] > vals["kn"]
    flags = {r[0]: r[2] for r in rows}
    assert flags["sharp"] == "true" and flags["li_yau"] == "true"


def test_bounds_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "3", "--d", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    again = json.loads(json.dumps(doc))
    assert again == doc
    names = [r["name"] for r in doc["rows"]]
    assert names[0] == "sharp"


# ------------------------------------------------------- determinism

def test_repeat_runs_byte_identical(capsys):
    argv = ["eigensolve", "--kind", "segment", "--N", "150", "--p", "1.5",
            "--seed", "11"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    _, csv1, _ = run_cli(capsys, "model", "--p", "3", "--n", "2", "--a", "1")
    _, csv2, _ = run_cli(capsys, "model", "--p", "3", "--n", "2", "--a", "1")
    assert csv1 == csv2


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "table.csv"
    run_cli(capsys, "bounds", "--p", "2", "--d", "1", "--out", str(path))
    _, out, _ = run_cli(capsys, "bounds", "--p", "2", "--d", "1")
    assert path.read_text() == out


def test_missing_subcommand_exits_2(capsys):
    code = main([])
    assert code == 2


# ---------------------------------------------------------- property

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(p=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
       d=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       fn=st.sampled_from(["sin", "cos", "tan", "arctan"]),
       lo=finite, hi=finite, num=st.integers(min_value=0, max_value=6),
       fmt=st.sampled_from(["csv", "json"]))
def test_finite_inputs_end_in_an_exit_code(p, d, fn, lo, hi, num, fmt):
    # overflowing bounds, p near 1 (where t**q underflows in the
    # half-period quadrature), a grid whose LO starts with "-" (read as
    # a flag), a grid span hi - lo that overflows and tan_p where cos_p
    # rounds to 0 once escaped as tracebacks, warnings or usage errors
    grid = f"{lo!r}:{hi!r}:{num}"
    for argv in (["bounds", "--p", repr(p), "--d", repr(d)],
                 ["ptrig", "--p", repr(p), "--fn", "pi"],
                 ["ptrig", "--p", repr(p), "--fn", fn, "--grid", grid,
                  "--format", fmt]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())


near = st.floats(-2.0, 2.0)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["poly_2d_a", "quad_2d", "poly_3d_b"]),
       p=st.one_of(st.floats(1.0, 8.0), finite),
       step=st.one_of(st.floats(1e-4, 0.1), finite),
       coords=st.lists(st.one_of(near, finite), min_size=3, max_size=3))
def test_bochner_finite_inputs_end_in_an_exit_code(name, p, step, coords):
    # p = 1e300 (|grad u|^p overflows), tiny or huge steps and far
    # points once escaped as tracebacks or RuntimeWarnings
    point = ",".join(repr(c) for c in coords[:catalog()[name].field.dim])
    common = ["bochner", "--field", name, "--p", repr(p), "--step", repr(step)]
    for argv in (common, common + ["--point", point]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert code == 0 or err.getvalue().count("\n") == 1, err.getvalue()


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["segment", "circle", "radial"]),
       N=st.integers(16, 32),
       p=st.one_of(st.floats(1.0, 8.0), finite),
       L=st.one_of(st.floats(0.1, 10.0), finite),
       x1=st.one_of(st.floats(0.1, 10.0), finite),
       R=st.one_of(st.floats(0.1, 10.0), finite),
       n=st.one_of(st.floats(1.0, 8.0), finite))
def test_eigensolve_finite_inputs_end_in_an_exit_code(kind, N, p, L, x1, R, n):
    # p = 200 (|grad|^2 overflows), 1e-300 domains (the differences
    # overflow) and huge radial weights once escaped as RuntimeWarnings
    argv = ["eigensolve", "--kind", kind, "--N", str(N), "--p", repr(p),
            "--L", repr(L), "--x1", repr(x1), "--R", repr(R), "--n", repr(n)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert code == 0 or err.getvalue().count("\n") == 1, err.getvalue()


@settings(max_examples=30, deadline=None)
@given(p=st.one_of(st.floats(1.1, 8.0), finite),
       n=st.one_of(st.floats(1.0, 8.0), finite),
       a=st.one_of(st.floats(0.0, 100.0), finite),
       lam=st.one_of(st.none(), st.floats(0.1, 10.0), finite))
def test_model_and_certify_finite_inputs_end_in_an_exit_code(p, n, a, lam):
    # n = 1e300 (the phase solve's first step overflowed), p near 1
    # (lam^(1/(p-1)) underflowed and kappa_check divided by zero) and a
    # subnormal a (a NaN first slope hung the solver) once escaped as
    # RuntimeWarnings, tracebacks or a hang, and p near 1 or n in the
    # hundreds and up once ran for minutes.  A certificate that fails
    # its verdicts exits 1 with the verdicts on stdout.  Any lam reaches
    # the offset 1e-6 alpha^2 at extreme scales alpha.
    common = ["--p", repr(p), "--n", repr(n), "--a", repr(a)]
    if lam is not None:
        common += ["--lambda", repr(lam)]
    for argv in (["model"] + common, ["certify"] + common):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert code == 0 or err.getvalue().count("\n") == 1 or (
            argv[0] == "certify" and code == 1 and err.getvalue() == ""), (
            argv, err.getvalue())


@settings(max_examples=30, deadline=None)
@given(p=st.one_of(st.floats(1.1, 8.0), finite),
       n=st.one_of(st.floats(1.0, 8.0), finite),
       avals=st.lists(st.one_of(st.floats(0.0, 100.0), finite), min_size=1,
                      max_size=2),
       lam=st.one_of(st.none(), st.floats(0.1, 10.0), finite),
       N=st.integers(16, 32),
       R=st.one_of(st.floats(0.1, 10.0), finite))
def test_delta_scan_and_shooting_finite_inputs_end_in_an_exit_code(
        p, n, avals, lam, N, R):
    # the phase solve behind both, from a = 0 in the shooting backend;
    # a failing delta-scan row is a status, not an exit.  A tiny R once
    # overflowed the shooting profile's differences (a RuntimeWarning)
    scan = ["delta-scan", "--p", repr(p), "--n", repr(n),
            "--a-values", ",".join(repr(a) for a in avals)]
    if lam is not None:
        scan += ["--lambda", repr(lam)]
    for argv in (scan,
                 ["eigensolve", "--kind", "radial", "--method", "shooting",
                  "--N", str(N), "--p", repr(p), "--R", repr(R),
                  "--n", repr(n)]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert code == 0 or err.getvalue().count("\n") == 1, (
            argv, err.getvalue())


def test_phase_solves_past_the_evaluation_limit_exit_1():
    # each ran for minutes before the phase solve had a limit; the three
    # run side by side, and a regression fails on the timeout
    cases = (["model", "--p", "1.02", "--n", "3", "--a", "1"],
             ["model", "--p", "1e30", "--n", "1e160", "--a", "0"],
             ["eigensolve", "--kind", "radial", "--N", "16", "--p", "2",
              "--R", "1", "--n", "1e6", "--method", "shooting"])
    procs = [start_module(*argv) for argv in cases]
    try:
        for argv, proc in zip(cases, procs):
            code, _, err = finish_module(proc, timeout=60)
            assert code == 1, (argv, err)
            assert err.count("\n") == 1, err
            assert "right-hand-side evaluations" in err, err
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


# ------------------------------------------------------ docs and names

def test_readme_cli_lines_parse_and_all_names_resolve():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(ln.split("#", 1)[0]) for ln in block.splitlines()
             if ln.startswith("pspectral ")]
    assert len(lines) >= 8
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(argv)}")
    modules = [pspectral] + [
        importlib.import_module(f"pspectral.{m.name}")
        for m in pkgutil.iter_modules(pspectral.__path__)
        if m.name != "__main__"]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


# -------------------------------------------------------------- verify

def test_verify_quick_passes_and_round_trips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scope"] == "quick"
    assert doc["passed"] is True
    assert len(doc["criteria"]) == 14
    assert json.loads(json.dumps(doc)) == doc


def test_report_json_non_finite_is_valid_json():
    def refuse(name):
        raise ValueError(f"bare {name} in JSON output")

    text = cli.report_json({"x": float("nan"), "y": [np.inf, -np.inf]})
    doc = json.loads(text, parse_constant=refuse)
    assert doc == {"x": "nan", "y": ["inf", "-inf"]}


_MIXED = {"x": 0.1, "y": np.float64(-2.5), "nan": math.nan,
          "np_nan": np.float64("nan"), "inf": math.inf,
          "np_ninf": np.float64(-np.inf), "flag": np.bool_(True),
          "off": False, "count": np.int64(7), "name": "a,b", "none": None}


@pytest.mark.parametrize("fmt, text", [
    ("csv", "x,y,nan,np_nan,inf,np_ninf,flag,off,count,name,none\n"
            '0.1,-2.5,nan,nan,inf,-inf,true,false,7,"a,b",\n'),
    ("json", '{\n  "count": 7,\n  "flag": true,\n  "inf": "inf",\n'
             '  "name": "a,b",\n  "nan": "nan",\n  "none": null,\n'
             '  "np_nan": "nan",\n  "np_ninf": "-inf",\n  "off": false,\n'
             '  "x": 0.1,\n  "y": -2.5\n}\n'),
])
def test_output_of_mixed_python_and_numpy_values(capsys, fmt, text):
    # one value of each kind a payload carries, in both formats
    header = list(_MIXED)
    cli._output(argparse.Namespace(format=fmt, out=None), _MIXED, header,
                [[_MIXED[k] for k in header]])
    assert capsys.readouterr().out == text
