"""Tests for the certificate module.

The reference case (p=2, n=3, a=1, lam=1) has its full certificate grid
frozen in data/certificate_2311.csv, generated by
data/make_certificate_fixture.py with a step-halving self-check.
"""

import csv
import math
import pathlib

import numpy as np
import pytest

from pspectral import (
    INFINITY,
    ModelProblem,
    PParams,
    pi_p,
    solve_model,
    tan_p,
)
from pspectral._util import spow
from pspectral.model1d import CERTIFICATE_MAX_STEP
from pspectral.comparison import (
    X_of,
    a3_residual,
    build_certificate,
    eta_beta,
    kappa_check,
    reconstruct_psi,
)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def ref_sol():
    return solve_model(ModelProblem(PParams(2.0, 3, 1.0), 1.0),
                       max_step=CERTIFICATE_MAX_STEP)


@pytest.fixture(scope="module")
def ref_cert(ref_sol):
    return build_certificate(ref_sol)


@pytest.fixture(scope="module")
def free_sol():
    # translation-invariant problem, exact closed form
    return solve_model(ModelProblem(PParams(2.5, 3, 1.5), INFINITY))


def test_X_of_basic(ref_sol):
    assert abs(X_of(ref_sol, ref_sol.t0)) < 1e-9
    ts = np.linspace(ref_sol.a_eff + 0.05, ref_sol.b - 0.05, 41)
    x = X_of(ref_sol, ts)
    assert np.all(np.sign(x[np.abs(ts - ref_sol.t0) > 1e-3]) ==
                  np.sign(ts - ref_sol.t0)[np.abs(ts - ref_sol.t0) > 1e-3])
    # blows up toward both ends
    assert X_of(ref_sol, ref_sol.a_eff + 1e-5) < -1e3
    assert X_of(ref_sol, ref_sol.b - 1e-5) > 1e2
    with pytest.raises(ValueError):
        X_of(ref_sol, ref_sol.a_eff)
    with pytest.raises(ValueError):
        X_of(ref_sol, ref_sol.b + 0.1)


def test_X_derivative_law():
    # d/dt X^(p-1) = (p-1) lam^(1/(p-1)) |X|^(p-2) - T X^(p-1) + |X|^(2p-2)
    for p, n, a, lam in [(2.0, 3, 1.0, 1.0), (2.5, 2, 0.5, 1.5)]:
        sol = solve_model(ModelProblem(PParams(p, n, lam), a),
                          max_step=CERTIFICATE_MAX_STEP)
        lam1 = lam ** (1.0 / (p - 1.0))
        ts = np.linspace(sol.a_eff + 0.15 * sol.delta, sol.b - 0.15 * sol.delta, 21)
        ts = ts[np.abs(ts - sol.t0) > 0.05 * sol.delta]
        h = 1e-6
        for t in ts:
            fd = (spow(X_of(sol, t + h), p - 1.0)
                  - spow(X_of(sol, t - h), p - 1.0)) / (2.0 * h)
            x = X_of(sol, t)
            tv = -(n - 1.0) / t
            law = ((p - 1.0) * lam1 * abs(x) ** (p - 2.0)
                   - tv * spow(x, p - 1.0) + abs(x) ** (2.0 * p - 2.0))
            assert abs(fd - law) / max(1.0, abs(law)) < 1e-6


def test_X_closed_form_free(free_sol):
    # zero drift: X(t) = lam^(1/(p-1)) tan_p(alpha t - pi_p/2)
    pp = free_sol.problem.params
    lam1 = pp.lam ** (1.0 / (pp.p - 1.0))
    ts = np.linspace(0.1 * free_sol.b, 0.9 * free_sol.b, 17)
    ref = lam1 * tan_p(pp.alpha * ts - 0.5 * pi_p(pp.p), pp.p)
    got = X_of(free_sol, ts)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-10


def test_eta_beta_special_values(ref_sol):
    p, n = 2.0, 3.0
    t = ref_sol.t0 + 0.3
    tv = -(n - 1.0) / t
    x = X_of(ref_sol, t)
    e0, b0 = eta_beta(0.0, t, ref_sol)
    assert e0 == 0.0
    expect = -p * tv / (p - 1.0) * (n * tv / (n - 1.0) - spow(x, p - 1.0))
    assert abs(b0 - expect) < 1e-12 * max(1.0, abs(expect))
    # eta and beta cross at y1
    y1 = p / (p - 1.0) * (tv - (n - 1.0) / n * spow(x, p - 1.0))
    ey, by = eta_beta(y1, t, ref_sol)
    assert abs(ey - by) < 1e-10 * max(1.0, abs(ey))
    # far out in s the minimum branch is negative on both sides
    for s in (-1e6, 1e6):
        es, bs = eta_beta(s, t, ref_sol)
        assert min(es, bs) < -1e9
    with pytest.raises(ValueError):
        eta_beta(0.0, ref_sol.b + 1.0, ref_sol)


def test_factorization_identity(ref_cert, ref_sol):
    # eta(f) - beta(f) = (p-1)/p * n/(n-1) * (f-y1)(f-y2)
    p, n = 2.0, 3.0
    g = ref_cert.grid
    lhs = g["eta_of_f"] - g["beta_of_f"]
    rhs = (p - 1.0) / p * n / (n - 1.0) * (g["f"] - g["y1"]) * (g["f"] - g["y2"])
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-8


def test_certificate_against_frozen_fixture(ref_cert):
    # frozen grid, generated after a step-halving self-check (1e-13 there)
    with (DATA / "certificate_2311.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(ref_cert.grid["t"])
    for col in ("t", "X", "f", "kappa", "slack1", "slack2"):
        ref = np.array([float(r[col]) for r in rows])
        got = ref_cert.grid[col]
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-8


def test_certificate_structure(ref_cert, ref_sol):
    assert ref_cert.all_ok
    assert set(ref_cert.verdict) == {
        "slacks_positive", "ordering", "kappa_positive", "a3_small"}
    ts = ref_cert.grid["t"]
    assert abs(ts[0] - (ref_sol.a_eff + ref_cert.epsilon)) < 1e-12
    assert abs(ts[-1] - (ref_sol.b - ref_cert.epsilon)) < 1e-12
    assert np.min(np.abs(ts - ref_sol.t0)) < 1e-12  # t0 on the grid
    # initial value of the barrier
    p, n = 2.0, 3.0
    f0 = p / (p - 1.0) * (-(n - 1.0) / ref_sol.t0)
    i0 = int(np.argmin(np.abs(ts - ref_sol.t0)))
    assert abs(ref_cert.grid["f"][i0] - f0) < 1e-9
    # slacks never dip below half the offset
    assert ref_cert.grid["slack1"].min() >= ref_cert.offset / 2
    assert ref_cert.grid["slack2"].min() >= ref_cert.offset / 2
    # secondary differenced check of the barrier dynamics
    assert ref_cert.diagnostics["f_rhs_differenced_dev"] < 1e-6


def test_certificate_parameter_sweep():
    for p, n, a, lam in [(1.5, 2, 0.1, 0.5), (3.0, 3, 0.1, 2.0), (3.0, 2, 10.0, 2.0)]:
        sol = solve_model(ModelProblem(PParams(p, n, lam), a),
                          max_step=CERTIFICATE_MAX_STEP)
        cert = build_certificate(sol)
        assert cert.all_ok, (p, n, a, lam, cert.verdict)


def test_certificate_validation(ref_sol, free_sol):
    with pytest.raises(ValueError):
        build_certificate(free_sol)
    with pytest.raises(ValueError):
        build_certificate(ref_sol, epsilon=ref_sol.delta)
    with pytest.raises(ValueError):
        build_certificate(ref_sol, offset=-1.0)
    # the slopes divide by n-1: n = 1 is rejected before any integration
    line = solve_model(ModelProblem(PParams(2.0, 1, 1.0), 1.0))
    with pytest.raises(ValueError, match="n > 1"):
        build_certificate(line)


def test_kappa_check_report(ref_cert):
    rep = kappa_check(ref_cert)
    assert rep["kappa_positive"]
    assert rep["kappa_min"] > 0.0
    assert rep["kappa_t0_rel_err"] < 1e-8
    assert abs(rep["kappa_t0_exact"] - 3.0) < 1e-12  # n(p-1)^2 lam^(1/(p-1))
    assert rep["max_rel_deviation"] < 1e-4
    assert rep["n_fd_points"] > 100
    # the zero-locus reduction is proved in test_kappa_locus
    assert "zero_locus_max_rel_err" not in rep


def test_a3_residual_small(ref_cert, ref_sol):
    worst = np.max(np.abs(ref_cert.grid["a3_residual"]))
    assert worst < 1e-6
    # at t0 the w-terms vanish but the formula needs no special casing
    assert abs(a3_residual(ref_sol, ref_sol.t0)) < 1e-6
    with pytest.raises(ValueError):
        a3_residual(ref_sol, ref_sol.a_eff)


def test_a3_residual_array_matches_scalar(ref_sol):
    # one stacked stencil evaluation against per-point calls, including
    # points near both ends where the step shrinks to (t-a)/3, (b-t)/3
    a, b = ref_sol.a_eff, ref_sol.b
    ts = np.concatenate([np.linspace(a + 1e-6, b - 1e-6, 41),
                         [a + 3e-5, ref_sol.t0, b - 3e-5]])
    got = a3_residual(ref_sol, ts)
    assert got.shape == ts.shape
    ref = np.array([a3_residual(ref_sol, float(t)) for t in ts])
    assert np.max(np.abs(got - ref)) <= 1e-11
    assert isinstance(a3_residual(ref_sol, ref_sol.t0), float)
    with pytest.raises(ValueError):
        a3_residual(ref_sol, np.array([ref_sol.t0, ref_sol.a_eff]))


def test_f_dense_arrays_and_blowup(ref_cert, ref_sol):
    g = ref_cert.grid
    np.testing.assert_array_equal(ref_cert.f_dense(g["t"]), g["f"])
    assert isinstance(ref_cert.f_dense(ref_sol.t0), float)
    # past the integrated window on either side f is NaN
    out = ref_cert.f_dense(np.array([ref_sol.a_eff + 1e-9, ref_sol.t0,
                                     ref_sol.b - 1e-9]))
    assert math.isnan(out[0]) and math.isnan(out[2])
    assert math.isfinite(out[1])


def test_a3_residual_closed_form(free_sol):
    # exact trajectory: residual at quadrature-noise level
    ts = np.linspace(0.2 * free_sol.b, 0.8 * free_sol.b, 9)
    for t in ts:
        assert abs(a3_residual(free_sol, float(t))) < 1e-9


def test_reconstruct_psi(ref_cert):
    prof = reconstruct_psi(ref_cert)
    i0 = int(np.argmin(np.abs(prof.s)))
    assert prof.s[i0] == 0.0
    assert prof.psi[i0] == 1.0
    assert np.all(prof.psi > 0.0)
    d = prof.diagnostics
    assert d["a1_positive_interior"] and d["a2_positive_interior"]
    assert d["a1_surrogate_dev"] < 1e-3
    assert d["a2_surrogate_dev"] < 1e-3
    assert d["n_resolved"] > 0.9 * len(prof.s)
    # h really is -f/wdot at the sampled times
    k = len(prof.t) // 2
    t_mid = prof.t[k]
    import numpy as _np
    f_mid = ref_cert.f_dense(t_mid)
    wd_mid = float(ref_cert.solution.wdot(t_mid))
    assert abs(prof.h[k] - (-f_mid / wd_mid)) < 1e-10 * max(1.0, abs(prof.h[k]))


def test_reconstruct_psi_rejects_invalid(ref_sol):
    bad = build_certificate(ref_sol, a3_tol=1e-30)
    assert not bad.all_ok
    with pytest.raises(ValueError):
        reconstruct_psi(bad)
