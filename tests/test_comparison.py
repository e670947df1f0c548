"""Tests for the certificate module.

The reference case (p=2, n=3, a=1, lam=1) has its full certificate grid
frozen in data/certificate_2311.csv.  data/make_certificate_fixture.py
regenerates it, and refuses to unless a solve at tightened tolerances
agrees.
"""

import copy
import csv
import dataclasses
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
    verify,
)
from pspectral import comparison
from pspectral._util import spow
from pspectral.comparison import (
    X_of,
    a3_residual,
    build_certificate,
    eta_beta,
    kappa_check,
    reconstruct_psi,
)

from oracles import barrier_reference, paper_sweep

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def ref_sol():
    return solve_model(ModelProblem(PParams(2.0, 3, 1.0), 1.0))


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
        sol = solve_model(ModelProblem(PParams(p, n, lam), a))
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
    # frozen grid from an RK45 solve with a step cap; the DOP853 solve
    # is 1.4e-12 off it
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
        sol = solve_model(ModelProblem(PParams(p, n, lam), a))
        cert = build_certificate(sol)
        assert cert.all_ok, (p, n, a, lam, cert.verdict)


def test_certificate_validation(ref_sol, free_sol):
    with pytest.raises(ValueError):
        build_certificate(free_sol)
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
    # at t0 the w-term is 0 and the residual stays small
    assert abs(a3_residual(ref_sol, ref_sol.t0)) < 1e-6
    with pytest.raises(ValueError):
        a3_residual(ref_sol, ref_sol.a_eff)


def test_a3_residual_takes_w_as_zero_at_t0():
    # sweep point 58, (1.204, 6.87, 2.41): |w|^(p-1) lifts a rounding
    # residual of 1e-17 in w(t0) to 3e-4 of lam, so a3_small failed
    # whenever w(t0) did not round to 0
    cert = verify.Cache().certificate(*paper_sweep(60)[58])
    assert cert.verdict["a3_small"]
    sol = cert.solution
    nudged = copy.copy(sol)

    def state(t):
        w, wdot = sol.state(t)
        return w + 1e-17, wdot

    nudged.state = state
    assert a3_residual(nudged, sol.t0) == a3_residual(sol, sol.t0)


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


def test_reconstruct_psi_rejects_invalid(known_certs):
    # (6, 3, 1) is a known ordering failure (see _KNOWN_FAILURES)
    bad = known_certs[(6.0, 3.0, 1.0)]
    assert not bad.verdict["ordering"] and not bad.all_ok
    with pytest.raises(ValueError):
        reconstruct_psi(bad)


@pytest.mark.parametrize("p, n, a", [(2.0, 3.0, 1.0), (1.5, 2.0, 0.1)])
def test_certificate_is_scale_covariant(known_certs, p, n, a):
    # t -> alpha t maps the lam = p - 1 model at a onto the lam model at
    # a / alpha and multiplies every slope by alpha^2, as the offset is.
    # At lam = 1e8 a step floor fixed in t failed a3_small; at 1e-200 the
    # residual's normalizer lam^2 underflowed to 0, and the barrier's
    # tolerances, fixed in t and f, let ordering fail.  At p = 1.5,
    # lam = 1e-200 the law's rate lam^2 underflows: a clean refusal.
    # kappa_check's rate deviation and x_law_dev, with steps, floors and
    # normalizers fixed in t, read 3.34e-4 at (1.5, 2, 0.1), lam = 1e8
    # (past criterion 6's 1e-4) and 1.5e-300 at (2, 3, 1), lam = 1e-200
    base = known_certs[(p, n, a)]
    base_rate = kappa_check(base)["max_rel_deviation"]
    base_x = base.diagnostics["x_law_dev"]
    for lam in (1e-200, 1e-6, 1e-2, 1e2, 1e8):
        pp = PParams(p, n, lam)
        sol = solve_model(ModelProblem(pp, a / pp.alpha))
        if lam ** (1.0 / (p - 1.0)) == 0.0:
            with pytest.raises(ValueError, match="underflows to 0"):
                build_certificate(sol)
            continue
        cert = build_certificate(sol)
        assert cert.offset == base.offset * pp.alpha**2
        assert cert.verdict == base.verdict, (lam, cert.verdict)
        rate = kappa_check(cert)["max_rel_deviation"]
        assert base_rate / 2.0 <= rate <= 2.0 * base_rate, (lam, rate)
        x_dev = cert.diagnostics["x_law_dev"]
        assert base_x / 2.0 <= x_dev <= 2.0 * base_x, (lam, x_dev)


def test_certificate_refuses_an_offset_off_the_float_range(ref_sol):
    # offset = 1e-6 alpha^2: alpha = (lam/(p-1))^(1/p) near 1e200 or
    # 1e-200 takes it past the largest float or below the smallest
    for lam in (1e300, 1e-300):
        fake = copy.copy(ref_sol)
        fake.problem = ModelProblem(PParams(1.5, 3, lam), 1.0)
        with pytest.raises(ValueError, match="barrier offset"):
            build_certificate(fake)


def test_kappa_check_refuses_underflowing_kappa_t0(ref_cert, ref_sol):
    # near p = 1, k0 = n (p-1)^2 lam^(1/(p-1)) underflows to 0 and the
    # relative error at t0 divided by it
    fake = copy.copy(ref_sol)
    fake.problem = ModelProblem(PParams(1.0001, 3, 0.929), 1.0)
    with pytest.raises(ValueError, match="underflows to 0"):
        kappa_check(dataclasses.replace(ref_cert, solution=fake))


def test_certificate_refuses_underflowing_law_rate():
    # lam^(1/(p-1)) = 0 would make X = 0 a solution of the law
    sol = solve_model(ModelProblem(PParams(1.0000001, 2, 1e-7), 1.0))
    with pytest.raises(ValueError, match="underflows to 0"):
        build_certificate(sol)


def _fail_after(kind, t_bad):
    rate = comparison._x_rate

    def x_rate(p, lam1, x, tv):
        if -2.0 / tv > t_bad:  # n = 3: t = -(n-1)/T
            if kind == "overflow":
                raise OverflowError("(34, 'Numerical result out of range')")
            return math.inf if kind == "inf" else math.nan
        return rate(p, lam1, x, tv)

    return x_rate


@pytest.mark.parametrize("kind", ["overflow", "inf", "nan"])
def test_barrier_float_failure_is_a_failed_certificate(ref_sol, monkeypatch,
                                                       kind):
    # a float overflow or a non-finite state in the barrier right-hand
    # side, here past t_bad on the forward side, fails the certificate:
    # the verdicts that read f fail, kappa and a3 read their own columns
    t_bad = ref_sol.t0 + 0.3 * (ref_sol.b - ref_sol.t0)
    monkeypatch.setattr(comparison, "_x_rate", _fail_after(kind, t_bad))
    cert = build_certificate(ref_sol)
    assert not cert.verdict["slacks_positive"]
    assert not cert.verdict["ordering"]
    assert not cert.all_ok
    g = cert.grid
    assert cert.verdict["kappa_positive"] == bool((g["kappa"] > 0).all())
    assert cert.verdict["a3_small"] == bool(
        (np.abs(g["a3_residual"]) <= comparison._A3_TOL).all())
    assert cert.diagnostics["f_blowup"] is True
    assert cert.diagnostics["nfev_forward"] > 0
    f = cert.f_dense(np.array([ref_sol.t0 - 0.1, ref_sol.t0 + 0.1]))
    assert math.isfinite(f[0]) and math.isnan(f[1])
    assert cert.diagnostics["x_law_dev"] < 1e-7  # the backward side ran


# The known certificate cases at lam = p - 1, where the one setting
# reads epsilon = 1e-3 delta, offset 1e-6 and a3 bound 1e-6 (verify and
# the CLI both build them so): the full grid and four cases off it.  Two
# more cases named with them, (1.5, 2, 0.1) and (3, 2, 10), lie on the
# grid.  The failures at (6, 3, 1), (10, 4, 2) and (1.1, 2, 0.5) are
# known and stay visible until their cause is settled.
_OFF_GRID = [(1.2, 3.0, 1.0), (6.0, 3.0, 1.0), (10.0, 4.0, 2.0),
             (1.1, 2.0, 0.5)]
_KNOWN_FAILURES = {(6.0, 3.0, 1.0): {"ordering"},
                   (10.0, 4.0, 2.0): {"ordering"},
                   (1.1, 2.0, 0.5): {"a3_small"}}
_ORACLE_CASES = [(p, n, a) for p, n in verify._PN_QUICK
                 for a in verify._A_QUICK] + _OFF_GRID


@pytest.fixture(scope="module")
def known_certs():
    cache = verify.Cache()
    cases = [(p, n, a) for p, n in verify._PN_FULL
             for a in verify._A_FULL] + _OFF_GRID
    return {case: cache.certificate(*case) for case in cases}


def test_known_certificate_verdicts(known_certs):
    assert len(known_certs) == 28
    for case, cert in known_certs.items():
        failed = {k for k, ok in cert.verdict.items() if not ok}
        assert failed == _KNOWN_FAILURES.get(case, set()), case
        assert not cert.diagnostics["f_blowup"], case


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_barrier_matches_the_phase_solution_route(known_certs, case):
    # f from the (X, f) law integration against the frozen f-only
    # integration that reads X from the phase solution at every call
    cert = known_certs[case]
    ts = cert.grid["t"]
    ref = barrier_reference(cert.solution, cert.epsilon, cert.offset, ts)
    got = cert.grid["f"]
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-8


@pytest.mark.parametrize("case", [
    pytest.param(c, marks=pytest.mark.xfail(
        strict=True, reason="at p = 1.1 the backward law integration "
        "toward the blow-up of X at a loses relative accuracy: "
        "x_law_dev reads 2.6e-5"))
    if c == (1.1, 2.0, 0.5) else c
    for c in _ORACLE_CASES])
def test_law_x_matches_the_phase_solution(known_certs, case):
    assert known_certs[case].diagnostics["x_law_dev"] <= 1e-7


# The first 60 points of the seeded sweep over the paper's range that
# fail the certificate or kappa_check's bounds.  All but 30 fail only
# `ordering` (every one at p > 5); 30 = (1.785, 7.49, 0.071) fails
# `slacks_positive` and `ordering`, where the barrier blows up (its kappa
# and a3 columns pass).  A fix shrinks this set; no
# bound may widen to empty it.  Point 58 (p = 1.204) passes: a3_residual
# takes w = 0 exactly at the grid point t0, so the rounding residual of
# w(t0), lifted to the power 0.204, no longer decides `a3_small` there
# (test_a3_residual_takes_w_as_zero_at_t0).
_SWEEP_FAILURES = {5, 6, 10, 11, 15, 30, 31, 32, 35, 38, 59}


def test_certificate_sweep_over_the_paper_range():
    # the first 60 of the 120 seeded draws over the paper's range
    gates = verify.GATES[6]
    cache = verify.Cache()
    failed = set()
    for i, case in enumerate(paper_sweep(60)):
        cert = cache.certificate(*case)
        kk = kappa_check(cert)
        if not (all(cert.verdict.values())
                and kk["kappa_t0_rel_err"] <= gates["kappa_t0_rel"][1]
                and kk["max_rel_deviation"] <= gates["kappa_rate_rel"][1]):
            failed.add(i)
        if i == 30:
            assert {k for k, ok in cert.verdict.items() if not ok} == {
                "slacks_positive", "ordering"}
    assert failed == _SWEEP_FAILURES
