"""Tests for the phase/amplitude model solver.

Oracle routes (tests/oracles.py) share no code with the package: the
divergence-form state (w, wdot^(p-1)) is integrated directly at the
requested lam, and the p = 2 cases reduce to classical Bessel /
spherical-Bessel zeros.
"""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from pspectral import (
    INFINITY,
    ModelProblem,
    PParams,
    delta_scan,
    pi_p,
    sin_cos_p,
    sin_p,
    solve_model,
)
from pspectral import model1d
from pspectral import verify
from pspectral.model1d import _drift

from oracles import (
    bessel_case_n2,
    paper_sweep,
    solve_divergence_form,
    spherical_case_n3,
)


def test_params_validation():
    with pytest.raises(ValueError):
        PParams(p=1.0, n_dim=2, lam=1.0)
    with pytest.raises(ValueError):
        PParams(p=2.0, n_dim=0.5, lam=1.0)
    with pytest.raises(ValueError):
        PParams(p=2.0, n_dim=2, lam=0.0)
    with pytest.raises(ValueError):
        PParams(p=2.0, n_dim=2, lam=-3.0)
    pp = PParams(p=3.0, n_dim=2.5, lam=5.0)
    assert abs(pp.alpha - (5.0 / 2.0) ** (1.0 / 3.0)) < 1e-15
    with pytest.raises(ValueError):
        ModelProblem(pp, -0.1)


def test_bessel_oracle_n2():
    # independent oracle: p=2, n=2, a=0, lam=1 gives w = -J0; b = 3.831705970207512,
    # t0 = 2.404825557695773, m = 0.4027593957025531 (scipy Bessel zeros)
    b_ref, t0_ref, m_ref = bessel_case_n2()
    assert abs(b_ref - 3.831705970207512) < 1e-12
    assert abs(t0_ref - 2.404825557695773) < 1e-12
    assert abs(m_ref - 0.4027593957025531) < 1e-12
    sol = solve_model(ModelProblem(PParams(2.0, 2, 1.0), 0.0))
    assert abs(sol.b - b_ref) < 1e-9
    assert abs(sol.t0 - t0_ref) < 1e-9
    assert abs(sol.m_max - m_ref) < 1e-9


def test_spherical_oracle_n3():
    # independent oracle: p=2, n=3, a=0, lam=1 gives w = -sin(t)/t; b solves tan t = t
    b_ref, t0_ref, m_ref = spherical_case_n3()
    assert abs(b_ref - 4.493409457909064) < 1e-12
    assert abs(t0_ref - math.pi) < 1e-12
    assert abs(m_ref - 0.21723362821122166) < 1e-12
    sol = solve_model(ModelProblem(PParams(2.0, 3, 1.0), 0.0))
    assert abs(sol.b - b_ref) < 1e-9
    assert abs(sol.t0 - t0_ref) < 1e-9
    assert abs(sol.m_max - m_ref) < 1e-9
    # w itself matches the closed form away from the origin
    ts = np.linspace(0.5, sol.b, 40)
    assert np.max(np.abs(sol.w(ts) - (-np.sin(ts) / ts))) < 1e-9


# Cases of the divergence-form cross-check: nine at lam != p-1, where
# solve_model's integration at lam = p-1, rescaled by alpha, meets the
# oracle's at the requested lam (three from a = 0); the verify model
# grid; p = 1.1; the first 60 points of the seeded sweep.
_CROSS_CASES = [
    (1.5, 2, 0.0, 1.0),
    (1.5, 3, 0.7, 0.5),
    (3.0, 2, 0.0, 2.0),
    (3.0, 3, 1.0, 2.0),
    (2.0, 2, 2.0, 1.0),
    (4.0, 2.5, 0.3, 1.0),
    (2.5, 2, 0.4, 3.7),
    (1.5, 3, 0.0, 0.2),
    (1.5, 3, 0.0, 1.0),
] + [
    (p, n, a, p - 1.0) for p, n in verify._PN_FULL for a in verify._A_FULL
] + [
    (1.1, n, a, 0.1) for n in (2.0, 3.0) for a in (0.0, 0.5, 1.0, 10.0)
] + [
    pytest.param(p, n, a, p - 1.0, id=f"sweep{i}")
    for i, (p, n, a) in enumerate(paper_sweep(60))
]


@pytest.mark.parametrize("p,n,a,lam", _CROSS_CASES)
def test_divergence_form_cross_check(p, n, a, lam):
    # the largest deviations over these cases: b and t0 1.1e-11 at
    # (1.1, 3, 0), m_max and w 4.6e-10 at sweep point 52 (2.66, 5.41, 50.8)
    b_ref, t0_ref, m_ref, w_ref = solve_divergence_form(p, n, a, lam)
    sol = solve_model(ModelProblem(PParams(p, n, lam), a))
    assert abs(sol.b - b_ref) <= 5e-11
    assert abs(sol.t0 - t0_ref) <= 5e-11
    assert abs(sol.m_max - m_ref) <= 2e-9
    ts = np.linspace(sol.a_eff, min(sol.b, b_ref), 41)
    assert np.max(np.abs(sol.w(ts) - w_ref(ts))) <= 2e-9


def test_infinity_closed_form():
    pp = PParams(3.0, 3, 4.0)
    sol = solve_model(ModelProblem(pp, INFINITY))
    pip = pi_p(3.0)
    assert sol.diagnostics["closed_form"]
    assert abs(sol.b - pip / pp.alpha) < 1e-14
    assert abs(sol.t0 - 0.5 * pip / pp.alpha) < 1e-14
    assert sol.m_max == 1.0
    assert sol.delta == sol.b
    ts = np.linspace(0.0, sol.b, 50)
    ref = sin_p(pp.alpha * ts - 0.5 * pip, 3.0)
    assert np.max(np.abs(sol.w(ts) - ref)) < 1e-14
    # amplitude is constant for the driftless equation
    assert np.max(np.abs(sol.e(ts) - pp.alpha)) < 1e-14
    # closed-form inverse
    si = np.linspace(-0.999, 0.999, 31)
    assert np.max(np.abs(sol.w(sol.w_inverse(si)) - si)) < 1e-12
    assert abs(sol.delta - pip / pp.alpha) < 1e-15


@pytest.mark.parametrize("p,n", [(1.5, 2), (3.0, 3)])
def test_trends_in_a(p, n):
    pp = PParams(p, n, 1.0)
    small, big, inf = (solve_model(ModelProblem(pp, a))
                       for a in (0.1, 100.0, INFINITY))
    d_small, d_big, d_inf = small.delta, big.delta, inf.delta
    m_small, m_big = small.m_max, big.m_max
    assert d_big < d_small
    assert 0.0 < m_small < m_big < 1.0
    # both approach the driftless window from above
    assert d_small > d_inf and d_big > d_inf
    assert d_big - d_inf < 0.05 * (d_small - d_inf)
    assert 1.0 - m_big < 0.05 * (1.0 - m_small)


def test_phase_rate_lower_bound():
    for p, n, a, lam in [(1.5, 2, 0.0, 1.0), (3.0, 3, 0.5, 2.0), (2.0, 2, 0.0, 1.0)]:
        pp = PParams(p, n, lam)
        sol = solve_model(ModelProblem(pp, a))
        ts = sol.trajectory["t"]
        ts = ts[ts > sol.a_eff + 1e-6]
        rates = sol.phase_rate(ts)
        assert np.min(rates) >= pp.alpha / n - 1e-8


def test_driftless_model_has_constant_phase_speed():
    # at a = INFINITY the drift and its derivative vanish, so phi' = alpha
    for p, n in [(3.0, 3.0), (1.5, 1.0)]:
        prob = ModelProblem(PParams(p, n, 4.0), INFINITY)
        sol = solve_model(prob)
        ts = np.linspace(0.0, sol.b, 50)
        tv, tdot = _drift(prob, ts)
        assert not tv.any() and not tdot.any()
        assert np.all(sol.phase_rate(ts) == prob.params.alpha)


def test_phase_solve_stops_at_its_evaluation_limit(monkeypatch):
    monkeypatch.setattr(model1d, "_MAX_PHASE_NFEV", 100)
    with pytest.raises(RuntimeError) as err:
        solve_model(ModelProblem(PParams(2.0, 3.0), 1.0))
    assert str(err.value) == ("solve_model at p = 2.0, n = 3.0, a = 1.0: the "
                              "phase solve needs more than 100 "
                              "right-hand-side evaluations")


def test_energy_law():
    # d(log e)/dt = T |cos_p phi|^p / (p-1) along the orbit
    pp = PParams(2.5, 3, 1.5)
    sol = solve_model(ModelProblem(pp, 0.6))
    ts = np.linspace(sol.a_eff + 0.05 * sol.delta, sol.b - 0.05 * sol.delta, 25)
    h = 1e-6
    fd = (sol.log_e(ts + h) - sol.log_e(ts - h)) / (2.0 * h)
    p = pp.p
    c = sol.wdot(ts) / sol.e(ts)
    rhs = -(pp.n_dim - 1.0) / ts * np.abs(c) ** p / (p - 1.0)
    assert np.max(np.abs(fd - rhs)) < 1e-6


def test_consistency_w_reconstruction():
    # the phase/amplitude w and the integral of wdot agree: reconstruct
    # w on a smooth interior window from its derivative
    for p, n, a, lam in [(1.5, 2, 0.0, 1.0), (3.0, 3, 0.8, 2.0)]:
        sol = solve_model(ModelProblem(PParams(p, n, lam), a))
        lo, hi = sol.t0, sol.b - 0.1 * sol.delta
        ts = np.linspace(lo, hi, 2001)
        rec = cumulative_simpson(sol.wdot(ts), x=ts, initial=0.0)
        direct = sol.w(ts) - sol.w(ts[0])
        assert np.max(np.abs(rec - direct)) < 1e-8


def test_delta_scan_rows():
    pp = PParams(1.5, 2, 1.0)
    rows = delta_scan([0.5, INFINITY, 2.0], pp)
    assert [r["a"] for r in rows] == [0.5, INFINITY, 2.0]
    assert all(r["status"] == "ok" for r in rows)
    assert all(
        set(r) == {"a", "delta", "m_max", "t0", "b", "status"} for r in rows
    )
    assert rows[1]["m_max"] == 1.0
    assert abs(rows[1]["delta"] - pi_p(1.5) / pp.alpha) < 1e-14
    assert rows[0]["delta"] > rows[2]["delta"] > rows[1]["delta"]
    for r in rows:
        assert r["a"] + r["delta"] == pytest.approx(r["b"], abs=1e-12) or r[
            "a"
        ] == INFINITY
    assert delta_scan([], pp) == []


def test_w_inverse_roundtrip():
    sol = solve_model(ModelProblem(PParams(2.5, 2, 1.0), 0.4))
    ts = np.linspace(sol.a_eff + 0.02 * sol.delta, sol.b - 0.02 * sol.delta, 30)
    back = sol.w_inverse(sol.w(ts))
    assert np.max(np.abs(back - ts)) < 1e-9
    # clamping at the ends
    assert sol.w_inverse(-2.0) == sol.a_eff
    assert sol.w_inverse(2.0) == sol.b
    assert sol.w_inverse(sol.m_max + 1e-12) == sol.b


@pytest.mark.parametrize("a", [0.4, INFINITY])
def test_state_matches_w_and_wdot(a):
    # bit for bit against the separate evaluators and against
    # w = e sin_p(phi)/alpha, wdot = e cos_p(phi) built from phi and log e
    sol = solve_model(ModelProblem(PParams(2.5, 2, 1.0), a))
    alpha = sol.problem.params.alpha
    for t in (0.5 * (sol.a_eff + sol.b),
              np.linspace(sol.a_eff, sol.b, 37)):
        w, wdot = sol.state(t)
        s, c = sin_cos_p(sol.phi(t), 2.5)
        e = np.exp(sol.log_e(t))
        np.testing.assert_array_equal(w, e * s / alpha)
        np.testing.assert_array_equal(wdot, e * c)
        np.testing.assert_array_equal(w, sol.w(t))
        np.testing.assert_array_equal(wdot, sol.wdot(t))
        assert np.ndim(w) == np.ndim(t) and np.ndim(wdot) == np.ndim(t)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("a", [0.0, 0.1, 0.7, 3.0])
def test_w_inverse_bracketed_newton(p, a):
    sol = solve_model(ModelProblem(PParams(p, 3, p - 1.0), a))
    lo, hi = sol.a_eff, sol.b
    # offsets down to 1e-12 from both ends, where wdot vanishes
    ends = np.logspace(-12, -1, 23)
    ts = np.concatenate([lo + ends, np.linspace(lo, hi, 200)[1:-1], hi - ends])
    s = sol.w(ts)
    back = sol.w_inverse(s)
    assert np.all((back >= lo) & (back <= hi))
    assert np.max(np.abs(sol.w(back) - s)) <= 1e-12
    # the inverse is well conditioned in t only away from the ends
    mid = np.abs(sol.wdot(ts)) > 1e-2
    assert np.max(np.abs(back[mid] - ts[mid])) < 1e-12
    assert isinstance(sol.w_inverse(float(s[50])), float)


def test_window_shape():
    sol = solve_model(ModelProblem(PParams(3.0, 2, 1.0), 1.2))
    assert abs(float(sol.w(sol.a_eff)) + 1.0) < 1e-12
    # |wdot| at the window ends scales as (phase roundoff)^(1/(p-1)):
    # ~eps^0.5 = 1e-8 for p = 3, an intrinsic representation limit
    assert abs(float(sol.wdot(sol.a_eff))) < 1e-6
    assert abs(float(sol.wdot(sol.b))) < 1e-6
    assert 0.0 < sol.m_max < 1.0
    assert sol.a_eff < sol.t0 < sol.b
    assert abs(float(sol.w(sol.t0))) < 1e-10
    w = sol.trajectory["w"]
    assert np.all(np.diff(w) > 0)
    phi = sol.trajectory["phi"]
    assert np.all(np.diff(phi) > 0)
    assert abs(float(sol.phi(sol.a_eff)) + 0.5 * pi_p(3.0)) < 1e-15
    assert abs(float(sol.log_e(sol.a_eff))
               - math.log(sol.problem.params.alpha)) < 1e-15


def test_w_at_the_zero_start():
    # the solve starts past t = 0; the limiting value there is still
    # reported (the oracle cross-check covers b at this problem)
    sol = solve_model(ModelProblem(PParams(1.5, 3, 1.0), 0.0))
    assert abs(float(sol.w(0.0)) + 1.0) < 1e-9


def test_amplitude_identity():
    # e^p = wdot^p + alpha^p w^p pointwise (defining identity)
    pp = PParams(1.7, 2, 2.3)
    sol = solve_model(ModelProblem(pp, 0.9))
    ts = np.linspace(sol.a_eff, sol.b, 50)
    lhs = sol.e(ts) ** pp.p
    rhs = np.abs(sol.wdot(ts)) ** pp.p + pp.alpha**pp.p * np.abs(sol.w(ts)) ** pp.p
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-9
