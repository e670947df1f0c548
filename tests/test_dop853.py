"""Tests of the float-native DOP853 integrator (pspectral._dop853).

The oracle is scipy's solve_ivp(method="DOP853"), the code the
integrator ports (oracles.dop853_reference).  It runs on the very
right-hand sides, tolerances and events that the package's phase solves
and certificate barriers hand to the integrator, captured in flight.
"""

import math

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as co

from pspectral import _dop853, comparison, model1d
from pspectral.cli import main
from pspectral.comparison import build_certificate
from pspectral.model1d import ModelProblem, PParams, solve_model

from oracles import dop853_reference


def test_tableau_imported_from_scipy():
    # the integrator reads scipy's private coefficient module; a scipy
    # that moves or changes it fails here rather than at run time
    assert (co.N_STAGES, co.N_STAGES_EXTENDED, co.INTERPOLATOR_POWER) == (12, 16, 7)
    assert co.A.shape == (16, 16) and co.C.shape == (16,)
    assert co.B.shape == (12,) and co.E3.shape == co.E5.shape == (13,)
    assert co.D.shape == (4, 16)
    assert not np.triu(co.A).any()  # explicit: strictly lower triangular
    np.testing.assert_allclose(co.A.sum(axis=1), co.C, rtol=0.0, atol=1e-14)
    assert abs(co.B.sum() - 1.0) < 1e-14
    assert abs(co.B @ co.C[:12] - 0.5) < 1e-14


def _oscillator(t, y):
    return [-y[1], y[0]]  # y = (cos t, sin t) from (1, 0) at t = 0


def _event(fn, terminal=False, direction=0.0):
    fn.terminal, fn.direction = terminal, direction
    return fn


def test_backward_span():
    # from t = 2 back to t = -1 on the exact circle
    y0 = [math.cos(2.0), math.sin(2.0)]
    sol = _dop853.solve(_oscillator, 2.0, -1.0, y0, 1e-12, 1e-13)
    ref = dop853_reference(_oscillator, 2.0, -1.0, y0, 1e-12, 1e-13)
    assert sol.status == 0 and sol.t[-1] == -1.0
    assert np.all(np.diff(sol.t) < 0.0)
    ts = np.linspace(2.0, -1.0, 301)
    y = sol(ts)
    assert np.max(np.abs(y - [np.cos(ts), np.sin(ts)])) < 1e-11
    assert np.max(np.abs(y - ref.sol(ts))) < 1e-13
    assert abs(sol.nfev - ref.nfev) <= 0.01 * ref.nfev
    assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected) + 3 * sol.steps


def test_terminal_event_truncates_the_last_step():
    # cos t falls through 0 at pi/2, inside the step that would pass it
    ev = _event(lambda t, y: y[0], terminal=True, direction=-1.0)
    sol = _dop853.solve(_oscillator, 0.0, 10.0, [1.0, 0.0], 1e-12, 1e-13,
                        events=(ev,))
    assert sol.status == 1 and sol.message == "A termination event occurred."
    assert sol.t_events[0] == [sol.t[-1]]
    assert abs(sol.t[-1] - 0.5 * math.pi) < 1e-12
    assert abs(sol.y_events[0][0][1] - 1.0) < 1e-12
    # the last step was taken past the root; its dense output still covers it
    t_past = sol.t[-1] + 1e-3
    assert abs(sol(t_past)[0] - math.cos(t_past)) < 1e-10


def test_event_direction_filters_crossings():
    down = _event(lambda t, y: y[0], direction=-1.0)
    up = _event(lambda t, y: y[0], direction=1.0)
    both = _event(lambda t, y: y[0])
    sol = _dop853.solve(_oscillator, 0.0, 3.0, [1.0, 0.0], 1e-12, 1e-13,
                        events=(down, up, both))
    assert sol.status == 0
    # cos crosses 0 only downward on [0, 3]: the rising event sees nothing
    assert len(sol.t_events[0]) == 1 and sol.t_events[1] == []
    assert sol.t_events[2] == sol.t_events[0]
    assert abs(sol.t_events[0][0] - 0.5 * math.pi) < 1e-12


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_right_hand_side_ends_as_a_failure(bad):
    # the first step that meets inf or nan raises, as scipy's numpy
    # arithmetic did under the guard's errstate
    times = []

    def rhs(t, y):
        times.append(t)
        return [bad if t > 0.5 else 1.0]

    with pytest.raises(FloatingPointError, match="left the float range"):
        _dop853.solve(rhs, 0.0, 2.0, [0.0], 1e-12, 1e-13)
    assert len(times) < 300
    with pytest.raises(FloatingPointError, match="at the start"):
        _dop853.solve(lambda t, y: [bad], 0.0, 2.0, [0.0], 1e-12, 1e-13)


def test_overflowing_stages_are_a_floating_point_failure():
    # Python floats overflow to inf silently; y' = y^2 from 1e200
    with pytest.raises(FloatingPointError):
        _dop853.solve(lambda t, y: [y[0] * y[0]], 0.0, 1.0, [1e200],
                      1e-12, 1e-13)


def _failing_phase_speed(exc, after):
    speed = model1d._phase_speed
    calls = [0]

    def phase_speed(*args):
        calls[0] += 1
        if calls[0] > after:
            raise exc("injected")
        return speed(*args)

    return phase_speed


@pytest.mark.parametrize("exc", [OverflowError, ZeroDivisionError])
def test_float_exception_in_the_phase_solve_is_a_value_error(monkeypatch, exc):
    # Python floats raise where numpy only warned; the exception leaves
    # the integrator as it came and solve_model's guard reports it
    monkeypatch.setattr(model1d, "_phase_speed", _failing_phase_speed(exc, 200))
    with pytest.raises(exc):
        model1d._solve_phase(2.0, 3.0, 1.0)
    with pytest.raises(ValueError, match="floating-point failure"):
        solve_model(ModelProblem(PParams(2.0, 3.0), 1.0))


def test_division_by_zero_does_not_escape_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(model1d, "_phase_speed",
                        _failing_phase_speed(ZeroDivisionError, 200))
    assert main(["model", "--p", "2", "--n", "3", "--a", "1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_division_by_zero_in_the_barrier_fails_the_certificate(monkeypatch):
    sol = solve_model(ModelProblem(PParams(2.0, 3.0), 1.0))
    rate = comparison._x_rate

    def x_rate(p, lam1, x, tv):
        if -2.0 / tv > sol.t0 + 0.3 * (sol.b - sol.t0):
            return 1.0 / 0.0
        return rate(p, lam1, x, tv)

    monkeypatch.setattr(comparison, "_x_rate", x_rate)
    cert = build_certificate(sol)
    assert cert.diagnostics["f_blowup"] is True
    assert not cert.verdict["slacks_positive"] and not cert.verdict["ordering"]
    assert not cert.all_ok


def test_step_counts_in_the_diagnostics():
    prob = ModelProblem(PParams(2.0, 3.0), 1.0)
    d = solve_model(prob).diagnostics
    assert d["steps"] > 0 and d["rejected"] >= 0
    # scipy's count: two evaluations to start, 12 per attempt, 3 more
    # per accepted step for the dense output
    assert d["nfev"] == 2 + 12 * (d["steps"] + d["rejected"]) + 3 * d["steps"]
    assert solve_model(prob).diagnostics == d
    sol = solve_model(prob)
    c1, c2 = build_certificate(sol).diagnostics, build_certificate(sol).diagnostics
    keys = ("nfev_forward", "nfev_backward", "steps_forward", "steps_backward")
    assert all(c1[k] > 0 for k in keys)
    assert [c1[k] for k in keys] == [c2[k] for k in keys]


def _capture(monkeypatch, run):
    """The arguments of every integrator call that run() makes."""
    calls = []
    solve = _dop853.solve

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(_dop853, "solve", record)
        run()
    return calls


def _assert_matches_scipy(args, kwargs, tol, nfev_tol):
    ours = _dop853.solve(*args, **kwargs)
    ref = dop853_reference(*args, **kwargs)
    assert ours.status == ref.status
    for te, rte, ye, rye in zip(ours.t_events, ref.t_events, ours.y_events,
                                ref.y_events):
        assert len(te) == len(rte)
        np.testing.assert_allclose(te, rte, rtol=tol, atol=0.0)
        for y, ry in zip(ye, rye):
            assert np.all(np.abs(np.array(y) - ry)
                          <= tol * np.maximum(1.0, np.abs(ry)))
    # the span both integrated
    end = min(ours.t[-1], ref.t[-1], key=lambda e: abs(e - ours.t[0]))
    ts = np.linspace(ours.t[0], end, 1000)
    y, ry = ours(ts), ref.sol(ts)
    assert np.max(np.abs(y - ry) / np.maximum(1.0, np.abs(ry))) <= tol
    assert abs(ours.nfev - ref.nfev) <= nfev_tol * ref.nfev
    return ours, ref


@pytest.mark.parametrize("p,n,a", [(2.0, 3.0, 1.0), (3.0, 2.0, 100.0),
                                   (1.5, 3.0, 0.0), (5.0, 3.0, 0.0)])
def test_phase_solve_matches_scipy(monkeypatch, p, n, a):
    (args, kwargs), = _capture(
        monkeypatch, lambda: solve_model(ModelProblem(PParams(p, n), a)))
    ours, ref = _assert_matches_scipy(args, kwargs, 1e-12, 0.01)
    log_m, ref_log_m = ours.y_events[1][0][1], ref.y_events[1][0][1]
    assert abs(log_m - ref_log_m) <= 1e-12 * abs(ref_log_m)


@pytest.mark.parametrize("p,n,a", [(2.0, 3.0, 1.0), (2.0, 3.0, 100.0),
                                   (3.0, 2.0, 1.0), (3.0, 2.0, 100.0)])
def test_barrier_sides_match_scipy(monkeypatch, p, n, a):
    sol = solve_model(ModelProblem(PParams(p, n), a))
    calls = _capture(monkeypatch, lambda: build_certificate(sol))
    assert len(calls) == 2  # forward and backward
    for args, kwargs in calls:
        _assert_matches_scipy(args, kwargs, 1e-12, 0.01)
