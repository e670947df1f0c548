"""Tests for the discrete eigensolvers and comparison checks.

Oracles:
* classical closed forms (pi^2 for the p = 2 segment, cos eigenfunction);
* the exact scale covariance of the radial problem, lam(R) =
  (p-1) (b1/R)^p, which makes the shooting backend self-checking;
* cross-backend agreement (variational vs shooting) on radial domains;
* at p = 2, the dense generalized eigenproblem of the discrete pencil
  (scipy.linalg.eig), against which Newton's eigenvalue is checked, and
  at other p the descent, which approaches the discrete minimum from
  above;
* closed-form bound values evaluated by hand at p = 2, d = pi;
* an mpmath bisection for the p-mean shift (tests/oracles.py);
* the bordered Newton system assembled in COO form and solved densely
  (tests/oracles.py), against which the banded Newton step is checked;
* a frozen copy of the per-level descent in its original arithmetic
  (tests/oracles.py), which the lean descent must match bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st
from scipy.linalg import eig
from scipy.linalg.lapack import dgbsv

from pspectral import (
    INFINITY,
    DiscreteFunction,
    ModelProblem,
    PParams,
    SolverOptions,
    E_profile,
    bounds_table,
    build_domain,
    gradient_comparison_check,
    pi_p,
    rayleigh_quotient,
    sin_p,
    solve_eigen_shooting,
    solve_eigen_variational,
    solve_model,
)
from pspectral import spectral1d
from pspectral._util import spow

from oracles import bordered_step_reference, descend_reference, pmean_shift_mp

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def radial_pair():
    """Radial n=3, p=2 shooting result and the matched profile."""
    dom = build_domain("radial", 2000, R=1.0, n=3.0)
    res = solve_eigen_shooting(dom, 2.0)
    sol = solve_model(ModelProblem(PParams(2.0, 3.0, res.lam), 0.0))
    return res, sol


def test_build_domain_segment():
    dom = build_domain("segment", 17, x0=0.0, x1=1.0)
    assert dom.N == 17
    assert dom.spacing == pytest.approx(1.0 / 16.0, abs=0)
    np.testing.assert_allclose(dom.nodes, np.linspace(0, 1, 17))
    # endpoint-halved node weights sum to the length
    assert dom.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert dom.weights[0] == pytest.approx(dom.spacing / 2)
    assert dom.cell_weights.shape == (16,)
    assert not dom.periodic


def test_build_domain_circle():
    dom = build_domain("circle", 64, L=2 * np.pi)
    assert dom.periodic
    assert dom.spacing == pytest.approx(2 * np.pi / 64)
    assert dom.nodes[0] == 0.0
    # node N identifies with node 0: the forward difference wraps
    u = np.cos(dom.nodes)
    du = dom.diff(u)
    assert du.shape == (64,)
    assert du[-1] == pytest.approx((u[0] - u[-1]) / dom.spacing, abs=0)
    assert dom.weights.sum() == pytest.approx(2 * np.pi, rel=1e-14)


def test_build_domain_radial():
    dom = build_domain("radial", 33, R=1.0, n=3.0)
    # weights proportional to t^2 (trapezoid), zero at the center
    assert dom.weights[0] == 0.0
    inner = dom.weights[1:-1] / (dom.nodes[1:-1] ** 2 * dom.spacing)
    np.testing.assert_allclose(inner, 1.0, rtol=1e-14)
    assert dom.weights[-1] == pytest.approx(dom.spacing / 2, rel=1e-14)
    # n = 1 keeps positive center weight
    dom1 = build_domain("radial", 33, R=1.0, n=1.0)
    assert dom1.weights[0] > 0.0


def test_build_domain_validation():
    with pytest.raises(ValueError):
        build_domain("segment", 8, x0=0.0, x1=1.0)
    with pytest.raises(ValueError):
        build_domain("segment", 20, x0=1.0, x1=0.0)
    with pytest.raises(ValueError):
        build_domain("circle", 20)
    with pytest.raises(ValueError):
        build_domain("radial", 20, R=1.0, n=0.5)
    with pytest.raises(ValueError):
        build_domain("torus", 20, L=1.0)


def test_discrete_function_validation():
    dom = build_domain("segment", 16, x0=0.0, x1=1.0)
    with pytest.raises(ValueError):
        DiscreteFunction(dom, np.zeros(15))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        DiscreteFunction(dom, bad)


def test_rayleigh_classical_cos():
    dom = build_domain("segment", 4001, x0=0.0, x1=1.0)
    u = DiscreteFunction(dom, np.cos(np.pi * dom.nodes))
    assert rayleigh_quotient(u, 2.0) == pytest.approx(np.pi**2, rel=1e-6)


def test_rayleigh_sinp_equality_profile():
    # sin_p samples on (0, pi_p): quotient/(p-1) tends to 1 (unit rate)
    for p in (1.5, 2.0, 3.0):
        pp = pi_p(p)
        dom = build_domain("segment", 4001, x0=0.0, x1=pp)
        u = DiscreteFunction(dom, sin_p(dom.nodes - pp / 2.0, p))
        rq = rayleigh_quotient(u, p)
        assert rq / (p - 1.0) == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_rayleigh_quotient_is_scale_free(scale):
    # p = 3 overflows |u|^p at 1e200 and underflows it to zero at 1e-200
    dom = build_domain("segment", 32, x0=0.0, x1=1.0)
    base = np.cos(np.pi * dom.nodes)
    ref = rayleigh_quotient(DiscreteFunction(dom, base), 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rayleigh_quotient(DiscreteFunction(dom, scale * base), 3.0)
    assert got == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("p", [math.inf, 1e308])
def test_rayleigh_quotient_rejects_a_p_without_finite_powers(p):
    dom = build_domain("segment", 32, x0=0.0, x1=1.0)
    u = DiscreteFunction(dom, np.cos(np.pi * dom.nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            rayleigh_quotient(u, p)


def test_rayleigh_rejects_constant():
    dom = build_domain("circle", 64, L=2.0)
    u = DiscreteFunction(dom, np.ones(64))
    with pytest.raises(ValueError):
        rayleigh_quotient(u, 2.0)


# ------------------------------------------------------- p-mean shift

def _shift_vectors(p):
    """Named (values, weights) pairs: a shift next to 0 (where the
    Newton start sits), 0 outside [min, max], exact zeros at the start
    c = 0, radial weights with w[0] = 0, and weights of 5e-324, under
    which every product w |x|^(p-1) is a multiple of 5e-324 unless the
    weights are scaled up first (unscaled, p = 2 stopped at c = 0.5,
    where the root is 2/3)."""
    rng = np.random.default_rng(2024)
    flat = np.full(40, 1.0 / 40)
    base = rng.standard_normal(40)
    near = base - float(pmean_shift_mp(base, flat, p))
    positive = (1.0 + rng.random(40), 0.5 + rng.random(40))
    zeros = rng.standard_normal(40)
    zeros[::5] = 0.0
    dom = build_domain("radial", 40, R=1.0, n=3.0)
    radial = np.cos(3.0 * dom.nodes) + 0.1 * rng.standard_normal(40)
    return {"near_zero": (near, flat), "positive": positive,
            "zeros": (zeros, flat), "radial": (radial, dom.weights),
            "subnormal": (np.array([0.0, 0.0, 2.0]), np.full(3, 5e-324))}


@pytest.mark.parametrize("name", ["near_zero", "positive", "zeros", "radial",
                                  "subnormal"])
@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 8.0])
def test_pmean_shift_matches_mpmath_oracle(p, name):
    # bound: one eps * max(1, |min| + |max|); bisection to the same
    # stopping tolerance is off by up to 1.67 of those units on these
    # vectors (positive, p = 2), the Newton iteration by at most 0.18
    v, w = _shift_vectors(p)[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = spectral1d._pmean_shift(v, w, p)
    ref = pmean_shift_mp(v, w, p)
    scale = max(1.0, abs(v.min()) + abs(v.max()))
    err = float(abs(ref - c)) / (EPS * scale)
    assert err <= 1.0, (c, ref, err)


@pytest.mark.parametrize("v, w", [
    ([-1.0, 1e-300, 2.0, 0.5], [1.0] * 4),
    ([2.225073858507e-311, -1.0], [6.0, 0.0]),
    ([-1e-300, 5e-324, 1.0, 1.0], [1e-6, 1e-6, 1.0, 1.0]),
])
@pytest.mark.parametrize("p", [1.01, 1.05, 1.5, 1.9, 3.0])
def test_pmean_shift_tiny_entry_next_to_the_start(v, w, p):
    # an entry just off the start c = 0 makes g' huge there at p < 2 (at
    # p = 1.01 it overflows in the last two vectors), so the first Newton
    # step is tiny even where the root is far from 0 (near 1 in the last)
    v, w = np.array(v), np.array(w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = spectral1d._pmean_shift(v, w, p)
    scale = max(1.0, abs(v.min()) + abs(v.max()))
    assert abs(c - float(pmean_shift_mp(v, w, p))) <= 4.0 * EPS * scale


class _CountedValues(np.ndarray):
    """Counts the passes of `_pmean_shift`: each reads the values once
    through a ufunc, as `values - c`, or as `abs(values)` when c = 0."""
    passes = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and ufunc in (np.subtract, np.absolute):
            type(self).passes += 1
        inputs = tuple(np.asarray(x) for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("p, most", [(2.0, 2), (2.5, 5), (3.0, 5), (8.0, 5)])
def test_pmean_shift_newton_through_exact_zeros(p, most):
    # at p >= 2, g' is finite at an exact zero of x (|x|^(p-2) is 1 at
    # p = 2, 0 above), so the start c = 0 takes a Newton step; at p = 2
    # that step lands on the root.  Bisecting there instead costs 8-12
    # passes on this vector
    v, w = _shift_vectors(p)["zeros"]
    _CountedValues.passes = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = spectral1d._pmean_shift(v.view(_CountedValues), w, p)
    assert 1 <= _CountedValues.passes <= most
    scale = max(1.0, abs(v.min()) + abs(v.max()))
    assert abs(c - float(pmean_shift_mp(v, w, p))) <= EPS * scale


def _g_and_rounding(v, w, p, c):
    """g(c), and the bound on |g(c)| for a c within the root-finder's
    tolerance of a root of g: rounding of the sum plus the largest
    change of g over that tolerance.  The weights are first scaled by
    the power of two that puts max(w) in [1, 2): g scales exactly and
    its root stays, while tiny weights (5e-324) would leave g a
    staircase of subnormals that no bound can judge."""
    w = np.ldexp(w, 1 - math.frexp(float(w.max()))[1])
    x = v - c
    g = float(np.dot(w, spow(x, p - 1.0)))
    total = float(np.dot(w, np.abs(x) ** (p - 1.0)))
    delta = 2e-15 * max(1.0, abs(v.min()) + abs(v.max()))
    moved = np.maximum(np.abs(spow(x + delta, p - 1.0) - spow(x, p - 1.0)),
                       np.abs(spow(x - delta, p - 1.0) - spow(x, p - 1.0)))
    rounding = 4.0 * (len(v) + p) * EPS * total
    return g, rounding + float(np.dot(w, moved))


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       p=st.floats(min_value=1.01, max_value=20.0, exclude_min=True),
       size=st.integers(min_value=2, max_value=40))
def test_pmean_shift_property(data, p, size):
    # |values| <= 1e6 keeps |x|^(p-1) finite up to p = 20
    values = np.array(data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=size,
        max_size=size)))
    weights = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1e3), min_size=size,
        max_size=size)))
    if values.min() == values.max() or not weights.any():
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = spectral1d._pmean_shift(values, weights, p)
        g, bound = _g_and_rounding(values, weights, p, c)
    assert values.min() <= c <= values.max()
    assert abs(g) <= bound, (c, g, bound)


# ------------------------------------------------- periodic differences

@pytest.mark.parametrize("kind", ["circle", "segment"])
def test_diff_adjoint_is_the_adjoint(kind):
    rng = np.random.default_rng(5)
    for N in (16, 17, 600):
        dom = build_domain(kind, N, L=2.0)
        x = rng.standard_normal(N)
        q = rng.standard_normal(len(dom.cell_weights))
        left = float(np.dot(dom.diff(x), q))
        right = float(np.dot(x, dom.diff_adjoint(q)))
        assert abs(left - right) <= 1e-13 * np.linalg.norm(dom.diff(x)) \
            * np.linalg.norm(q)


def test_circle_diff_bit_identical_to_roll():
    # the periodic differences written with np.roll; repeated entries
    # check the sign of a zero difference too
    rng = np.random.default_rng(6)
    for N in (16, 17, 600):
        dom = build_domain("circle", N, L=2.0)
        v = rng.standard_normal(N) * 10.0 ** rng.uniform(-5, 5, N)
        v[3] = v[2]
        v[-1] = v[0]
        h = dom.spacing
        assert dom.diff(v).tobytes() == ((np.roll(v, -1) - v) / h).tobytes()
        assert dom.diff_adjoint(v).tobytes() == \
            ((np.roll(v, 1) - v) / h).tobytes()


@pytest.mark.parametrize("kind, p, N, cap", [
    pytest.param(kind, p, N, cap, id=f"{p}-{kind}{tag}")
    for N, cap, tag in ((40, 600, ""), (600, 200, "-N600"))
    for p in (1.5, 2.0, 3.0) for kind in ("circle", "radial", "segment")])
def test_descend_matches_reference_bit_for_bit(kind, p, N, cap):
    # at N = 40 and a 600 cap, p = 2 (and the segment at p = 3) stall and
    # the others stop at the cap; at N = 600 (the finest mesh of the
    # benchmark's solves, whose array lengths leave other SIMD tails)
    # every level runs its 200 iterations through the reused buffers
    dom = build_domain(kind, N, L=2.0, R=1.0, n=3.0)
    v0 = spectral1d._initial_guess(dom, p, np.random.default_rng(7))
    v, lam, it, stopped = spectral1d._descend(dom, v0, p, cap)
    rv, rlam, rit, rstopped = descend_reference(dom, v0, p, cap)
    assert v.tobytes() == rv.tobytes()
    assert (lam.hex(), it, stopped) == (rlam.hex(), rit, rstopped)
    stalls = N == 40 and (p == 2.0 or (kind, p) == ("segment", 3.0))
    assert stopped == ("stall" if stalls else "cap")


def test_variational_segment_p2():
    dom = build_domain("segment", 2000, x0=0.0, x1=1.0)
    res = solve_eigen_variational(dom, 2.0)
    assert res.converged
    assert res.lam == pytest.approx(np.pi**2, rel=1e-3)
    # result invariants
    u = res.u.values
    assert u.min() == pytest.approx(-1.0, abs=1e-14)
    pnorm = float(np.dot(dom.weights, np.abs(u) ** 2))
    pmean = float(np.dot(dom.weights, u))
    assert abs(pmean) / pnorm < 1e-10
    assert rayleigh_quotient(res.u, 2.0) == pytest.approx(res.lam, rel=1e-12)
    assert res.residual < 1e-10
    # equality case is max/min symmetric up to discretization
    assert abs(u.max() - 1.0) <= 10.0 * dom.spacing
    assert set(res.normalization) == {"scale", "shift"}


def test_variational_segment_p3():
    dom = build_domain("segment", 2000, x0=0.0, x1=1.0)
    res = solve_eigen_variational(dom, 3.0)
    ref = 2.0 * pi_p(3.0) ** 3
    assert res.lam == pytest.approx(ref, rel=5e-3)
    assert abs(res.u.values.max() - 1.0) <= 10.0 * dom.spacing


def test_variational_circle():
    dom = build_domain("circle", 600, L=2.0)
    res = solve_eigen_variational(dom, 1.5)
    ref = 0.5 * pi_p(1.5) ** 1.5
    assert res.lam == pytest.approx(ref, rel=5e-3)
    assert abs(res.u.values.max() - 1.0) <= 10.0 * dom.spacing


def test_variational_seed_determinism():
    dom = build_domain("segment", 300, x0=0.0, x1=1.0)
    a = solve_eigen_variational(dom, 2.5, SolverOptions(seed=3))
    b = solve_eigen_variational(dom, 2.5, SolverOptions(seed=3))
    assert a.lam == b.lam
    np.testing.assert_array_equal(a.u.values, b.u.values)


def test_variational_converged_counts_every_level(monkeypatch):
    # the circle runs the descent; its chain for N = 100 is [50, 100].
    # At p = 2.5 the coarse level stalls after ~3.8k steps, so a 3000 cap
    # stops it while the warm-started finest level still stalls:
    # converged must be False all the same
    dom = build_domain("circle", 100, L=2.0)
    monkeypatch.setattr(spectral1d, "_LEVEL_CAPS", (3000, 3000, 100_000))
    res = solve_eigen_variational(dom, 2.5)
    assert res.diagnostics["solver"] == "descent"
    assert "newton_failure" not in res.diagnostics
    stops = [lv["stopped_by"] for lv in res.diagnostics["levels"]]
    assert stops == ["cap", "stall"]
    assert not res.converged
    monkeypatch.setattr(spectral1d, "_LEVEL_CAPS", (2, 2, 2))
    res = solve_eigen_variational(dom, 2.5)
    assert all(lv["stopped_by"] == "cap" for lv in res.diagnostics["levels"])
    assert not res.converged


# ------------------------------------------------ Newton and its fallback

def _pencil_lambda(dom):
    """The smallest positive finite eigenvalue of the p = 2 pencil
    D^T diag(cw) D u = lam diag(w) u, dense.  eig, not eigh: radial
    weights vanish at t = 0 (n > 1), so diag(w) is singular there."""
    D = (np.eye(dom.N, k=1) - np.eye(dom.N))[:-1] / dom.spacing
    vals = eig(D.T @ np.diag(dom.cell_weights) @ D, np.diag(dom.weights),
               right=False)
    vals = vals[np.isfinite(vals)].real
    return float(vals[vals > 1e-6].min())


@pytest.mark.parametrize("kind, n, N", [
    ("segment", None, 40), ("segment", None, 200), ("radial", 1.0, 200),
    ("radial", 3.0, 40), ("radial", 3.0, 200)])
def test_newton_p2_matches_the_dense_pencil(kind, n, N):
    dom = build_domain(kind, N, x0=0.0, x1=1.0, R=1.0, n=n)
    res = solve_eigen_variational(dom, 2.0)
    assert res.diagnostics["solver"] == "newton" and res.converged
    assert res.lam == pytest.approx(_pencil_lambda(dom), rel=1e-10)
    assert spectral1d._sign_changes(res.u.values) == 1


@pytest.mark.parametrize("kind, n", [("segment", None), ("radial", 1.0),
                                     ("radial", 3.0), ("radial", 5.0)])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_newton_is_the_minimizer_the_descent_approaches(kind, n, p):
    # the descent decreases the Rayleigh quotient from above, so the
    # discrete minimizer lies at or below wherever it stops
    dom = build_domain(kind, 300, x0=0.0, x1=1.0, R=1.0, n=n)
    res = solve_eigen_variational(dom, p)
    assert res.diagnostics["solver"] == "newton" and res.converged
    assert spectral1d._sign_changes(res.u.values) == 1
    assert rayleigh_quotient(res.u, p) == pytest.approx(res.lam, rel=1e-12)
    descent = spectral1d._descent(dom, p, SolverOptions(), None)
    assert res.lam <= descent.lam
    assert res.lam == pytest.approx(descent.lam, rel=1e-3)
    # continuation stages end at the target p, each on its residual
    stages = res.diagnostics["levels"]
    assert stages[0]["p"] == 2.0 and stages[-1]["p"] == p
    assert all(set(st) >= {"N", "iterations", "rq", "stopped_by"}
               for st in stages)
    assert res.iterations == sum(st["iterations"] for st in stages)


@pytest.mark.parametrize("kind, N, p, n, reason", [
    ("segment", 16, 1.1, None, "p below"),
    # above p = 40 the regularized cell terms (Du^2 + eps^2)^((p-2)/2)
    # next to the center underflow and the Jacobian is singular: the
    # banded LU meets a zero pivot or returns a non-finite step
    ("radial", 16, 200.0, 3.0, "continuation stalled"),
])
def test_newton_falls_back_to_the_descent(kind, N, p, n, reason):
    dom = build_domain(kind, N, x0=0.0, x1=1.0, R=1.0, n=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_eigen_variational(dom, p)
    assert res.diagnostics["solver"] == "descent"
    assert reason in res.diagnostics["newton_failure"]
    assert np.isfinite(res.lam) and res.lam > 0.0


def _newton_states(dom, p):
    """(name, u, lam): a stage start, an iterate one damped step into
    the stage, and the converged pair.  The start at p = 2 is the
    continuation's shifted cos guess, elsewhere the converged p = 2 pair
    rescaled to unit p-norm; the damped step is the reference's, halved
    as a stage halves it."""
    system, w = spectral1d._Bordered(dom), dom.weights
    if p == 2.0:
        u = -np.cos(np.pi * (dom.nodes - dom.nodes[0]) / dom.length)
        u -= np.dot(w, u) / w.sum()
    else:
        u = spectral1d._newton_continuation(dom, 2.0)[0]
    u = u / float(np.dot(w, np.abs(u) ** p)) ** (1.0 / p)
    lam = float(np.dot(dom.cell_weights, np.abs(dom.diff(u)) ** p))
    yield "start", u, lam
    F, G, size = system.residual(u, lam, p)
    du, dlam, _ = bordered_step_reference(dom, u, lam, p, F, G,
                                          spectral1d._JAC_EPS)
    t = 1.0
    while (system.residual(u + t * du, lam + t * dlam, p)[2] >= size
           and t > spectral1d._MIN_DAMPING):
        t *= 0.5
    yield "mid-stage", u + t * du, lam + t * dlam
    u, lam = spectral1d._newton_continuation(dom, p)[:2]
    yield "converged", u, lam


@pytest.mark.parametrize("kind, n", [("segment", None), ("radial", 1.0),
                                     ("radial", 3.0)])
@pytest.mark.parametrize("N", [40, 200])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_banded_step_matches_the_dense_bordered_solve(kind, n, N, p):
    # Both solves are backward stable, so each step's error is of size
    # eps cond(J, d), Skeel's condition number ||J^-1| |J| |d||/|d|,
    # which row scaling (the radial weights vanish at the center) leaves
    # alone.  Over these 54 states the gap in that unit was at most 0.75
    # (radial n = 3, N = 200, p = 2); 8 leaves ten times that.  At p = 2
    # the converged pair makes T singular to rounding, and the steps are
    # pure rounding.
    dom = build_domain(kind, N, x0=0.0, x1=1.0, R=1.0, n=n)
    system = spectral1d._Bordered(dom)
    for state, u, lam in _newton_states(dom, p):
        F, G, _ = system.residual(u, lam, p)
        du, dlam = system.newton_step(u, lam, p, F, G)
        ref_du, ref_dlam, J = bordered_step_reference(
            dom, u, lam, p, F, G, spectral1d._JAC_EPS)
        d, ref = np.append(du, dlam), np.append(ref_du, ref_dlam)
        scale = np.abs(ref).max()
        cond = np.abs(np.abs(np.linalg.inv(J)) @ (np.abs(J) @ np.abs(ref))
                      ).max() / scale
        assert np.abs(d - ref).max() / scale <= 8.0 * EPS * cond, state


def test_singular_jacobian_falls_back_without_a_warning(monkeypatch):
    # a zero column in the band (x_0's: T's first column and -p wu_0)
    # makes LAPACK meet an exact zero pivot in its first column
    def zero_pivot(kl, ku, ab, b):
        ab = ab.copy()
        ab[:, 0] = 0.0
        return dgbsv(kl, ku, ab, b)

    monkeypatch.setattr(spectral1d, "dgbsv", zero_pivot)
    dom = build_domain("segment", 64, x0=0.0, x1=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_eigen_variational(dom, 2.0)
    assert res.diagnostics["solver"] == "descent"
    assert "singular Jacobian" in res.diagnostics["newton_failure"]
    assert res.lam == pytest.approx(np.pi**2, rel=1e-3)


def test_variational_convergence_order():
    # equality-case eigenvalue error must shrink at least linearly in h
    ref = np.pi**2
    errs = []
    for N in (100, 200, 400):
        dom = build_domain("segment", N, x0=0.0, x1=1.0)
        res = solve_eigen_variational(dom, 2.0)
        errs.append(abs(res.lam - ref))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.0, errs


def test_shooting_fixed_point_and_covariance():
    # R = b1 makes lam = p-1 exactly; doubling R divides lam by 2^p
    p, n = 3.0, 2.0
    base = solve_model(ModelProblem(PParams(p, n, p - 1.0), 0.0))
    b1 = base.b
    assert b1 > pi_p(p)  # strictly wider window than the drift-free case
    dom_fix = build_domain("radial", 400, R=b1, n=n)
    res_fix = solve_eigen_shooting(dom_fix, p)
    assert res_fix.lam == pytest.approx(p - 1.0, rel=1e-9)
    dom1 = build_domain("radial", 400, R=1.0, n=n)
    dom2 = build_domain("radial", 400, R=2.0, n=n)
    lam1 = solve_eigen_shooting(dom1, p).lam
    lam2 = solve_eigen_shooting(dom2, p).lam
    assert lam2 == pytest.approx(lam1 / 2.0**p, rel=1e-12)


def test_shooting_result_invariants(radial_pair):
    res, _ = radial_pair
    assert res.method == "shooting"
    assert res.converged
    u = res.u.values
    dom = res.u.domain
    assert u.min() == pytest.approx(-1.0, abs=1e-14)
    pmean = abs(float(np.dot(dom.weights, spow(u, res.p - 1.0))))
    assert pmean < 1e-12
    # discrete Rayleigh quotient matches the continuum eigenvalue to
    # quadrature accuracy
    assert res.residual < 1e-5
    assert rayleigh_quotient(res.u, res.p) == pytest.approx(res.lam, rel=1e-5)


def test_shooting_vs_variational(radial_pair):
    res, _ = radial_pair
    dom = res.u.domain
    rv = solve_eigen_variational(dom, 2.0)
    assert rv.lam == pytest.approx(res.lam, rel=5e-3)


def test_shooting_requires_radial():
    dom = build_domain("segment", 100, x0=0.0, x1=1.0)
    with pytest.raises(ValueError):
        solve_eigen_shooting(dom, 2.0)


def test_gradient_comparison_radial(radial_pair):
    res, sol = radial_pair
    rep = gradient_comparison_check(res, sol)
    assert rep["passed"]
    # the sampled profile is the exact eigenfunction: no violation at all
    assert rep["max_violation"] <= 1e-5
    assert rep["n_cells"] == res.u.domain.N - 1
    assert rep["allowed_normalized"] == pytest.approx(
        5.0 * rep["h_normalized"]
    )


def test_gradient_comparison_segment_equality():
    dom = build_domain("segment", 2000, x0=0.0, x1=1.0)
    for p in (1.5, 3.0):
        res = solve_eigen_variational(dom, p)
        sol = solve_model(ModelProblem(PParams(p, 1.0, res.lam), INFINITY))
        rep = gradient_comparison_check(res, sol)
        assert rep["passed"], rep


def test_gradient_comparison_strict_slack(radial_pair):
    # shrinking the function leaves the profile bound untouched: the
    # comparison then holds with strict slack everywhere.
    res, sol = radial_pair
    half = replace(res, u=DiscreteFunction(res.u.domain, res.u.values * 0.5))
    rep = gradient_comparison_check(half, sol)
    assert rep["passed"]
    assert rep["max_violation"] < -0.1


def test_gradient_comparison_mismatch_rejected(radial_pair):
    res, sol = radial_pair
    wrong_p = replace(res, p=3.0)
    with pytest.raises(ValueError, match="exponent"):
        gradient_comparison_check(wrong_p, sol)
    wrong_lam = replace(res, lam=res.lam * 1.01)
    with pytest.raises(ValueError, match="eigenvalue"):
        gradient_comparison_check(wrong_lam, sol)
    big = replace(res, u=DiscreteFunction(res.u.domain, res.u.values * 3.0))
    with pytest.raises(ValueError, match="covered"):
        gradient_comparison_check(big, sol)


def test_E_profile_radial_constant(radial_pair):
    res, sol = radial_pair
    rep = E_profile(res, sol)
    assert rep["monotone_ok"]
    assert rep["spread"] <= 10.0 * rep["h_normalized"]
    assert rep["n_kept"] > 100
    # kept samples straddle the profile zero
    assert rep["s"][0] < rep["t0"] < rep["s"][-1]


def _flux(sol, t):
    """-t^(n-1) wdot(t)^(p-1) / lam, the integral of w^(p-1) t^(n-1)
    from a to t by the divergence form of the model (n = 1 when a =
    INFINITY)."""
    pp = sol.problem.params
    k = 0.0 if sol.problem.a == INFINITY else pp.n_dim - 1.0
    return -t ** k * spow(sol.wdot(t), pp.p - 1.0) / pp.lam


def test_E_profile_denominator_is_the_flux(radial_pair):
    res, sol = radial_pair
    rep = E_profile(res, sol)
    _, _, _, uc = spectral1d._profile_frame(res, sol)
    g = sol.w_inverse(uc)
    order = np.argsort(g)
    num = np.cumsum(res.u.domain.weights[order]
                    * spow(uc[order], res.p - 1.0))
    nums = num[np.searchsorted(g[order], rep["s"], side="right") - 1]
    assert np.allclose(rep["E"] * _flux(sol, rep["s"]), nums,
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p,n,a,lam", [(2.0, 3.0, 0.0, 5.0),
                                       (1.5, 1.0, INFINITY, 2.0),
                                       (3.0, 5.0, 0.0, 7.0),
                                       (2.5, 3.0, 0.7, 1.3)])
def test_flux_matches_a_fine_trapezoid_to_its_own_error(p, n, a, lam):
    # trapezoids on 4000 and 8000 cells up to eight points of the window;
    # their error falls at least linearly (w^(p-1) has a kink at t0 when
    # p < 2), so the finer one is within their difference of the flux
    sol = solve_model(ModelProblem(PParams(p, n, lam), a))
    k = 0.0 if a == INFINITY else n - 1.0
    ends = np.linspace(sol.a_eff, sol.b, 9)[1:]
    coarse, fine = (
        np.array([np.trapezoid(spow(sol.w(t), p - 1.0) * t ** k, t)
                  for t in (np.linspace(sol.a_eff, e, cells + 1)
                            for e in ends)])
        for cells in (4000, 8000))
    exact = _flux(sol, ends)
    scale = np.max(np.abs(exact))
    assert np.all(np.abs(fine - exact)
                  <= np.abs(coarse - fine) + 1e-12 * scale)
    assert np.max(np.abs(fine - exact)) < 1e-5 * scale


def test_E_profile_negative_control(radial_pair):
    res, sol = radial_pair
    wpert = res.u.domain.weights.copy()
    wpert[res.u.values < -0.98] *= 30.0
    rep = E_profile(res, sol, node_weights=wpert)
    assert not rep["monotone_ok"]
    assert rep["spread"] > 0.05


def test_E_profile_segment_equality():
    dom = build_domain("segment", 2000, x0=0.0, x1=1.0)
    p = 2.0
    res = solve_eigen_variational(dom, p)
    sol = solve_model(ModelProblem(PParams(p, 1.0, res.lam), INFINITY))
    rep = E_profile(res, sol)
    assert rep["monotone_ok"]
    assert rep["spread"] <= 10.0 * rep["h_normalized"]


def test_bounds_table_values():
    rows = {r["name"]: r for r in bounds_table(2.0, np.pi)}
    assert set(rows) == {"sharp", "hui", "kn", "li_yau", "zhong_yang"}
    assert rows["sharp"]["value"] == pytest.approx(1.0, rel=1e-14)
    assert rows["zhong_yang"]["value"] == pytest.approx(1.0, rel=1e-14)
    assert rows["li_yau"]["value"] == pytest.approx(0.25, rel=1e-14)
    assert rows["hui"]["value"] == pytest.approx(0.25, rel=1e-14)
    assert rows["kn"]["value"] == pytest.approx(1.0 / 16.0, rel=1e-14)
    assert all(r["applicable"] for r in rows.values())


def test_bounds_table_ratios_and_flags():
    rows3 = {r["name"]: r for r in bounds_table(3.0, 1.0)}
    assert rows3["sharp"]["value"] == pytest.approx(2.0 * pi_p(3.0) ** 3,
                                                    rel=1e-14)
    assert rows3["sharp"]["value"] / rows3["hui"]["value"] == pytest.approx(
        8.0, rel=1e-12
    )
    assert not rows3["li_yau"]["applicable"]
    assert not rows3["zhong_yang"]["applicable"]
    assert rows3["kn"]["applicable"]
    rows15 = {r["name"]: r for r in bounds_table(1.5, 1.0)}
    assert not rows15["kn"]["applicable"]
    for p in (2.0, 3.0, 4.0):
        rows = {r["name"]: r for r in bounds_table(p, 1.0)}
        assert rows["sharp"]["value"] > rows["hui"]["value"] > rows["kn"]["value"]


def test_bounds_table_validation():
    with pytest.raises(ValueError):
        bounds_table(1.0, 1.0)
    with pytest.raises(ValueError):
        bounds_table(2.0, 0.0)
