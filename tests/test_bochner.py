"""Tests for the flat-space differential-operator laboratory.

Oracles:
* polynomial derivatives evaluated by hand (closed form);
* the flat-space second-order identity checked by exact symbolic
  differentiation (sympy), with the resulting values frozen below;
* the radial field 0.5|x|^2, whose p-Laplacian is (n+p-2)|x|^(p-2);
* one-dimensional sin_p eigenfields, for which the operator identities
  reduce to exact equalities.
"""

import warnings

import numpy as np
import pytest

from pspectral import pi_p, sin_p
from pspectral._util import spow
from pspectral.bochner import (
    CatalogField,
    ScalarField,
    bochner_residual,
    catalog,
    differentiate,
    eigen_estimate_check,
    hessian_inequality_check,
    pII_at,
    p_laplacian_at,
)
from pspectral import bochner as B

# u = x + 2y + x^2 y at (0.3, -0.7): value of the flat-space identity's
# two (equal) sides, frozen from an exact symbolic computation in which
# lhs - rhs simplified to zero.
FROZEN_SIDE = {3.0: 37.329943016558614, 1.5: 2.9300873011008713}


def _poly_2d_a():
    return catalog()["poly_2d_a"]


def test_differentiate_polynomial_exact():
    # u = x + 2y + x^2 y: grad = (1 + 2xy, 2 + x^2),
    # hess = [[2y, 2x], [2x, 0]].
    e = _poly_2d_a()
    x0, y0 = 0.3, -0.7
    rep = differentiate(e.field, e.point, step=1e-2)
    np.testing.assert_allclose(rep.grad, [1 + 2 * x0 * y0, 2 + x0**2],
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        rep.hess, [[2 * y0, 2 * x0], [2 * x0, 0.0]], rtol=0, atol=1e-10
    )
    assert rep.step == 1e-2


def test_differentiate_validation():
    e = _poly_2d_a()
    for step in (0.0, -1e-2, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step"):
            differentiate(e.field, e.point, step=step)
    with pytest.raises(ValueError):
        differentiate(e.field, np.zeros(3))
    bad = ScalarField(2, lambda x: np.where(x[0] > 0.0, np.inf, 1.0))
    with pytest.raises(ValueError):
        differentiate(bad, np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        ScalarField(0, lambda x: 0.0)


def test_scalar_only_evaluator_fallback():
    # an evaluator that cannot take batched arguments must give the same
    # derivatives through the per-point fallback path.
    import math

    vec = ScalarField(2, lambda x: np.sin(x[0]) * x[1] ** 2)
    scal = ScalarField(2, lambda x: math.sin(float(x[0])) * float(x[1]) ** 2)
    pt = np.array([0.4, -0.9])
    rv = differentiate(vec, pt, step=1e-2)
    rs = differentiate(scal, pt, step=1e-2)
    np.testing.assert_allclose(rs.grad, rv.grad, rtol=0, atol=1e-13)
    np.testing.assert_allclose(rs.hess, rv.hess, rtol=0, atol=1e-13)


def test_identity_sides_match_frozen_values():
    e = _poly_2d_a()
    for p, frozen in FROZEN_SIDE.items():
        lhs, *_ = B._pII_gradp(e.field, e.point, p, step=5e-3)
        np.testing.assert_allclose(lhs, frozen, rtol=2e-6)
        assert abs(bochner_residual(e.field, e.point, p, step=5e-3)) < 1e-4


def test_residual_small_across_catalog():
    for e in catalog().values():
        for p in (1.5, 2.0, 3.0):
            r = abs(bochner_residual(e.field, e.point, p, step=5e-3))
            bound = 1e-6 if p == 2.0 else 1e-4
            assert r <= bound, (e.name, p, r)


def test_residual_convergence_order():
    # the nested scheme is second order; halving the step must shrink
    # the defect by at least 2^1.8 for p != 2 (at p = 2 the inner field
    # is polynomial and the defect sits at roundoff).
    for name in ("poly_2d_a", "poly_3d_b"):
        e = catalog()[name]
        for p in (1.5, 3.0):
            r1 = abs(bochner_residual(e.field, e.point, p, step=2e-2))
            r2 = abs(bochner_residual(e.field, e.point, p, step=1e-2))
            order = np.log2(r1 / r2)
            assert order >= 1.8, (name, p, order)


def test_residual_unreliable_derivatives_raise():
    kink = ScalarField(2, lambda x: np.abs(x[0] - 0.3005) + x[1] ** 2)
    with pytest.raises(RuntimeError):
        bochner_residual(kink, (0.3, 0.5), 2.0, step=1e-2)


def test_p_laplacian_radial_quadratic():
    # 0.5|x|^2 has gradient x and unit hessian, so the operator value is
    # (n + p - 2) |x|^(p-2).
    for dim in (2, 3):
        ev = lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=0)
        f = ScalarField(dim, ev)
        pt = np.array([0.8, -0.5, 0.3][:dim])
        r = np.linalg.norm(pt)
        for p in (1.5, 2.0, 3.0):
            val = p_laplacian_at(f, pt, p, step=5e-3)
            np.testing.assert_allclose(val, (dim + p - 2.0) * r ** (p - 2.0),
                                       rtol=1e-9)


def test_p_laplacian_linear_field_vanishes():
    f = ScalarField(3, lambda x: 2.0 * x[0] - x[1] + 0.5 * x[2])
    val = p_laplacian_at(f, np.array([0.3, 0.4, -0.2]), 2.7)
    assert abs(val) < 1e-8


def test_p_laplacian_1d_sinp_eigenfield():
    # u(x) = sin_p(alpha x) solves the 1-d eigen-equation with
    # lam = (p-1) alpha^p.
    alpha = 1.3
    for p in (1.5, 2.0, 3.0):
        lam = (p - 1.0) * alpha**p
        f = ScalarField(1, lambda x, p=p: sin_p(alpha * x[0], p))
        for x0 in (0.25, 0.4, 0.55):
            u0 = f(np.array([x0]))
            val = p_laplacian_at(f, np.array([x0]), p, step=1e-3)
            target = -lam * spow(u0, p - 1.0)
            np.testing.assert_allclose(val, target, rtol=1e-8)


def test_pII_on_own_field_is_p_laplacian():
    e = _poly_2d_a()
    for p in (1.5, 2.0, 3.0):
        a = pII_at(e.field, e.field, e.point, p)
        b = p_laplacian_at(e.field, e.point, p)
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_pII_linear_in_second_argument():
    e = _poly_2d_a()
    g1 = ScalarField(2, lambda x: x[0] ** 2 - x[1] ** 3)
    g2 = ScalarField(2, lambda x: x[0] * x[1] + x[1])
    comb = ScalarField(2, lambda x: 2.0 * (x[0] ** 2 - x[1] ** 3)
                       - 0.7 * (x[0] * x[1] + x[1]))
    p = 2.6
    lhs = pII_at(e.field, comb, e.point, p)
    rhs = (2.0 * pII_at(e.field, g1, e.point, p)
           - 0.7 * pII_at(e.field, g2, e.point, p))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_pII_chain_rule():
    # composing with a smooth scalar function phi must satisfy
    # P(phi(u)) = phi'(u) Dp(u) + (p-1) phi''(u) |grad u|^p.
    e = _poly_2d_a()
    u = e.field
    comp = ScalarField(2, lambda x: u.evaluator(x) ** 3 + 2.0 * u.evaluator(x))
    u0 = u(e.point)
    rep = differentiate(u, e.point, step=5e-3)
    gn = np.linalg.norm(rep.grad)
    for p in (1.5, 2.0, 3.0):
        left = pII_at(u, comp, e.point, p, step=5e-3)
        right = ((3.0 * u0**2 + 2.0) * p_laplacian_at(u, e.point, p, step=5e-3)
                 + (p - 1.0) * (6.0 * u0) * gn**p)
        np.testing.assert_allclose(left, right, rtol=1e-6)


def test_pII_dimension_mismatch():
    e2 = _poly_2d_a()
    e3 = catalog()["poly_3d_a"]
    with pytest.raises(ValueError):
        pII_at(e2.field, e3.field, e2.point, 2.0)


def test_hessian_inequality_catalog():
    for e in catalog().values():
        dim = e.field.dim
        for p in (1.5, 2.0, 3.0):
            for m in (float(dim), dim + 1.0, 5.0):
                lhs, rhs, ok = hessian_inequality_check(e.field, e.point, p, m)
                assert ok, (e.name, p, m, lhs, rhs)


def test_hessian_inequality_equality_cases():
    # radial quadratic at p = 2, m = dim: both sides equal dim.
    for dim in (2, 3):
        f = ScalarField(dim, lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=0))
        pt = np.full(dim, 0.6)
        lhs, rhs, ok = hessian_inequality_check(f, pt, 2.0, float(dim))
        np.testing.assert_allclose(lhs, float(dim), rtol=1e-9)
        np.testing.assert_allclose(rhs, float(dim), rtol=1e-9)
        assert ok
    # any 1-d field: the hessian is purely radial, so the bound is an
    # identity for every admissible m.
    f1 = ScalarField(1, lambda x: sin_p(1.3 * x[0], 1.7))
    for m in (1.5, 2.0, 7.0):
        lhs, rhs, ok = hessian_inequality_check(f1, np.array([0.4]), 1.7, m,
                                                step=1e-3)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
        assert ok


def test_hessian_inequality_random_fields():
    # seeded random cubic fields in dims 2 and 3: the bound must hold at
    # every sampled point, exponent, and admissible m.
    rng = np.random.default_rng(20260824)
    checked = 0
    for _ in range(500):
        d = int(rng.integers(2, 4))
        c1 = rng.standard_normal(d)
        c2 = rng.standard_normal((d, d))
        c2 = 0.5 * (c2 + c2.T)
        c3 = rng.standard_normal((d, d, d))

        def f(x, c1=c1, c2=c2, c3=c3):
            return (np.einsum("i,i...->...", c1, x)
                    + np.einsum("ij,i...,j...->...", c2, x, x)
                    + np.einsum("ijk,i...,j...,k...->...", c3, x, x, x))

        fld = ScalarField(d, f)
        pt = rng.uniform(-1.0, 1.0, d)
        p = float(rng.uniform(1.2, 4.0))
        m = d + float(rng.uniform(0.0, 3.0))
        try:
            lhs, rhs, ok = hessian_inequality_check(fld, pt, p, m)
        except ValueError:
            continue  # degenerate gradient at the sampled point
        assert ok, (d, p, m, lhs, rhs)
        checked += 1
    assert checked > 450


def test_hessian_inequality_validation():
    e = catalog()["poly_3d_a"]
    with pytest.raises(ValueError):
        hessian_inequality_check(e.field, e.point, 2.0, 2.0)  # m < dim
    with pytest.raises(ValueError):
        hessian_inequality_check(e.field, e.point, 2.0, 0.5)


def test_eigen_estimate_1d_saturates():
    # the 1-d eigenfield makes the estimate an equality (its hessian is
    # purely radial), for every n > 1, up to the stencils' truncation
    # error; ok is the documented rule at the module's slack
    alpha = 1.3
    for p in (1.5, 2.0, 3.0):
        lam = (p - 1.0) * alpha**p
        f = ScalarField(1, lambda x, p=p: sin_p(alpha * x[0], p))
        for n in (2.0, 3.0, 5.0):
            lhs, rhs, ok = eigen_estimate_check(
                f, np.array([0.4]), p, n, lam, step=5e-3
            )
            np.testing.assert_allclose(lhs, rhs, rtol=0,
                                       atol=1e-4 * max(1.0, abs(lhs)))
            assert ok == (lhs >= rhs - B._EIGEN_TOL
                          * max(1.0, abs(lhs), abs(rhs)))


def test_eigen_estimate_precondition_enforced():
    alpha = 1.3
    p = 2.0
    lam = (p - 1.0) * alpha**p
    f = ScalarField(1, lambda x: sin_p(alpha * x[0], p))
    with pytest.raises(ValueError, match="eigen-residual"):
        eigen_estimate_check(f, np.array([0.4]), p, 2.0, 2.0 * lam)
    # a generic polynomial is not an eigenfield either
    e = _poly_2d_a()
    with pytest.raises(ValueError, match="eigen-residual"):
        eigen_estimate_check(e.field, e.point, p, 2.0, 1.0)


def test_degenerate_gradient_rejected():
    q = ScalarField(2, lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2))
    origin = np.zeros(2)
    with pytest.raises(ValueError, match="degenerate"):
        p_laplacian_at(q, origin, 2.5)
    with pytest.raises(ValueError, match="degenerate"):
        pII_at(q, q, origin, 2.5)
    with pytest.raises(ValueError, match="degenerate"):
        bochner_residual(q, origin, 2.5)
    with pytest.raises(ValueError, match="degenerate"):
        hessian_inequality_check(q, origin, 2.5, 3.0)


def test_degenerate_gradient_on_outer_stencil_node_rejected():
    # the critical point of 0.5|x - c|^2 sits on the nested stencil node
    # point + (step^(2/3), 0), where Delta_p u is undefined
    pt, step = np.array([0.3, -0.2]), 5e-3
    c = pt + np.array([step ** (2.0 / 3.0), 0.0])
    f = ScalarField(2, lambda x: 0.5 * ((x[0] - c[0]) ** 2
                                        + (x[1] - c[1]) ** 2))
    for p in (1.5, 3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="degenerate"):
                bochner_residual(f, pt, p, step=step)


def test_batched_derivs_match_per_point_calls():
    # one (N, dim) call gives each row bit for bit the gradient, Hessian
    # and value of a call at that row alone
    rng = np.random.default_rng(11)
    for e in catalog().values():
        pts = e.point + 0.2 * rng.standard_normal((9, e.field.dim))
        batch = B._derivs(e.field, pts, 1e-2)
        assert [b.shape for b in batch] == [
            (9,) + (e.field.dim,) * k for k in (1, 2, 0)]
        for row, pt in enumerate(pts):
            single = B._derivs(e.field, pt, 1e-2)
            for b, s in zip(batch, single):
                np.testing.assert_array_equal(b[row], s)


def test_entry_points_reject_bad_p_and_step():
    e = _poly_2d_a()
    for p in (1.0, 0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="exponent"):
            bochner_residual(e.field, e.point, p)
        with pytest.raises(ValueError, match="exponent"):
            p_laplacian_at(e.field, e.point, p)
    with pytest.raises(ValueError, match="step"):
        hessian_inequality_check(e.field, e.point, 2.0, 3.0, step=-1e-2)


def test_overflow_is_a_value_error_without_warnings():
    e = _poly_2d_a()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, step, pt in ((1e300, 5e-3, e.point), (2.5, 1e-300, e.point),
                            (2.5, 1e300, e.point), (2.5, 5e-3, [1e200, 1.0])):
            with pytest.raises(ValueError):
                bochner_residual(e.field, pt, p, step=step)


def test_catalog_structure():
    cat = catalog()
    assert len(cat) >= 4
    dims = set()
    for name, entry in cat.items():
        assert isinstance(entry, CatalogField)
        assert entry.name == name
        assert entry.point.shape == (entry.field.dim,)
        dims.add(entry.field.dim)
        # batched evaluation must work on every catalog field
        pts = np.tile(entry.point[:, None], (1, 5))
        vals = entry.field.evaluator(pts)
        assert np.asarray(vals).shape == (5,)
    assert dims == {2, 3}
