"""Tests for the generalized p-trigonometric functions."""

import math

import numpy as np
import pytest

from oracles import pi_p_mp, sin_cos_p_mp
from pspectral import (
    DiscreteFunction,
    PParams,
    bochner_residual,
    bounds_table,
    build_domain,
    catalog,
    rayleigh_quotient,
    solve_eigen_shooting,
    solve_eigen_variational,
)
from pspectral.ptrig import (
    arctan_p,
    cos_p,
    inv_sin_p,
    inv_sin_p_quadrature,
    pi_p,
    pi_p_quadrature,
    sin_cos_p,
    sin_p,
    tan_p,
)

P_GRID = [1.2, 1.5, 2.0, 3.0, 5.0]


_RADIAL = build_domain("radial", 16, R=1.0, n=3.0)
_FIELD = catalog()["poly_2d_a"]
# every public entry that takes p, called at p
_TAKES_P = {
    "pi_p": lambda p: pi_p(p),
    "sin_cos_p": lambda p: sin_cos_p(0.5, p),
    "inv_sin_p": lambda p: inv_sin_p(0.5, p),
    "PParams": lambda p: PParams(p=p, n_dim=2.0),
    "rayleigh_quotient": lambda p: rayleigh_quotient(
        DiscreteFunction(_RADIAL, np.cos(np.pi * _RADIAL.nodes)), p),
    "solve_eigen_variational": lambda p: solve_eigen_variational(_RADIAL, p),
    "solve_eigen_shooting": lambda p: solve_eigen_shooting(_RADIAL, p),
    "bounds_table": lambda p: bounds_table(p, 1.0),
    "bochner_residual": lambda p: bochner_residual(_FIELD.field,
                                                   _FIELD.point, p),
}


@pytest.mark.parametrize("entry", list(_TAKES_P))
def test_every_entry_rejects_the_same_bad_p(entry):
    call = _TAKES_P[entry]
    for bad, message in [
            (1.0, "exponent must satisfy p > 1, got 1.0"),
            (0.3, "exponent must satisfy p > 1, got 0.3"),
            (math.inf, "exponent must be finite, got inf"),
            (math.nan, "exponent must be finite, got nan")]:
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == message, bad
    call(np.float64(1.5))  # a numpy scalar p is accepted


def test_pi_p_closed_form_values():
    assert pi_p(2.0) == pytest.approx(math.pi, abs=1e-15)
    # closed form at p = 1.5 and p = 4, written out directly
    assert pi_p(1.5) == pytest.approx(
        2 * math.pi / (1.5 * math.sin(2 * math.pi / 3)), rel=1e-15
    )
    assert pi_p(4.0) == pytest.approx(
        2 * math.pi / (4.0 * math.sin(math.pi / 4)), rel=1e-15
    )


def test_pi_p_against_quadrature():
    for p in [1.1, 1.5, 2.0, 3.0, 4.0, 10.0]:
        closed = pi_p(p)
        quad = pi_p_quadrature(p)
        assert abs(closed - quad) / closed <= 1e-10


def test_pi_p_against_mpmath():
    # pi/p lies next to pi as p -> 1, where sin(pi/p) cancels; the closed
    # form must keep full relative accuracy there
    for p in [1.0 + 1e-15, 1.0 + 1e-10, 1.0 + 1e-6, 1.1, 1.5]:
        ref = pi_p_mp(p)
        assert abs(pi_p(p) - ref) / ref <= 1e-15, f"p={p!r}"
    # the quadrature must resolve the boundary layer of width ~ (p-1)/p
    # below t = 1 of its substituted integrand
    for p in [1.001, 1.0001, 1.00001, 1.0 + 1e-6]:
        ref = pi_p_mp(p)
        assert abs(pi_p_quadrature(p) - ref) / ref <= 1e-13, f"p={p!r}"


def test_identity_residual_on_grid():
    # |sin_p|^p + |cos_p|^p = 1 over the 2-period window
    for p in P_GRID:
        x = np.linspace(-2 * pi_p(p), 2 * pi_p(p), 1201)
        s, c = sin_cos_p(x, p)
        resid = np.abs(np.abs(s) ** p + np.abs(c) ** p - 1.0)
        assert resid.max() <= 1e-9, f"p={p}: identity residual {resid.max():.2e}"


def test_trivial_anchor_values():
    for p in P_GRID:
        hp = 0.5 * pi_p(p)
        assert sin_p(0.0, p) == pytest.approx(0.0, abs=1e-15)
        assert sin_p(hp, p) == pytest.approx(1.0, abs=1e-12)
        assert cos_p(0.0, p) == pytest.approx(1.0, abs=1e-12)
        assert abs(cos_p(hp, p)) <= 1e-7  # |cos_p|^p ~ eps near the kink


def test_p2_reduces_to_classical():
    x = np.linspace(-7.0, 7.0, 1501)
    s, c = sin_cos_p(x, 2.0)
    assert np.max(np.abs(s - np.sin(x))) <= 1e-10
    assert np.max(np.abs(c - np.cos(x))) <= 1e-10
    assert sin_p(math.pi / 6, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert cos_p(math.pi / 3, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert inv_sin_p(math.sqrt(0.5), 2.0) == pytest.approx(math.pi / 4, abs=1e-12)
    assert arctan_p(1.0, 2.0) == pytest.approx(math.pi / 4, abs=1e-12)


def test_symmetries():
    for p in [1.5, 3.0]:
        pp = pi_p(p)
        x = np.linspace(-1.2 * pp, 1.2 * pp, 401)
        # oddness and reflection
        assert np.max(np.abs(sin_p(-x, p) + sin_p(x, p))) <= 1e-12
        assert np.max(np.abs(sin_p(pp - x, p) - sin_p(x, p))) <= 1e-12
        # cos_p is even
        assert np.max(np.abs(cos_p(-x, p) - cos_p(x, p))) <= 1e-12
        # periodicity
        assert np.max(np.abs(sin_p(x + 2 * pp, p) - sin_p(x, p))) <= 1e-11


def test_inv_sin_p_roundtrip():
    for p in P_GRID:
        s = np.linspace(-1 + 1e-6, 1 - 1e-6, 501)
        x = inv_sin_p(s, p)
        s_back = sin_p(x, p)
        assert np.max(np.abs(s_back - s)) <= 1e-10


def test_roundtrip_x_direction_representable_region():
    # inv_sin_p(sin_p(x)) = x on the principal branch, restricted to the
    # region where 1 - sin_p is representable in double precision: for p
    # close to 1 the function saturates to 1 (within eps) at a positive
    # distance from pi_p/2, where no inverse can recover x.
    for p in P_GRID:
        hp = 0.5 * pi_p(p)
        # The roundtrip error at distance d from the kink is about
        # eps / (1-s**p)**(1/p), since s is stored rounded to eps.  For
        # a 1e-10 target, 1 - s must stay above (1.1e-6)**p / p; the
        # matching distance is d(u) = p**(-1/p) * u**((p-1)/p) * p/(p-1).
        u = max(1e-12, 10.0 * (1.2e-6) ** p / p)
        margin = p ** (-1.0 / p) * u ** ((p - 1.0) / p) * p / (p - 1.0)
        x = np.linspace(-hp + margin, hp - margin, 301)
        x_back = inv_sin_p(sin_p(x, p), p)
        assert np.max(np.abs(x_back - x)) <= 1e-10, f"p={p}"


def test_inv_sin_p_domain_error():
    with pytest.raises(ValueError):
        inv_sin_p(1.0001, 3.0)
    with pytest.raises(ValueError):
        inv_sin_p(-1.1, 1.5)


def test_inv_sin_p_matches_quadrature():
    for p in [1.3, 2.0, 3.5]:
        for s in [-0.95, -0.4, 0.1, 0.7, 0.999, 1.0]:
            closed = inv_sin_p(s, p)
            quad = inv_sin_p_quadrature(s, p)
            assert closed == pytest.approx(quad, abs=2e-12)


def test_trivial_inverse_values():
    for p in P_GRID:
        assert inv_sin_p(0.0, p) == 0.0
        assert inv_sin_p(1.0, p) == pytest.approx(0.5 * pi_p(p), rel=1e-14)
        assert inv_sin_p(-1.0, p) == pytest.approx(-0.5 * pi_p(p), rel=1e-14)


def test_derivative_matches_cos_p():
    # Central differences of sin_p vs cos_p.  The function is C-infinity
    # except at half-period multiples: third derivatives blow up at the
    # kinks (at sin_p = 0 for p < 2, at cos_p = 0 for p > 2), so bands
    # around every multiple of pi_p/2 are excluded from the O(h^2) check.
    h = 1e-6
    band = 3e-3
    for p in P_GRID:
        hp = 0.5 * pi_p(p)
        x = np.linspace(-2 * hp, 2 * hp, 1201)
        dist = np.abs(np.mod(x + 0.5 * hp, hp) - 0.5 * hp)
        x = x[dist > band]
        fd = (sin_p(x + h, p) - sin_p(x - h, p)) / (2 * h)
        c = cos_p(x, p)
        assert np.max(np.abs(fd - c)) <= 1e-8, f"p={p}"


def test_derivative_one_sided_near_kink():
    # inside a narrow band at the kink, a one-sided stencil from within
    # the branch still tracks cos_p at a relaxed tolerance
    h = 1e-6
    for p in P_GRID:
        hp = 0.5 * pi_p(p)
        x = hp - np.linspace(1e-4, 1e-3, 20)
        fd = (sin_p(x, p) - sin_p(x - h, p)) / h
        c = cos_p(x - 0.5 * h, p)
        assert np.max(np.abs(fd - c)) <= 1e-3


def test_arctan_p_properties():
    for p in P_GRID:
        hp = 0.5 * pi_p(p)
        assert arctan_p(0.0, p) == 0.0
        assert arctan_p(float("inf"), p) == pytest.approx(hp, rel=1e-14)
        assert arctan_p(float("-inf"), p) == pytest.approx(-hp, rel=1e-14)
        # monotone increasing
        y = np.linspace(-30.0, 30.0, 301)
        v = arctan_p(y, p)
        assert np.all(np.diff(v) > 0)
        # inverse of tan_p on the open principal branch
        phi = np.linspace(-hp + 1e-2, hp - 1e-2, 101)
        back = arctan_p(tan_p(phi, p), p)
        assert np.max(np.abs(back - phi)) <= 1e-9


ORACLE_P = [1.2, 1.5, 2.0, 3.0, 6.0]
# large p, where s**p is small on the complement branch's range too
LARGE_P = [10.0, 20.0, 50.0, 200.0]


def test_vector_and_scalar_apis_agree():
    # a 0-d input takes the float kernel, an array the vectorized path;
    # they run the same operations and must agree bit for bit
    rng = np.random.default_rng(20111)
    for p in ORACLE_P + LARGE_P:
        pp = pi_p(p)
        x = np.concatenate([[-2.0, -0.3, 0.0, 0.7, 2.5],
                            rng.uniform(-3.0 * pp, 3.0 * pp, 3000)])
        sv, cv = sin_cos_p(x, p)
        pairs = [sin_cos_p(xi, p) for xi in x]  # numpy scalars
        assert all(type(v) is float for pair in pairs[:5] for v in pair)
        ss, cs = np.array(pairs).T
        assert np.array_equal(ss, sv) and np.array_equal(cs, cv), f"p={p}"
        assert sin_cos_p(np.float64(x[7]), p) == sin_cos_p(float(x[7]), p)
        assert sin_cos_p(np.array(x[7]), p) == sin_cos_p(float(x[7]), p)


def test_sin_cos_p_matches_mpmath_oracle():
    # Both paths against 40-digit values, on both branches of the
    # principal solve (y = x/(pi_p/2) below and above 0.7, up to the
    # kink), shifted by up to three periods either way and reflected.
    # cos_p is compared through z = |cos_p|**p: near pi_p/2 the map
    # x -> cos_p = z**(1/p) is ill-conditioned, x -> z is not.  The
    # bounds scale with the rounding of the period reduction, eps*|x|.
    # The slope of y = x/(pi_p/2) -> z reaches p*(pi_p/2) s**(p-1) cos_p,
    # about 190 at p = 200 next to the kink, so the z bound is the larger
    # of 8 p/(p-1) and p*(pi_p/2) such roundings; the second exceeds the
    # first only at p > 6 (LARGE_P), where the rounding of y alone moves
    # z by more than 8 p/(p-1) roundings
    eps = np.finfo(float).eps
    ys = [0.0, 1e-12, 1e-3, 0.3, 0.69, 0.7, 0.71, 0.9, 0.999,
          1 - 1e-6, 1 - 1e-9, 1 - 1e-13, 1.0]
    for p in ORACLE_P + LARGE_P:
        pp = pi_p(p)
        hp = 0.5 * pp
        xs = [sgn * y * hp + k * pp + 2 * m * pp for y in ys
              for sgn, k in ((1, 0), (-1, 0), (-1, 1)) for m in (-2, -1, 0, 1, 3)]
        s_arr, c_arr = sin_cos_p(np.array(xs), p)
        for x, sa, ca in zip(xs, s_arr, c_arr):
            s_ref, z_ref, sign_c = sin_cos_p_mp(x, p)
            scale = eps * (1.0 + abs(x) / hp)
            tol_s = 16.0 * scale
            tol_z = scale * max(8.0 * p / (p - 1.0), p * hp)
            for s, c in (sin_cos_p(x, p), (sa, ca)):
                assert abs(s - float(s_ref)) <= tol_s, (p, x, s)
                assert abs(abs(c) ** p - float(z_ref)) <= tol_z, (p, x, c)
                if z_ref > tol_z:  # the sign of cos_p is decided
                    assert math.copysign(1.0, c) == sign_c, (p, x, c)


def test_sine_branch_where_s_pow_p_underflows():
    # at large p, u = s**p underflows already at moderate s; sin_p(0.02)
    # at p = 200 once came out as 0.04 and tan_p(0.5) at p = 1075 as inf
    for p, x in [(200.0, 0.02), (1075.0, 0.3), (1075.0, -0.5), (10.0, 1e-31)]:
        s_ref, z_ref, _ = sin_cos_p_mp(x, p)
        (sa,), (ca,) = sin_cos_p(np.array([x]), p)
        for s, c in (sin_cos_p(x, p), (sa, ca)):
            assert s == pytest.approx(float(s_ref), rel=1e-15), (p, x)
            assert c == 1.0
        assert tan_p(x, p) == pytest.approx(x, rel=1e-15)


def test_tan_p_is_infinite_where_cos_p_is_zero():
    hp = 0.5 * pi_p(2.0)
    assert sin_cos_p(hp, 2.0)[1] == 0.0
    assert tan_p(hp, 2.0) == math.inf and tan_p(-hp, 2.0) == -math.inf
    # at p = 1.001, |cos_p|**p underflows well inside the branch
    x = np.array([0.9, 0.99]) * 0.5 * pi_p(1.001)
    assert np.all(sin_cos_p(x, 1.001)[1] == 0.0)
    with np.errstate(all="raise"):
        assert np.all(tan_p(x, 1.001) == np.inf)


def test_sin_cos_p_rejects_p_where_beta_overflows():
    # B(1/p, 1-1/p) ~ p overflows only within a few ulps of the largest
    # float; pi_p stays finite there
    p = np.finfo(float).max
    assert pi_p(p) == pytest.approx(2.0, rel=1e-15)
    for x in (0.5, np.array([0.5])):
        with pytest.raises(ValueError, match="overflows"):
            sin_cos_p(x, p)


def test_non_finite_input_gives_nan():
    for p in [1.5, 3.0]:
        for x in [math.inf, -math.inf, math.nan, np.float64(np.inf)]:
            s, c = sin_cos_p(x, p)
            assert math.isnan(s) and math.isnan(c), (p, x)
        with np.errstate(invalid="ignore"):
            s, c = sin_cos_p(np.array([np.inf, -np.inf, np.nan]), p)
        assert np.all(np.isnan(s)) and np.all(np.isnan(c))
