"""The convexity witness kappa on its zero set kappa = 0.

kappa(X, T) = k0 + c (|X|^p - m T X) never vanishes along a model orbit,
but the argument needs its trajectory derivative on the constraint set:
there d(kappa)/dt reduces to -n (p-1)^2 p^2 lam^(2/(p-1)) / (c X), an
identity in (X, T) that does not depend on any orbit.  It is proved
symbolically here, and the library's floating-point derivative
_kappa_dot_xt is checked against it at sampled points of the set.
"""

import math

import numpy as np
import pytest
import sympy as sp
from scipy.optimize import brentq

from pspectral import ModelProblem, PParams, solve_model
from pspectral.comparison import _kappa_constants, _kappa_dot_xt, _kappa_xt


def _reduced(p, n, lam, x):
    c = _kappa_constants(p, n, lam)[1]
    return -n * (p - 1.0) ** 2 * p**2 * lam ** (2.0 / (p - 1.0)) / (c * x)


def _locus_points(p, n, lam, a_lo):
    """Points (X, T) of kappa = 0, X < 0, sampled for a certificate
    window starting at a_lo: eight drifts T from -3 (n-1)/a_lo - 50 to
    -5, each with the roots in |X| on both sides of the minimizer of
    kappa(-r, T) in r (brentq, absolute tolerance 1e-14)."""
    k0, c, m = _kappa_constants(p, n, lam)
    pts = []
    for tv in np.linspace(-(n - 1.0) / a_lo * 3.0 - 50.0, -5.0, 8):
        r_star = (m * abs(tv) / p) ** (1.0 / (p - 1.0))
        if k0 + c * r_star**p - c * m * abs(tv) * r_star >= -1e-9:
            continue  # kappa > 0 for every X at this drift

        def kx(r, _tv=tv):
            return k0 + c * r**p - c * m * abs(_tv) * r

        for bracket in ((1e-12, r_star), (r_star, r_star * 1e3)):
            try:
                r_root = brentq(kx, *bracket, xtol=1e-14, rtol=8.9e-16)
            except ValueError:
                continue
            pts.append((-r_root, float(tv)))
    return pts


def _locus_drift(p, n, lam, x):
    """The drift T with kappa(X, T) = 0 at X < 0, in closed form."""
    k0, c, m = _kappa_constants(p, n, lam)
    return -(k0 + c * abs(x) ** p) / (c * m * abs(x))


def _unreduced_terms(p, n, lam, x, tv):
    """The monomials of _kappa_dot_xt / c, expanded; their largest
    magnitude sets the rounding scale of the float sum."""
    _, _, m = _kappa_constants(p, n, lam)
    lam1 = lam ** (1.0 / (p - 1.0))
    p1 = math.copysign(abs(x) ** (p - 1.0), x)
    ax = abs(x) ** p
    return [
        lam1 * p1, lam1 * m * tv, tv * x * p1 / (p - 1.0),
        tv * x * m * tv / (p - 1.0), ax * p1 / (p - 1.0),
        ax * m * tv / (p - 1.0), (p - 1.0) * lam1 * p1, tv * ax,
        abs(x) ** (2.0 * p - 1.0), m * x * tv * tv / (n - 1.0),
    ]


def test_zero_locus_reduction_symbolic():
    # X = -r < 0 on the set; T solves kappa(X, T) = 0; L = lam^(1/(p-1))
    r, L, p, n = sp.symbols("r L p n", positive=True)
    k0 = n * (p - 1) ** 2 * L
    c = n * (p - 1) + p
    m = n / (n - 1)
    x = -r
    tv = -(k0 + c * r**p) / (c * m * r)
    assert sp.simplify(k0 + c * (r**p - m * tv * x)) == 0
    # _kappa_dot_xt term by term: spow(X, e) = -r^e, |X|^p = r^p
    p1 = -(r ** (p - 1))
    xd = L - tv * x / (p - 1) + r**p / (p - 1)
    xpd = (p - 1) * L * p1 - tv * r**p - r ** (2 * p - 1)
    general = c * (xd * (p1 - m * tv) + xpd - m * x * tv * tv / (n - 1))
    reduced = -n * (p - 1) ** 2 * p**2 * L**2 / (c * x)
    assert sp.simplify(sp.expand(general - reduced)) == 0


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
def test_zero_locus_float_at_sampled_roots(p):
    # X from the root sampling of the certificate window for n = 3,
    # a = 1, lam = p - 1 and the default epsilon = 1e-3 delta; T from
    # kappa = 0 in closed form, since the absolute brentq tolerance
    # leaves the small roots off the set by up to 1e-11 relative.  Near
    # p = 1 the large roots reach |X| ~ 4e9 where the terms are ~1e14,
    # so the error is judged against the largest term, the scale of
    # its rounding.
    n, a, lam = 3.0, 1.0, p - 1.0
    sol = solve_model(ModelProblem(PParams(p, n, lam), a))
    pts = _locus_points(p, n, lam, a + 1e-3 * sol.delta)
    assert pts
    _, c, m = _kappa_constants(p, n, lam)
    for x, _ in pts:
        tv = _locus_drift(p, n, lam, x)
        k_scale = c * max(abs(x) ** p, abs(m * tv * x))
        assert abs(_kappa_xt(p, n, lam, x, tv)) <= 1e-13 * k_scale
        general = float(_kappa_dot_xt(p, n, lam, x, tv))
        scale = c * max(abs(v) for v in _unreduced_terms(p, n, lam, x, tv))
        assert abs(general - _reduced(p, n, lam, x)) <= 1e-13 * scale, (x, tv)


def test_zero_locus_reference_case():
    # the reference certificate (p = 2, n = 3, a = 1, lam = 1): relative
    # error of the reduction at scale max(1, |reduced|), and its sign
    # -sign(X), positive on the X < 0 side where the set lives
    p, n, a, lam = 2.0, 3.0, 1.0, 1.0
    sol = solve_model(ModelProblem(PParams(p, n, lam), a))
    pts = _locus_points(p, n, lam, a + 1e-3 * sol.delta)
    assert len(pts) > 0
    for x, tv in pts:
        general = float(_kappa_dot_xt(p, n, lam, x, tv))
        reduced = _reduced(p, n, lam, x)
        assert abs(general - reduced) / max(1.0, abs(reduced)) < 1e-6
        assert reduced * -np.sign(x) > 0.0
