"""Certificate construction for the gradient-comparison bound.

Given a solved model problem (model1d.ModelSolution) this module builds
the numerical evidence that the two weight coefficients appearing in
the maximum-principle argument are strictly positive while the third
vanishes identically:

* the ratio X(t) = lam^(1/(p-1)) w/wdot and the slope functions
  eta(s, t), beta(s, t), y1(t), y2(t) built from it;
* an auxiliary barrier f solving f' = min(eta(f), beta(f)) - offset
  from f(t0) = p/(p-1) T(t0), integrated to both ends of the window
  together with X, which follows its trajectory law
  X' = lam^(1/(p-1)) - T X/(p-1) + |X|^p/(p-1) from X(t0) = 0 (DOP853
  in plain floats; the grid's X column still comes from the phase
  solution, and the gap between the two is reported as x_law_dev);
* the convexity witness kappa(t), positive away from t0;
* the residual of the third coefficient (a3), which measures how well
  the trajectory satisfies the underlying one-dimensional equation and
  is expected to sit at integration-noise level;
* the reconstruction of the positive weight psi(s) = exp(int h) from
  the barrier, with the two coefficient functions a1, a2 re-derived
  directly from psi by finite differences as an independent check.

A Certificate stores the full evaluation grid so it can be emitted and
inspected offline; its verdict summarizes four properties: positive
slacks, the f-vs-y1 ordering, positivity of kappa, and smallness of
the a3 residual.  Every certificate is built at one setting, shared by
the CLI and the acceptance suite: window margin epsilon = 1e-3 delta,
barrier offset 1e-6 alpha^2 (alpha the problem's scale, 1 at
lam = p - 1) and a3 bound 1e-6.
The model's drift T and T' come from model1d._drift; only the barrier's
float right-hand side writes T = -(n-1)/t inline, once per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _dop853
from ._util import as_scalar_or_array, guarded, spow
from .model1d import INFINITY, ModelSolution, _drift

__all__ = [
    "Certificate",
    "PsiProfile",
    "X_of",
    "eta_beta",
    "build_certificate",
    "kappa_check",
    "a3_residual",
    "reconstruct_psi",
]


def _pnl(sol: ModelSolution):
    pp = sol.problem.params
    return pp.p, pp.n_dim, pp.lam


def _check_window(sol, t):
    a, b = sol.a_eff, sol.b
    t = np.asarray(t, dtype=float)
    if np.any(t <= a) or np.any(t >= b):
        raise ValueError(f"t must lie strictly inside ({a}, {b})")


def X_of(sol: ModelSolution, t):
    """X(t) = lam^(1/(p-1)) * w(t)/wdot(t); zero at t0, sign(t - t0).

    t may be a scalar or an array; w and wdot come from one
    ModelSolution.state evaluation."""
    _check_window(sol, t)
    p, _, lam = _pnl(sol)
    w, wdot = sol.state(t)
    return lam ** (1.0 / (p - 1.0)) * w / wdot


def eta_beta(s, t, sol: ModelSolution):
    """The two slope functions (eta, beta) at barrier value s, time t.

    eta(s,t) = s/(p-1) (T - X^(p-1)) + s^2 (p-n)/(p(n-1))
    beta(s,t) = -pT/(p-1) (nT/(n-1) - X^(p-1)) - s^2
                + s ((2n/(n-1) + 1/(p-1)) T - p/(p-1) X^(p-1))

    t must lie strictly inside the window; X_of checks it.
    """
    x = X_of(sol, t)
    p, n, _ = _pnl(sol)
    tv, _ = _drift(sol.problem, t)
    eta, beta = _slopes(p, n, np.asarray(s, dtype=float), tv, spow(x, p - 1.0))
    scalar = eta.ndim == 0
    return as_scalar_or_array(eta, scalar), as_scalar_or_array(beta, scalar)


def _slopes(p, n, s, tv, p1):
    """(eta, beta) from s, T and p1 = X^(p-1): plain arithmetic, so s,
    tv and p1 may be floats or arrays."""
    eta = s / (p - 1.0) * (tv - p1) + s * s * (p - n) / (p * (n - 1.0))
    beta = (
        -p * tv / (p - 1.0) * (n * tv / (n - 1.0) - p1)
        - s * s
        + s * ((2.0 * n / (n - 1.0) + 1.0 / (p - 1.0)) * tv - p / (p - 1.0) * p1)
    )
    return eta, beta


def _kappa_constants(p, n, lam):
    k0 = n * (p - 1.0) ** 2 * lam ** (1.0 / (p - 1.0))
    c = n * (p - 1.0) + p
    m = n / (n - 1.0)
    return k0, c, m


def _kappa_xt(p, n, lam, x, tv):
    """kappa as a pure function of (X, T)."""
    k0, c, m = _kappa_constants(p, n, lam)
    return k0 + c * (np.abs(x) ** p - m * tv * x)


def _x_rate(p, lam1, x, tv):
    """The trajectory law X' = lam1 - T X/(p-1) + |X|^p/(p-1), with
    lam1 = lam^(1/(p-1)); x and tv may be floats or arrays."""
    return lam1 - tv * x / (p - 1.0) + abs(x) ** p / (p - 1.0)


def _kappa_dot_xt(p, n, lam, x, tv):
    """d(kappa)/dt along trajectories, as a pure function of (X, T).

    Uses the trajectory law X' = lam^(1/(p-1)) - T X/(p-1) + |X|^p/(p-1)
    and T' = T^2/(n-1); the X * d(X^(p-1))/dt product is expanded so no
    |X|^(p-2) factor appears (finite for all p > 1 at X = 0).
    """
    _, c, m = _kappa_constants(p, n, lam)
    lam1 = lam ** (1.0 / (p - 1.0))
    p1 = spow(x, p - 1.0)
    xd = _x_rate(p, lam1, x, tv)
    # X * dX^(p-1)/dt = (p-1)|X|^(p-2) X' * X, expanded with X'
    xpd = (p - 1.0) * lam1 * p1 - tv * np.abs(x) ** p + spow(x, 2.0 * p - 1.0)
    return c * (xd * (p1 - m * tv) + xpd - m * x * tv * tv / (n - 1.0))


def a3_residual(sol: ModelSolution, t):
    """Normalized residual of the third weight coefficient at time t.

    Evaluates a3/(p psi) through the factorized form

        [R * (n D + T v + lam w^(p-1))] / (n-1),
        R = D - T v + lam w^(p-1),  v = wdot^(p-1),  D = dv/dt,

    with D measured by a 5-point finite difference of v along the
    trajectory.  R is the defect of the underlying one-dimensional
    equation, so the residual vanishes up to integration noise.  The
    remaining term of the factorization, -v dR/dt, differentiates the
    noise-level R and is omitted; it is dominated by the retained one.
    The value returned is divided by the natural quadratic scale
    lam^2 + (n D + T v + lam w^(p-1))^2/(n-1) + D^2, so it is
    dimensionless and directly comparable across problems.  Every term
    scales like lam under t -> alpha t, so the quotient is formed from
    their ratios to lam, whose squares cannot underflow or overflow
    where lam^2 would.

    t may be a scalar (a float is returned) or an array.  The step at
    each point is min(1e-5 * max(1/alpha, delta), (t-a)/3, (b-t)/3): in
    the normalized time alpha t its floor is 1e-5 * max(1, alpha delta)
    at every lam, so the residual is scale covariant.  The whole stencil
    is one state evaluation.
    """
    _check_window(sol, t)
    p, n, lam = _pnl(sol)
    a, b = sol.a_eff, sol.b
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    t = np.atleast_1d(arr)
    floor = 1e-5 * max(1.0 / sol.problem.params.alpha, sol.delta)
    h = np.minimum(floor, np.minimum((t - a) / 3.0, (b - t) / 3.0))
    if np.any(h <= 0.0):
        raise ValueError("t too close to the window boundary")

    # stencil rows t+2h, t+h, t, t-h, t-2h; the dense output takes 1-D input
    stencil = np.stack([t + 2 * h, t + h, t, t - h, t - 2 * h])
    w, wdot = sol.state(stencil.ravel())
    # w(t0) = 0 by definition: its rounding residual, lifted to the
    # power p - 1 below, would decide the residual there near p = 1
    w = np.where(t == sol.t0, 0.0, w.reshape(stencil.shape)[2])
    v = spow(wdot, p - 1.0).reshape(stencil.shape)
    d = (-v[0] + 8.0 * v[1] - 8.0 * v[3] + v[4]) / (12.0 * h)
    v = v[2]
    tv, _ = _drift(sol.problem, t)
    wp = spow(w, p - 1.0)
    # r, other and d over lam
    d = d / lam
    tvv = tv * v / lam
    r = d - tvv + wp
    other = n * d + tvv + wp
    out = (r * other / (n - 1.0)) / (1.0 + other * other / (n - 1.0) + d * d)
    return as_scalar_or_array(out[0] if scalar else out, scalar)


@dataclass(frozen=True)
class Certificate:
    """Immutable evidence bundle for one model solution.

    grid maps column name -> ndarray over the evaluation points:
    t, X, f, eta_of_f, beta_of_f, y1, y2, kappa, slack1, slack2,
    a3_residual.  verdict maps property name -> bool:
    'slacks_positive', 'ordering', 'kappa_positive', 'a3_small'.

    f_dense(t) evaluates the barrier f at a scalar (float) or an array
    of times: NaN outside [a+epsilon, b-epsilon] and past the point
    where a blow-up stopped the integration.
    """

    solution: ModelSolution
    epsilon: float
    offset: float
    grid: dict
    verdict: dict
    diagnostics: dict = field(default_factory=dict)
    f_dense: object = field(default=None, repr=False, compare=False)

    @property
    def all_ok(self) -> bool:
        return all(self.verdict.values())


# Points on each side of t0 in the certificate grid (t0 is shared).
_N_GRID = 151
# The one certificate setting at lam = p - 1 (alpha = 1): window margin
# epsilon over delta, barrier offset, and the bound on |a3_residual|.
_EPS_OVER_DELTA = 1e-3
_OFFSET = 1e-6
_A3_TOL = 1e-6


@guarded
def build_certificate(sol: ModelSolution) -> Certificate:
    """Integrate the barrier f and evaluate every certificate column.

    f solves f' = min(eta(f), beta(f)) - offset from f(t0) =
    p/(p-1) T(t0), forward on [t0, b-epsilon] and backward (same
    integrator over a decreasing time span) on [a+epsilon, t0].  The
    slopes need X, so the pair (X, f) is integrated together from
    (0, f(t0)), X by its trajectory law (_x_rate) with T = -(n-1)/t in
    closed form: one right-hand side in plain floats, _dop853 at rtol
    1e-12 and atol 1e-13 with dense output.  The pair runs in the
    normalized time alpha t, with atol and the blow-up level |f| = 1e8
    scaled as t -> alpha t scales X and f, so every lam integrates as
    lam = p - 1 does (where alpha = 1 and nothing is scaled).  The
    grid's X column comes from the phase solution, evaluated once for
    the whole grid; diagnostics['x_law_dev'] is the largest gap between
    the two on the grid, relative to max(1, |X|).

    There is one setting: epsilon = 1e-3 * delta, offset = 1e-6 *
    alpha^2 with alpha = PParams.alpha, and a3_small bounds |a3| by
    1e-6.  The scale covariance t -> alpha t of the equation multiplies
    every slope by alpha^2, so the offset is the same fraction of the
    slopes at every lam (1e-6 itself at lam = p - 1, where alpha = 1).
    An offset that underflows to 0 or overflows raises ValueError.

    Divergence of f inside the window, a float overflow, a division by
    zero or a non-finite state in the barrier, and a side whose first
    step is already below the float spacing at t0 (t0 near 5e11 at
    p = 1.5), are reported as a failed certificate, not an exception:
    slacks_positive and ordering, which read f, are False, while
    kappa_positive and a3_small still read their own columns.  A
    solution with a = INFINITY or n <= 1 (where the slopes divide by
    n-1), or with lam^(1/(p-1)) = 0 in floating point (p near 1), raises
    ValueError before any integration.
    """
    if sol.problem.a == INFINITY:
        raise ValueError("certificates require a finite left endpoint")
    p, n, lam = _pnl(sol)
    if n <= 1.0:
        raise ValueError(f"certificates require n > 1, got n = {n!r}")
    a, b, t0 = sol.a_eff, sol.b, sol.t0
    delta = sol.delta
    epsilon = _EPS_OVER_DELTA * delta
    alpha = sol.problem.params.alpha
    offset = _OFFSET * (alpha * alpha)
    if not 0.0 < offset < math.inf:
        raise ValueError(f"the barrier offset 1e-6 alpha^2 is {offset!r} at "
                         f"alpha = {alpha!r}; it must be finite and positive")

    lam1 = lam ** (1.0 / (p - 1.0))
    if lam1 == 0.0:
        # X = 0 would solve the law for all t: no orbit to certify
        raise ValueError(f"lam^(1/(p-1)) underflows to 0 at p = {p!r}, "
                         f"lam = {lam!r}")

    lo, hi = a + epsilon, b - epsilon
    f0 = p / (p - 1.0) * float(_drift(sol.problem, t0)[0])
    # the pair runs in the normalized time tau = alpha t, where t ->
    # alpha t scales f by alpha and X by alpha^(1/(p-1)); the tolerances
    # and the blow-up level follow those scales, so the integration is
    # the lam = p - 1 one (alpha = 1) at every lam
    atol = [max(1e-13 * alpha ** (1.0 / (p - 1.0)), 5e-324),
            max(1e-13 * alpha, 5e-324)]
    big = 1e8 * alpha
    calls = [0]

    def rhs(tau, y):
        calls[0] += 1
        x, s = y
        tv = -(n - 1.0) / (tau / alpha)
        e, be = _slopes(p, n, s, tv, spow(x, p - 1.0))
        xd = _x_rate(p, lam1, x, tv)
        if not (math.isfinite(xd) and math.isfinite(e) and math.isfinite(be)):
            raise OverflowError("barrier state left the float range")
        return xd / alpha, (min(e, be) - offset) / alpha

    def blow(t, y):
        return abs(y[1]) - big

    blow.terminal = True

    sides, nfev, steps = [], [], []
    for end in (hi, lo):
        before = calls[0]
        try:
            side = _dop853.solve(rhs, alpha * t0, alpha * end, (0.0, f0),
                                 1e-12, atol, events=(blow,))
        except (OverflowError, FloatingPointError, ZeroDivisionError):
            side = None
        # a solve that took no step has no dense output to read
        sides.append(side if side is not None and side.t.size > 1 else None)
        nfev.append(calls[0] - before)
        steps.append(0 if side is None else side.steps)
    sol_f, sol_b = sides
    blew_up = any(side is None or side.status != 0 for side in sides)

    def dense(t):
        """Rows (X, f) of the integrated pair at the 1-D times t; NaN
        off the integrated part."""
        out = np.full((2, t.size), math.nan)
        tau = alpha * t
        if sol_f is not None:
            fwd = (t >= t0) & (tau <= sol_f.t[-1])
            if fwd.any():
                out[:, fwd] = sol_f(tau[fwd])
        if sol_b is not None:
            bwd = (t < t0) & (tau >= sol_b.t[-1])
            if bwd.any():
                out[:, bwd] = sol_b(tau[bwd])
        return out

    def f_eval(t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        out = dense(np.atleast_1d(arr))[1]
        return as_scalar_or_array(out[0] if scalar else out, scalar)

    gl = np.linspace(lo, t0, _N_GRID)
    gr = np.linspace(t0, hi, _N_GRID)
    ts = np.unique(np.concatenate([gl, gr]))

    x = X_of(sol, ts)
    tv, _ = _drift(sol.problem, ts)
    p1 = spow(x, p - 1.0)
    # a NaN f (past a blow-up) propagates NaN through eta and beta
    x_law, f = dense(ts)
    e, be = _slopes(p, n, f, tv, p1)
    fd = np.minimum(e, be) - offset
    cols = {
        "X": x, "f": f, "eta_of_f": e, "beta_of_f": be,
        "y1": p / (p - 1.0) * (tv - (n - 1.0) / n * p1),
        "y2": p / (p - 1.0) * tv,
        "kappa": _kappa_xt(p, n, lam, x, tv),
        "slack1": e - fd, "slack2": be - fd,
        "a3_residual": a3_residual(sol, ts),
    }
    grid = {"t": ts, **cols}

    band = 1e-3 * delta
    left = ts < t0 - band
    right = ts > t0 + band
    finite_f = np.isfinite(cols["f"]).all() and not blew_up
    verdict = {
        "slacks_positive": bool(
            finite_f
            and (cols["slack1"] > 0).all() and (cols["slack2"] > 0).all()
        ),
        "ordering": bool(
            finite_f
            and (cols["f"][left] < cols["y1"][left]).all()
            and (cols["f"][right] > cols["y1"][right]).all()
        ),
        "kappa_positive": bool((cols["kappa"] > 0).all()),
        "a3_small": bool((np.abs(cols["a3_residual"]) <= _A3_TOL).all()),
    }

    # secondary check: differenced f agrees with the right-hand side
    fd_dev = 0.0
    if finite_f:
        tq = np.linspace(t0 + 0.1 * (hi - t0), hi - 0.1 * (hi - t0), 7)
        hstep = 1e-6 * max(1.0 / alpha, delta)
        d1 = (f_eval(tq + hstep) - f_eval(tq - hstep)) / (2.0 * hstep)
        e, be = eta_beta(f_eval(tq), tq, sol)
        fd_dev = float(np.max(np.abs(d1 - (np.minimum(e, be) - offset))))
    seen = np.isfinite(x_law)
    x_law_dev = math.nan
    if seen.any():
        x_law_dev = float(np.max(np.abs(x_law[seen] - x[seen]) / np.maximum(
            alpha ** (1.0 / (p - 1.0)), np.abs(x[seen]))))
    diagnostics = {
        "f_blowup": bool(blew_up),
        "f_at_t0": f0,
        "f_rhs_differenced_dev": fd_dev,
        "nfev_forward": nfev[0],
        "nfev_backward": nfev[1],
        "steps_forward": steps[0],
        "steps_backward": steps[1],
        "x_law_dev": x_law_dev,
    }
    return Certificate(
        solution=sol,
        epsilon=epsilon,
        offset=offset,
        grid=grid,
        verdict=verdict,
        diagnostics=diagnostics,
        f_dense=f_eval,
    )


@guarded
def kappa_check(cert: Certificate) -> dict:
    """Validate the convexity witness kappa along the certificate grid.

    Reported keys:
    - kappa_min, kappa_positive: positivity across the grid (t0 excluded);
    - kappa_t0_value, kappa_t0_exact, kappa_t0_rel_err: kappa at t0
      against its exact value n (p-1)^2 lam^(1/(p-1));
    - max_rel_deviation: 5-point finite-difference d(kappa)/dt against
      the closed-form trajectory derivative (chain rule through the
      laws for X and T), over the grid points whose stencil fits inside
      the window and, for p != 2, away from t0 (where the higher
      derivatives of |X|^p blow up);
    - n_fd_points: the number of grid points in that comparison.

    Raises ValueError when the exact kappa(t0) underflows to 0 (p near
    1), where the relative error at t0 has no meaning.

    The reduction of the closed-form derivative on the set kappa = 0,
    an identity in (X, T) independent of the orbit, is proved in the
    tests rather than re-derived here.
    """
    sol = cert.solution
    p, n, lam = _pnl(sol)
    a, b, t0 = sol.a_eff, sol.b, sol.t0
    delta = sol.delta
    k0, _, _ = _kappa_constants(p, n, lam)
    if k0 == 0.0:
        raise ValueError(f"kappa_check: the exact kappa(t0) = n (p-1)^2 "
                         f"lam^(1/(p-1)) underflows to 0 at p = {p!r}")

    def kap(t):
        tv, _ = _drift(sol.problem, t)
        return _kappa_xt(p, n, lam, X_of(sol, t), tv)

    ts = cert.grid["t"]
    kcol = cert.grid["kappa"]
    d = np.abs(ts - t0)
    # steps and floors in units of 1/alpha: in the normalized time alpha t
    # they are the lam = p - 1 ones (alpha = 1) at every lam
    alpha = sol.problem.params.alpha
    off_t0 = d > 1e-9 / alpha
    kappa_min = float(np.min(kcol[off_t0]))
    k_at_t0 = float(kap(t0))
    rel_t0 = abs(k_at_t0 - k0) / k0

    h = np.minimum(1e-4 * max(1.0 / alpha, delta),
                   5e-3 * np.minimum(ts - a, b - ts))
    if p < 2.0:
        h = np.where(off_t0, np.minimum(h, np.maximum(
            1e-7 / alpha, 1e-2 * (alpha * d) ** 1.5 / alpha)), h)
    # higher derivatives of |X|^p blow up at X = 0: skip near t0 for p != 2
    edge = 1e-12 / alpha
    keep = ((ts - 2 * h > a + edge) & (ts + 2 * h < b - edge)
            & ~((d < 1e-2 * delta) & (abs(p - 2.0) > 1e-12) & off_t0))
    t, h = ts[keep], h[keep]
    stencil = np.stack([t + 2 * h, t + h, t - h, t - 2 * h])
    k = kap(stencil.ravel()).reshape(stencil.shape)
    fdv = (-k[0] + 8.0 * k[1] - 8.0 * k[2] + k[3]) / (12.0 * h)
    tv, _ = _drift(sol.problem, t)
    cl = _kappa_dot_xt(p, n, lam, cert.grid["X"][keep], tv)
    # kappa' scales like alpha^((2p-1)/(p-1)) under t -> alpha t
    scale = alpha ** ((2.0 * p - 1.0) / (p - 1.0))
    max_rel = float(np.max(np.abs(fdv - cl) / np.maximum(scale, np.abs(cl))))

    return {
        "kappa_min": kappa_min,
        "kappa_positive": bool(kappa_min > 0.0),
        "kappa_t0_rel_err": rel_t0,
        "kappa_t0_value": k_at_t0,
        "kappa_t0_exact": k0,
        "max_rel_deviation": max_rel,
        "n_fd_points": int(np.count_nonzero(keep)),
    }


@dataclass(frozen=True)
class PsiProfile:
    """Reconstructed weight psi sampled on an s-grid.

    Arrays: s (profile variable), t (trajectory times with w(t) = s),
    h (the integrand of log psi), psi, a1, a2.  diagnostics carries the
    cross-validation deviations between the finite-difference route and
    the slack surrogates.
    """

    s: np.ndarray
    t: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    diagnostics: dict


# Size of the uniform s-grid on which psi is reconstructed.
_N_PSI = 1001


def reconstruct_psi(cert: Certificate) -> PsiProfile:
    """Recover psi(s) = exp(int_0^s h) and re-derive a1, a2 from it.

    h(s) = -f(w^{-1}(s)) / wdot(w^{-1}(s)); psi integrates h by the
    trapezoid rule from the anchor s = 0 (psi(0) = 1) and is positive
    by construction.  a1 and a2 are then recomputed directly from psi
    with psi'/psi and psi''/psi measured by central finite differences
    on the uniform s-grid:

        a1 = (p-1)/psi [psi''/psi + (psi'/psi)^2 (n(p-1)/(p(n-1)) - 2)]
        a2 = -(p-1) psi'/psi lam s^(p-1) (n+1)/(n-1)
             - 2n(p-1)^2/(p(n-1)) psi'/psi phi'
             - p (T' v + T D)/wdot
             + (p-1) phi (psi''/psi - 2 (psi'/psi)^2)

    where phi = wdot^p at w^{-1}(s), phi' = p/(p-1) D with D the exact
    combination T v - lam s^(p-1), and v = wdot^(p-1).  The third a2
    line groups the -lam p (p-1)|s|^(p-2) term with the phi'' term,
    which cancel their mutual |s|^(p-2) singularity (present for p < 2)
    algebraically; the grouped form is identical for all p.

    Requires a certificate with all verdicts true.  Raises ValueError
    otherwise, and reports positivity of the recomputed a1, a2 at
    interior samples in diagnostics (also asserted).
    """
    if not cert.all_ok:
        raise ValueError("psi reconstruction requires a fully valid certificate")
    sol = cert.solution
    p, n, lam = _pnl(sol)
    eps = cert.epsilon
    lo_t, hi_t = sol.a_eff + eps, sol.b - eps
    s_lo = float(sol.w(lo_t))
    s_hi = float(sol.w(hi_t))

    # uniform grid containing s = 0 exactly
    step = (s_hi - s_lo) / (_N_PSI - 1)
    n_neg = int(math.ceil(-s_lo / step))
    s = np.concatenate([np.arange(-n_neg, 0) * step, np.arange(0, _N_PSI) * step])
    s = s[(s >= s_lo - 1e-12) & (s <= s_hi + 1e-12)]

    ts = np.clip(sol.w_inverse(s), lo_t, hi_t)
    worst_inv = float(np.max(np.abs(np.asarray(sol.w(ts)) - s)))
    if worst_inv > 1e-10:
        raise RuntimeError(f"profile inversion stalled at residual {worst_inv:.2e}")

    f_vals = cert.f_dense(ts)
    wd = np.asarray(sol.wdot(ts), dtype=float)
    h = -f_vals / wd

    i0 = int(np.argmin(np.abs(s)))
    log_psi = np.empty_like(s)
    log_psi[i0] = 0.0
    if i0 + 1 < len(s):
        inc = 0.5 * (h[i0:-1] + h[i0 + 1:]) * np.diff(s[i0:])
        log_psi[i0 + 1:] = np.cumsum(inc)
    if i0 > 0:
        dec = 0.5 * (h[:i0] + h[1 : i0 + 1]) * np.diff(s[: i0 + 1])
        log_psi[:i0] = -np.cumsum(dec[::-1])[::-1]
    psi = np.exp(log_psi)

    d1 = np.gradient(psi, s, edge_order=2)
    d2 = np.gradient(d1, s, edge_order=2)
    r1 = d1 / psi
    r2 = d2 / psi

    a1 = (p - 1.0) / psi * (r2 + r1 * r1 * (n * (p - 1.0) / (p * (n - 1.0)) - 2.0))

    tv, tdot = _drift(sol.problem, ts)
    v = spow(wd, p - 1.0)
    sp1 = spow(s, p - 1.0)
    dpw = tv * v - lam * sp1  # the one-dimensional operator value
    phi_w = wd**p
    phi_d = p / (p - 1.0) * dpw
    a2 = (
        -(p - 1.0) * r1 * lam * sp1 * (n + 1.0) / (n - 1.0)
        - 2.0 * n * (p - 1.0) ** 2 / (p * (n - 1.0)) * r1 * phi_d
        - p * (tdot * v + tv * dpw) / wd
        + (p - 1.0) * phi_w * (r2 - 2.0 * r1 * r1)
    )

    # cross-validation against the slack surrogates:
    #   a1 = (p-1) slack1 / (psi wdot^2),  a2 = (p-1) wdot^(p-2) slack2
    # Deviations are measured against the magnitude of the formula
    # terms: where a branch of min(eta, beta) is active the true
    # coefficient equals the offset-sized slack, far below what finite
    # differences on psi can resolve, so result-relative deviation
    # would saturate at 1 without indicating any disagreement.
    et, bt = eta_beta(f_vals, ts, sol)
    fdot = np.minimum(et, bt) - cert.offset
    s1 = et - fdot
    s2 = bt - fdot
    a1_sur = (p - 1.0) * s1 / (psi * wd * wd)
    a2_sur = (p - 1.0) * np.abs(wd) ** (p - 2.0) * s2
    interior = np.zeros(len(s), dtype=bool)
    interior[2:-2] = True
    scale1 = (p - 1.0) / psi * (np.abs(r2) + np.abs(r1 * r1) + 1.0)
    scale2 = (
        np.abs(r1 * lam * sp1) * (n + 1.0) / (n - 1.0) * (p - 1.0)
        + 2.0 * n * (p - 1.0) ** 2 / (p * (n - 1.0)) * np.abs(r1 * phi_d)
        + np.abs(p * (tdot * v + tv * dpw) / wd)
        + (p - 1.0) * np.abs(phi_w) * (np.abs(r2) + 2.0 * r1 * r1)
        + 1.0
    )
    # deviation is only meaningful where the grid resolves psi; the
    # finite-difference psi'/psi must reproduce the exact integrand h,
    # which self-measures the local resolution (h ~ 1/wdot steepens
    # toward the right end faster than any fixed grid can follow)
    resolved = interior & (np.abs(r1 - h) <= 1e-5 * (1.0 + np.abs(h)))
    dev1 = float(np.max(np.abs(a1 - a1_sur)[resolved] / scale1[resolved]))
    dev2 = float(np.max(np.abs(a2 - a2_sur)[resolved] / scale2[resolved]))

    pos1 = bool(np.all(a1[interior] > 0.0))
    pos2 = bool(np.all(a2[interior] > 0.0))
    diagnostics = {
        "a1_positive_interior": pos1,
        "a2_positive_interior": pos2,
        "a1_surrogate_dev": dev1,
        "a2_surrogate_dev": dev2,
        "n_resolved": int(np.sum(resolved)),
        "a1_min_margin": float(np.min(a1[interior] / scale1[interior])),
        "a2_min_margin": float(np.min(a2[interior] / scale2[interior])),
        "psi_min": float(np.min(psi)),
    }
    if not (pos1 and pos2):
        raise ValueError(
            f"recomputed weight coefficients lost positivity: {diagnostics}"
        )
    return PsiProfile(s=s, t=ts, h=h, psi=psi, a1=a1, a2=a2,
                      diagnostics=diagnostics)
