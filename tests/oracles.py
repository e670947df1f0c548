"""Independent numerical oracles used only by the test suite.

These re-derive key quantities through routes that share no code with
the package internals: direct integration of the divergence-form ODE
for the 1D comparison problem, classical special-function values for
the p = 2 reductions, and extended-precision (mpmath) values of the
p-trigonometric functions and of the p-mean shift.  There are two
exceptions, frozen copies of earlier library routes that a faster one
replaced: descend_reference, the variational solver's per-level descent
in its original arithmetic, against which the library's lean inner loop
is checked bit for bit; and barrier_reference, the certificate barrier
integrated alone with X read from the phase solution at every step.
dop853_reference runs scipy's own DOP853 on a problem handed to the
package's float-native integrator (pspectral._dop853.solve), and
bordered_step_reference solves the eigensolver's bordered Newton system
as the sparse route built it, densely.
paper_sweep draws the seeded sweep over the paper's range that the
model and certificate tests share.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse import coo_matrix


# offset from a of the divergence-form oracle's start
_SERIES_H = 1e-8


def spow(x, e):
    return np.sign(x) * np.abs(x) ** e


def solve_divergence_form(p, n, a, lam):
    """Integrate d/dt(t^(n-1) * v) = -lam * t^(n-1) * w^(p-1) directly.

    State (w, v) with v = wdot^(p-1), the half-linear form of the model
    equation; no p-trigonometric function enters.  scipy's DOP853 at
    rtol 1e-12, atol 1e-13 starts at a + _SERIES_H (or at _SERIES_H for
    a = 0) from the leading term of the series around the start, and
    stops at the first critical point v = 0.  Returns (b, t_zero, m_max,
    w): b, the zero t_zero of w, m_max = w(b), and w(ts), which gives w
    at times ts in [a, b] from the series before the start and from the
    dense output after it.
    """
    e = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    if a > 0.0:
        # v(a + h) = lam h, w(a + h) = -1 + lam^e h^q / q
        c = lam**e / q
        v0 = lam * _SERIES_H
    else:
        # v(h) = lam h / n, w(h) = -1 + (lam / n)^e h^q / q
        c = (lam / n) ** e / q
        v0 = lam * _SERIES_H / n
    t_start = a + _SERIES_H

    def rhs(t, y):
        w, v = y.tolist()
        wp = math.copysign(abs(w) ** (p - 1.0), w)
        return [math.copysign(abs(v) ** e, v), -(n - 1.0) * v / t - lam * wp]

    def ev_zero(t, y):
        return y[0]

    ev_zero.direction = 1.0

    def ev_crit(t, y):
        return y[1]

    ev_crit.direction = -1.0
    ev_crit.terminal = True

    # the phase speed is at least alpha/n, so b - a <= n pi_p / alpha
    # with pi_p = 2 pi / (p sin(pi/p))
    alpha = (lam / (p - 1.0)) ** (1.0 / p)
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi * (p - 1.0) / p))
    t_max = t_start + 2.0 * n * pi_p / alpha + 10.0
    sol = solve_ivp(rhs, (t_start, t_max), [-1.0 + c * _SERIES_H**q, v0],
                    method="DOP853", events=[ev_zero, ev_crit], rtol=1e-12,
                    atol=1e-13, dense_output=True)
    if len(sol.t_events[1]) == 0 or len(sol.t_events[0]) == 0:
        raise RuntimeError("no critical point found by divergence-form oracle")
    b = float(sol.t_events[1][0])

    def w_of(ts):
        ts = np.asarray(ts, dtype=float)
        series = -1.0 + c * np.maximum(ts - a, 0.0) ** q
        return np.where(ts < t_start, series,
                        sol.sol(np.clip(ts, t_start, b))[0])

    return b, float(sol.t_events[0][0]), float(sol.y_events[1][0][0]), w_of


def paper_sweep(count):
    """The first count of 120 seeded draws (p, n, a), as floats: p
    log-uniform in [1.2, 8], n uniform in [2, 8], a log-uniform in
    [0.05, 100]."""
    rng = np.random.default_rng(2026)
    ps = np.exp(rng.uniform(math.log(1.2), math.log(8.0), 120))
    ns = rng.uniform(2.0, 8.0, 120)
    avals = np.exp(rng.uniform(math.log(0.05), math.log(100.0), 120))
    return [tuple(map(float, case))
            for case in zip(ps[:count], ns[:count], avals[:count])]


def barrier_reference(sol, epsilon, offset, ts):
    """The certificate barrier f at the times ts, by the original route.

    f' = min(eta, beta)(f, t) - offset from f(t0) = p/(p-1) T(t0) is
    integrated alone by RK45 at rtol 1e-10 and atol 1e-12, forward to
    b - epsilon and backward to a + epsilon; every right-hand-side call
    asks the library's eta_beta, which reads X from the phase solution
    (X_of), not from the trajectory law.
    """
    from pspectral.comparison import eta_beta

    pp = sol.problem.params
    p, n, t0 = pp.p, pp.n_dim, sol.t0
    f0 = -p * (n - 1.0) / ((p - 1.0) * t0)

    def rhs(t, y):
        e, be = eta_beta(y[0], t, sol)
        return (min(e, be) - offset,)

    ts = np.asarray(ts, dtype=float)
    out = np.empty_like(ts)
    for end, on in ((sol.b - epsilon, ts >= t0), (sol.a_eff + epsilon, ts < t0)):
        side = solve_ivp(rhs, (t0, end), (f0,), method="RK45", rtol=1e-10,
                         atol=1e-12, dense_output=True)
        out[on] = side.sol(ts[on])[0]
    return out


def bessel_case_n2():
    """p=2, n=2, a=0, lam=1: w = -J0(t).

    Returns (b, t_zero, m_max) = (j'_{0,2} = j_{1,1}, j_{0,1}, -J0(b)).
    """
    from scipy.special import j0, jn_zeros

    b = float(jn_zeros(1, 1)[0])
    t_zero = float(jn_zeros(0, 1)[0])
    return b, t_zero, float(-j0(b))


def spherical_case_n3():
    """p=2, n=3, a=0, lam=1: w = -sinc-type radial solution -sin(t)/t.

    b solves tan t = t on (pi, 3pi/2); t_zero = pi; m = -sin(b)/b.
    """
    b = brentq(lambda t: np.tan(t) - t, 4.3, 4.6, xtol=1e-13)
    return float(b), float(np.pi), float(-np.sin(b) / b)


def pi_p_mp(p, dps=50):
    """pi_p = 2*pi/(p*sin(pi/p)) in mpmath at dps digits, for the exact
    binary value of the float p."""
    with mpmath.workdps(dps):
        pm = mpmath.mpf(p)
        return 2 * mpmath.pi / (pm * mpmath.sin(mpmath.pi / pm))


def _solve_regularized_beta(a, b, target):
    """The v in (0, 1) with I(a, b; v) = target > 0, by Newton's method
    on log I against log v; a power law v**a near 0 makes that map
    almost linear, so the iteration converges from any start in (0, 1)."""
    v = mpmath.mpf(target) ** (1 / a) if target < 0.5 else mpmath.mpf("0.5")
    beta = mpmath.beta(a, b)
    for _ in range(200):
        val = mpmath.betainc(a, b, 0, v, regularized=True)
        dval = v ** (a - 1) * (1 - v) ** (b - 1) / beta
        step = (mpmath.log(val) - mpmath.log(target)) * val / (dval * v)
        v_new = v * mpmath.exp(-step)
        if v_new >= 1:
            v_new = (v + 1) / 2
        if abs(v_new - v) <= mpmath.mpf(10) ** (-mpmath.mp.dps + 5) * v:
            return v_new
        v = v_new
    raise RuntimeError("mpmath incomplete-beta inversion did not converge")


def sin_cos_p_mp(x, p, dps=40):
    """sin_p(x) and z = |cos_p(x)|**p with the sign of cos_p, in mpmath.

    Returns (s, z, sign_c) as mpf values for the exact binary values of
    the floats x and p.  The period reduction runs in dps digits; on
    [0, pi_p/2] the defining integral is mpmath's regularized incomplete
    beta, I(1/p, 1-1/p; s**p) = x/(pi_p/2), inverted for whichever of
    u = s**p and z = 1 - u is smaller, so both keep full relative
    accuracy.  Comparing cos_p through z is well conditioned at the
    kink x = pi_p/2, where cos_p = z**(1/p) is not.
    """
    with mpmath.workdps(dps):
        pm = mpmath.mpf(p)
        pp = 2 * mpmath.pi / (pm * mpmath.sin(mpmath.pi / pm))
        hp = pp / 2
        r = mpmath.mpf(x)
        r = r - 2 * pp * mpmath.floor(r / (2 * pp))  # [0, 2 pi_p)
        if r > pp:
            r -= 2 * pp
        sign_s = -1 if r < 0 else 1
        r = abs(r)
        sign_c = -1 if r > hp else 1
        if r > hp:
            r = pp - r
        a, b = 1 / pm, 1 - 1 / pm
        y = r / hp
        if y == 0:
            u, z = mpmath.mpf(0), mpmath.mpf(1)
        elif y == 1:
            u, z = mpmath.mpf(1), mpmath.mpf(0)
        elif y < mpmath.betainc(a, b, 0, 0.5, regularized=True):
            # u < 1/2: at large p that holds far beyond y = 1/2 (u is
            # 1e-31 at p = 200, y = 0.7)
            u = _solve_regularized_beta(a, b, y)
            z = 1 - u
        else:
            z = _solve_regularized_beta(b, a, 1 - y)
            u = 1 - z
        return sign_s * u ** a, z, sign_c


def pmean_shift_mp(values, weights, p, dps=40):
    """The c with sum(weights * spow(values - c, p-1)) = 0, in mpmath.

    Plain bisection on [min, max] at dps digits for the exact binary
    values of the floats; the sum is strictly decreasing in c, so the
    bracket always holds the root.  Returns an mpf.
    """
    with mpmath.workdps(dps):
        pm1 = mpmath.mpf(p) - 1
        vs = [mpmath.mpf(float(v)) for v in values]
        ws = [mpmath.mpf(float(w)) for w in weights]

        def g(c):
            total = mpmath.mpf(0)
            for v, w in zip(vs, ws):
                x = v - c
                if x > 0:
                    total += w * x**pm1
                elif x < 0:
                    total -= w * (-x) ** pm1
            return total

        lo, hi = min(vs), max(vs)
        tol = mpmath.mpf(10) ** (-dps + 5) * max(1, abs(lo) + abs(hi))
        while hi - lo > tol:
            c = (lo + hi) / 2
            gc = g(c)
            if gc == 0:
                return c
            if gc > 0:
                lo = c
            else:
                hi = c
        return (lo + hi) / 2


# The descent of one mesh level exactly as it was written before its
# inner loop was made lean: np.diff differences, np.linalg.norm, one
# np.errstate entry per Newton pass, a fresh difference of every iterate.
# The library's _descend must visit the same iterates bit for bit.

def _diff_ref(dom, values):
    if dom.kind == "circle":
        return np.diff(values, append=values[:1]) / dom.spacing
    return np.diff(values) / dom.spacing


def _diff_adjoint_ref(dom, q):
    if dom.kind == "circle":
        mq = -q
        return np.diff(mq, prepend=mq[-1:]) / dom.spacing
    out = np.zeros(dom.N)
    out[:-1] -= q / dom.spacing
    out[1:] += q / dom.spacing
    return out


def _pmean_shift_ref(values, weights, p):
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo < 1e-300:
        return lo
    c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    dx_old = hi - lo
    for _ in range(200):
        x = values - c
        ax = np.abs(x)
        a = ax ** (p - 1.0)
        gc = float(np.dot(weights, np.copysign(a, x)))
        if gc > 0.0:
            lo = c
        elif gc < 0.0:
            hi = c
        else:
            return c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dg = (p - 1.0) * float(np.dot(weights, a / ax))
            if math.isnan(dg) and p >= 2.0:
                r = np.divide(a, ax, out=np.full_like(a, float(p == 2.0)),
                              where=ax > 0.0)
                dg = (p - 1.0) * float(np.dot(weights, r))
        step = gc / dg if 0.0 < dg < math.inf else math.nan
        new = c + step
        if not (lo <= new <= hi and abs(2.0 * step) <= abs(dx_old)):
            new = 0.5 * (lo + hi)
        dx_old = new - c
        c = new
        tol = 1e-15 * max(1.0, abs(hi) + abs(lo))
        if hi - lo <= tol:
            break
        if abs(dx_old) <= tol and float(ax.min()) > 2.0 * abs(dx_old):
            break
    return c


def _project_ref(dom, values, p):
    c = _pmean_shift_ref(values, dom.weights, p)
    v = values - c
    nrm = float(np.dot(dom.weights, np.abs(v) ** p)) ** (1.0 / p)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("function is identically zero after the p-mean shift")
    return v / nrm, c


def _rq_raw_ref(dom, v, p):
    dv = _diff_ref(dom, v)
    num = float(np.dot(dom.cell_weights, np.abs(dv) ** p))
    den = float(np.dot(dom.weights, np.abs(v) ** p))
    return num / den


def descend_reference(dom, v, p, cap, tol=1e-10, stall_window=50,
                      step0=1.0):
    """(values, rq, iterations, stopped_by) of one level's projected
    preconditioned subgradient descent, in the reference arithmetic."""
    v, _ = _project_ref(dom, v, p)
    lam = _rq_raw_ref(dom, v, p)
    precond = np.maximum(dom.weights, 1e-3 * dom.weights.mean())
    step = step0
    stall = 0
    it = 0
    stopped = "cap"
    while it < cap:
        it += 1
        dv = _diff_ref(dom, v)
        q = dom.cell_weights * spow(dv, p - 1.0) * p
        grad = _diff_adjoint_ref(dom, q) - lam * p * dom.weights * spow(
            v, p - 1.0)
        grad = grad / precond
        gn = float(np.linalg.norm(grad))
        if gn < 1e-18:
            stopped = "gradient_zero"
            break
        grad /= gn
        improved = False
        while step > 1e-15:
            v2, _ = _project_ref(dom, v - step * grad, p)
            lam2 = _rq_raw_ref(dom, v2, p)
            if lam2 < lam:
                improved = True
                break
            step *= 0.5
        if not improved:
            stopped = "step_collapse"
            break
        rel = (lam - lam2) / max(abs(lam), 1e-300)
        v, lam = v2, lam2
        step *= 1.3
        stall = stall + 1 if rel < tol else 0
        if stall >= stall_window:
            stopped = "stall"
            break
    return v, lam, it, stopped


def dop853_reference(fun, t0, t_bound, y0, rtol, atol, events=()):
    """scipy's solve_ivp(method="DOP853") with dense output on the
    arguments of a pspectral._dop853.solve call: fun and the events
    take (t, list of floats), as that integrator passes them."""

    def wrap(ev):
        def g(t, y):
            return ev(t, y.tolist())

        g.terminal = getattr(ev, "terminal", False)
        g.direction = getattr(ev, "direction", 0.0)
        return g

    return solve_ivp(lambda t, y: fun(t, y.tolist()), (t0, t_bound),
                     np.asarray(y0, dtype=float),
                     method="DOP853", rtol=rtol, atol=np.asarray(atol),
                     events=[wrap(ev) for ev in events] or None,
                     dense_output=True)


def bordered_step_reference(dom, u, lam, p, F, G, eps):
    """(du, dlam, J): the Newton step of the bordered eigen-system of a
    segment or radial domain at (u, lam) for the residual (F, G), and
    its Jacobian J.  J is assembled as the sparse route did it, in COO
    form (cell c couples nodes c and c+1, duplicate entries summed),
    with |x|^(p-2) regularized as (x^2 + eps^2)^((p-2)/2) and the border
    unscaled, and the step is solved densely (np.linalg.solve)."""
    N = dom.N
    Du = np.diff(u) / dom.spacing
    a = 0.5 * p - 1.0
    k = dom.cell_weights * (p - 1.0) * (Du * Du + eps * eps) ** a \
        / dom.spacing ** 2
    diag = -lam * (p - 1.0) * dom.weights * (u * u + eps * eps) ** a
    wu = dom.weights * spow(u, p - 1.0)
    c, i, b = np.arange(N - 1), np.arange(N), np.full(N, N)
    rows = np.concatenate([c, c, c + 1, c + 1, i, i, b])
    cols = np.concatenate([c, c + 1, c, c + 1, i, b, i])
    data = np.concatenate([k, -k, -k, k, diag, -wu, p * wu])
    J = coo_matrix((data, (rows, cols)), shape=(N + 1, N + 1)).toarray()
    d = np.linalg.solve(J, -np.append(F, G))
    return d[:-1], float(d[-1]), J
