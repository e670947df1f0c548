"""One-dimensional comparison ODE in phase/amplitude form.

Solves the initial value problem

    (p-1)|w'|^(p-2) w'' = T(t) w'^(p-1) - lam * w^(p-1),
    w(a) = -1,  w'(a) = 0,

with drift T(t) = -(n-1)/t for finite a >= 0, or T = 0 for the
distinguished value a = INFINITY.  The integration is carried out in
phase/amplitude variables

    alpha*w = e*sin_p(phi),   w' = e*cos_p(phi),

with alpha = (lam/(p-1))**(1/p), which turn the second-order equation
into the first-order system

    phi' = alpha - T/(p-1) * cos_p(phi)^(p-1) * sin_p(phi),
    (log e)' = T/(p-1) * |cos_p(phi)|^p.

The module locates the first critical point b (phi = pi_p/2), the zero
t0 of w (phi = 0), and reports delta = b - a and the terminal maximum
m_max = w(b).  The phase system is integrated at lam = p-1 (alpha = 1)
only; solve_model maps its results to the requested lam through the
exact scale covariance t -> alpha*t of the equation.  There is one
solve setting, DOP853 (the float-native _dop853, which the certificate
barrier shares) at rtol _RTOL = 1e-13 and atol _ATOL = 1e-14 with no
step cap, shared by the CLI, the certificate and the acceptance suite,
with at most _MAX_PHASE_NFEV evaluations.  The laws of the model live
here alone: the drift (_drift, which comparison reads) and the phase
speed (_phase_speed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _dop853
from ._util import as_scalar_or_array, guarded, spow
from .ptrig import _pval, inv_sin_p, pi_p, sin_cos_p

__all__ = [
    "INFINITY",
    "PParams",
    "ModelProblem",
    "ModelSolution",
    "solve_model",
    "delta_scan",
]

INFINITY = math.inf

_H0 = 1e-7  # first mesh point for the a = 0 start (normalized scale)
# DOP853 step tolerances of every phase solve
_RTOL = 1e-13
_ATOL = 1e-14
# Most right-hand-side evaluations of one phase solve (1.6-2.7 s on a
# 2-core x86_64 host); full verify's solves make at most 2,162.
_MAX_PHASE_NFEV = 100_000
# trajectory samples; they also bracket each point of w_inverse
_N_SAMPLES = 600


@dataclass(frozen=True)
class PParams:
    """Problem data (p, n_dim, lam) with the derived scale alpha, which
    must be a positive finite float.

    n_dim may be any real >= 1 (the comparison argument allows
    replacing the integer dimension by a real n' >= n).  lam defaults
    to p - 1, where alpha = 1.
    """

    p: float
    n_dim: float
    lam: float | None = None
    alpha: float = field(init=False)

    def __post_init__(self):
        pv = _pval(self.p)
        object.__setattr__(self, "p", pv)
        n = float(self.n_dim)
        if not math.isfinite(n) or n < 1.0:
            raise ValueError(f"n_dim must be a finite real >= 1, got {self.n_dim!r}")
        object.__setattr__(self, "n_dim", n)
        lam = pv - 1.0 if self.lam is None else float(self.lam)
        if not math.isfinite(lam) or lam <= 0.0:
            raise ValueError(f"lam must be finite and positive, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)
        alpha = (lam / (pv - 1.0)) ** (1.0 / pv)
        if not 0.0 < alpha < math.inf:
            # an infinite scale made the a = 0 solve start at 0 * inf = nan
            raise ValueError(f"the scale (lam/(p-1))^(1/p) is {alpha!r} at "
                             f"p = {pv!r}, lam = {lam!r}; it must be finite "
                             f"and positive")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class ModelProblem:
    """A PParams instance plus the left endpoint a.

    a is a nonnegative real, or INFINITY to select the driftless T = 0
    equation (which has an exact closed-form solution).
    """

    params: PParams
    a: float

    def __post_init__(self):
        a = float(self.a)
        if math.isnan(a) or a < 0.0:
            raise ValueError(f"a must be >= 0 or INFINITY, got {self.a!r}")
        object.__setattr__(self, "a", a)


class ModelSolution:
    """Solved model problem with dense evaluators.

    Attributes
    ----------
    problem : ModelProblem
    a_eff : float       left endpoint of the computed window
    b : float           first critical point of w after a
    t0 : float          unique zero of w in (a, b)
    delta : float       b - a (or the window length for T = 0)
    m_max : float       w(b), the terminal maximum
    trajectory : dict   arrays t, phi, e, w, wdot sampled along the orbit
    diagnostics : dict  solver metadata (nfev, closed_form)

    Callable evaluators: state(t) = (w(t), wdot(t)), w(t), wdot(t), phi(t),
    log_e(t), e(t), w_inverse(s).  They all read one phase closure,
    phase_fn(t) -> (phi(t), log e(t)): one dense-output evaluation per
    call on the integrated orbit, the closed form for a = INFINITY.
    Instances are immutable by convention once constructed.
    """

    def __init__(
        self,
        problem: ModelProblem,
        a_eff: float,
        b: float,
        t0: float,
        m_max: float,
        phase_fn,
        diagnostics: dict,
    ):
        self.problem = problem
        self.a_eff = float(a_eff)
        self.b = float(b)
        self.t0 = float(t0)
        self.delta = self.b - self.a_eff
        self.m_max = float(m_max)
        self._phase_fn = phase_fn
        self.diagnostics = diagnostics
        ts = np.linspace(self.a_eff, self.b, _N_SAMPLES)
        ts = np.unique(np.concatenate([ts, [self.t0]]))
        w, wdot = self.state(ts)
        phi, log_e = phase_fn(ts)
        self.trajectory = {
            "t": ts, "phi": phi, "e": np.exp(log_e), "w": w, "wdot": wdot,
        }

    # -- evaluators ------------------------------------------------------

    def phi(self, t):
        """Phase phi(t) with phi(a) = -pi_p/2, phi(t0) = 0, phi(b) = pi_p/2."""
        return self._phase_fn(t)[0]

    def log_e(self, t):
        """log of the amplitude e(t) = (wdot^p + alpha^p w^p)^(1/p)."""
        return self._phase_fn(t)[1]

    def e(self, t):
        return np.exp(self._phase_fn(t)[1])

    def state(self, t):
        """The pair (w(t), wdot(t)) from one phase closure call and one
        sin_cos_p evaluation; t may be a scalar or an array."""
        pp = self.problem.params
        phi, log_e = self._phase_fn(t)
        s, c = sin_cos_p(phi, pp.p)
        e = np.exp(log_e)
        return e * s / pp.alpha, e * c

    def w(self, t):
        return self.state(t)[0]

    def wdot(self, t):
        return self.state(t)[1]

    def phase_rate(self, t):
        """phi'(t) evaluated from the right-hand side of the phase equation."""
        p = self.problem.params
        s, c = sin_cos_p(self._phase_fn(t)[0], p.p)
        out = _phase_speed(p.p, p.alpha, _drift(self.problem, t)[0], s, c)
        return as_scalar_or_array(out, np.ndim(t) == 0)

    def w_inverse(self, s):
        """Inverse of w on [a_eff, b], accepting s in [-1, m_max].

        Values outside the range (up to rounding) are clamped to the
        endpoints.  For a = INFINITY the closed form is exact.  Otherwise
        each s is bracketed between two adjacent samples of the monotone
        trajectory and solved by Newton's method from the interpolated
        start, bisecting whenever a Newton step would leave the bracket
        or fails to halve the previous step: near a_eff and b, where
        wdot vanishes, Newton alone converges slowly or overshoots.
        """
        if self.problem.a == INFINITY:
            pp = self.problem.params
            hp = 0.5 * pi_p(pp.p)
            return (inv_sin_p(np.clip(s, -1.0, 1.0), pp.p) + hp) / pp.alpha
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        lo, hi = self.a_eff, self.b
        w_lo = float(np.asarray(self.w(lo)))
        w_hi = float(np.asarray(self.w(hi)))
        out = np.where(arr <= w_lo, lo, hi)
        inside = np.flatnonzero((arr > w_lo) & (arr < w_hi))
        target = arr[inside]
        ts, ws = self.trajectory["t"], self.trajectory["w"]
        k = np.clip(np.searchsorted(ws, target), 1, len(ts) - 1)
        t_lo, t_hi = ts[k - 1], ts[k]
        t = np.clip(np.interp(target, ws, ts), t_lo, t_hi)
        dx_old = t_hi - t_lo
        xtol = 1e-13 * max(1.0, hi)
        act = np.arange(len(target))
        # 100 passes suffice: each step halves the bracket or the last step
        for _ in range(100):
            if act.size == 0:
                break
            tt, sv = t[act], target[act]
            w, d = self.state(tt)
            r = w - sv
            t_lo[act] = np.where(r < 0.0, tt, t_lo[act])
            t_hi[act] = np.where(r > 0.0, tt, t_hi[act])
            with np.errstate(divide="ignore", invalid="ignore"):
                step = r / d
            new = tt - step
            newton = ((new >= t_lo[act]) & (new <= t_hi[act])
                      & (np.abs(2.0 * step) <= np.abs(dx_old[act])))
            new = np.where(newton, new, 0.5 * (t_lo[act] + t_hi[act]))
            dx_old[act] = new - tt
            t[act] = new
            act = act[np.abs(new - tt) > xtol]
        out[inside] = t
        return as_scalar_or_array(out[0] if scalar else out, scalar)


def _drift(prob: ModelProblem, t):
    """Drift T(t) = -(n-1)/t and its derivative T' = T^2/(n-1) at the
    times t (floats or arrays); both are zero where the drift vanishes
    identically, at a = INFINITY and at n = 1."""
    t = np.asarray(t, dtype=float)
    n = prob.params.n_dim
    if prob.a == INFINITY or n == 1.0:
        return np.zeros_like(t), np.zeros_like(t)
    tv = -(n - 1.0) / t
    return tv, tv * tv / (n - 1.0)


def _phase_speed(p, alpha, tv, s, c):
    """phi' = alpha - T/(p-1) * cos_p^(p-1) * sin_p at drift tv and
    (sin_p, cos_p) = (s, c) of the phase; floats or arrays."""
    return alpha - tv / (p - 1.0) * spow(c, p - 1.0) * s


def _phase_rhs(p: float, n: float):
    """Right-hand side of the phase system at lam = p-1 (alpha = 1); its
    evaluation _MAX_PHASE_NFEV + 1 raises RuntimeError."""
    nfev = [0]

    def rhs(t, y):
        nfev[0] += 1
        if nfev[0] > _MAX_PHASE_NFEV:
            raise RuntimeError(f"the phase solve needs more than "
                               f"{_MAX_PHASE_NFEV} right-hand-side "
                               f"evaluations")
        s, c = sin_cos_p(y[0], p)
        tv = -(n - 1.0) / t
        return [_phase_speed(p, 1.0, tv, s, c), tv * abs(c) ** p / (p - 1.0)]

    return rhs


def _solve_phase(p, n, a):
    """Integrate the phase system at lam = p-1 (alpha = 1) from a to
    the first phi = pi_p/2; a and the results are in the normalized time
    alpha*t of every lam, and a = 0 starts at _H0.

    Events locate t0 (phi = 0) and the terminal b (phi = pi_p/2).
    DOP853's 7th-order dense output is what the certificate's
    finite-difference probes (a3 residual, kappa rate) differentiate;
    it is smooth enough for them without a step cap.  Returns
    (b, t0, log_m, dense), dense the _dop853.Solution.
    """
    hp = 0.5 * pi_p(p)
    if a > 0.0:
        t_start, y0 = a, [-hp, 0.0]
    else:
        # The drift term is 0/0 at t = 0: freeze the first step at the
        # limiting rate phi'(0) = 1/n, starting from t = _H0.
        t_start, y0 = _H0, [-hp + _H0 / n, 0.0]

    def ev_zero(t, y):
        return y[0]

    ev_zero.direction = 1.0

    def ev_top(t, y):
        return y[0] - hp

    ev_top.terminal = True
    ev_top.direction = 1.0

    t_max = t_start + 1.05 * n * 2.0 * hp + 1.0
    # a slope that is not finite at the start raises FloatingPointError
    sol = _dop853.solve(_phase_rhs(p, n), t_start, t_max, y0, _RTOL,
                        _ATOL, events=(ev_zero, ev_top))
    if len(sol.t_events[1]) == 0:
        raise RuntimeError(
            f"phase never reached pi_p/2 before t = {t_max:.3g} "
            f"(status {sol.status}: {sol.message})"
        )
    if len(sol.t_events[0]) == 0:
        raise RuntimeError("zero of w not located before the critical point")
    return sol.t_events[1][0], sol.t_events[0][0], sol.y_events[1][0][1], sol


# Largest phase error accepted at the located critical point b, relative
# to max(1, b) in the normalized time scale; a larger one means the event
# location failed.
_PHASE_CHECK_TOL = 1e-9


@guarded
def solve_model(prob: ModelProblem) -> ModelSolution:
    """Solve the model problem and locate b, t0, delta, m_max.

    The phase system is integrated at lam = p-1 (alpha = 1) and mapped
    back to the requested lam by the scale covariance t -> alpha*t, at
    the one step setting _RTOL, _ATOL that the CLI, the certificate and
    `verify` share.

    Raises RuntimeError if event localization fails or the phase solve
    needs more than _MAX_PHASE_NFEV right-hand-side evaluations, and
    ValueError on a floating-point failure (overflow, division by zero
    or an invalid operation) in the solve.
    """
    pp = prob.params
    p, n, alpha = pp.p, pp.n_dim, pp.alpha
    hp = 0.5 * pi_p(p)

    if prob.a == INFINITY:
        # T = 0: exact closed form w(t) = sin_p(alpha*t - pi_p/2) on a
        # canonical window [0, pi_p/alpha]; e is constant = alpha.
        def phase_fn(t):
            arr = np.asarray(t, dtype=float)
            return alpha * arr - hp, np.zeros_like(arr) + math.log(alpha)

        return ModelSolution(
            prob,
            a_eff=0.0,
            b=2.0 * hp / alpha,
            t0=hp / alpha,
            m_max=1.0,
            phase_fn=phase_fn,
            diagnostics={"closed_form": True},
        )

    try:  # in the normalized time alpha * t
        b_n, t0_n, log_m, dense = _solve_phase(p, n, prob.a * alpha)
    except RuntimeError as exc:
        raise RuntimeError(f"solve_model at p = {p!r}, n = {n!r}, "
                           f"a = {prob.a!r}: {exc}") from None
    diagnostics = {"nfev": dense.nfev, "steps": dense.steps,
                   "rejected": dense.rejected, "closed_form": False}

    t_lo, t_hi = dense.t[0], dense.t[-1]
    frozen_start = prob.a == 0.0

    def phase_fn(t, _d=dense, _s=alpha, _lo=t_lo, _hi=t_hi, _la=math.log(alpha)):
        arr = np.asarray(t, dtype=float)
        tau = arr * _s
        phi, log_e = _d(np.clip(tau, _lo, _hi))
        if frozen_start:
            # a = 0: before the solve starts at tau = _H0 the phase follows
            # the frozen first step phi = -pi_p/2 + tau/n, log e = 0
            early = tau < _lo
            phi = np.where(early, -hp + np.maximum(tau, 0.0) / n, phi)
            log_e = np.where(early, 0.0, log_e)
        scalar = arr.ndim == 0
        return (as_scalar_or_array(phi, scalar),
                as_scalar_or_array(log_e + _la, scalar))

    sol = ModelSolution(
        prob,
        a_eff=prob.a,
        b=b_n / alpha,
        t0=t0_n / alpha,
        m_max=math.exp(log_m),
        phase_fn=phase_fn,
        diagnostics=diagnostics,
    )
    # |wdot(b)| itself scales like (phase error)^(1/(p-1)), so the honest
    # terminal check is on the located phase
    phi_b = abs(float(sol.phi(sol.b)) - hp)
    if phi_b > _PHASE_CHECK_TOL * max(1.0, abs(b_n)):
        raise RuntimeError(f"critical-phase location error {phi_b:.2e} exceeds "
                           f"{_PHASE_CHECK_TOL:.0e}")
    return sol


def delta_scan(a_grid, params: PParams):
    """One row per a value: dict(a, delta, m_max, t0, b, status).

    Rows are produced in input order; a failing row carries its error
    message in 'status' and the scan continues.
    """
    rows = []
    for a in a_grid:
        row = {"a": float(a)}
        try:
            sol = solve_model(ModelProblem(params, float(a)))
            row.update(delta=sol.delta, m_max=sol.m_max, t0=sol.t0, b=sol.b,
                       status="ok")
        except Exception as exc:  # per-row marker, scan continues
            row.update(dict.fromkeys(("delta", "m_max", "t0", "b"), math.nan),
                       status=f"error: {exc}")
        rows.append(row)
    return rows
