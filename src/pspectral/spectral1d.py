"""Discrete spectral-gap solvers on weighted one-dimensional domains.

Domains: a circle of given circumference (periodic, uniform weights), a
segment (uniform interior weights, trapezoid-halved endpoints), and a
radial ball model on [0, R] with measure weight t^(n-1) (trapezoid).

The first nontrivial eigenvalue of the p-Laplacian is computed two ways:

* solve_eigen_variational: the minimizer of the discrete Rayleigh
  quotient sum(cell_w |Du|^p) / sum(w |u|^p) over the zero-p-mean
  constraint set.  On segments and radial domains it is a root of the
  bordered system F = D^T(cell_w spow(Du, p-1)) - lam w spow(u, p-1),
  sum(w |u|^p) = 1 in (u, lam) (Keller's bordering), found by damped
  Newton, started at p = 2 and continued in log(p - 1) to the target p
  (Allgower & Georg); this path uses no random numbers.  Each Newton
  step is one banded LU (LAPACK dgbsv) of an equivalent system with
  three unknowns per node, whose bandwidths do not depend on the border
  (_Bordered).  The circle, whose discrete problem has one critical
  point per mesh phase, and every case where Newton fails (p near 1, a
  floating-point error, a singular Jacobian, a spent step budget, or
  other than one sign change) run the descent: projected,
  weight-preconditioned, normalized subgradient descent with
  backtracking line search, warm-started through a coarse-to-fine mesh
  hierarchy from a seeded perturbation of a sin_p guess, with level
  iteration caps; the projection finds the p-mean shift by a
  safeguarded Newton iteration.  Each mesh level runs in one _Level
  workspace, which holds the level's constants and every array an
  iteration writes, and whose iterates equal those of the frozen
  reference descent (tests/oracles.descend_reference) bit for bit;
* solve_eigen_shooting (radial only): solves the phase-form comparison
  ODE once at lam = p-1, then rescales by the exact scale covariance
  lam(R) = (p-1) (b1/R)^p and samples the profile onto the mesh.

Also provided: a cell-level gradient-bound check of a discrete
eigenfunction against a matched comparison profile, the normalized
mass-ratio profile E(s) with a monotonicity verdict, and a table of
closed-form lower bounds for the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg.lapack import dgbsv

from ._util import guarded, spow
from .model1d import INFINITY, ModelProblem, ModelSolution, PParams, solve_model
from .ptrig import _pval, pi_p, sin_p

__all__ = [
    "Domain1D",
    "DiscreteFunction",
    "EigenResult",
    "SolverOptions",
    "build_domain",
    "rayleigh_quotient",
    "solve_eigen_variational",
    "solve_eigen_shooting",
    "gradient_comparison_check",
    "E_profile",
    "bounds_table",
]

_KINDS = ("circle", "segment", "radial")


@dataclass(frozen=True)
class Domain1D:
    """A uniform 1-d mesh with a node measure and cell (midpoint) measure.

    weights: per-node quadrature weights of the domain measure (zero at
    t = 0 on radial domains with n > 1).  cell_weights: per-cell weights
    used by the energy numerator, evaluated at cell midpoints.  diff and
    diff_adjoint subtract array slices into one array (on the circle the
    wrap entry is set on its own) and divide it by the spacing in place;
    the descent passes its workspace's arrays as out, once per trial and
    per iteration.
    """

    kind: str
    N: int
    nodes: np.ndarray
    weights: np.ndarray
    cell_weights: np.ndarray
    spacing: float
    length: float
    n_weight: float = 1.0

    @property
    def periodic(self) -> bool:
        return self.kind == "circle"

    def diff(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward difference per cell (periodic wrap on circles), into
        out when given."""
        n = len(values) - 1
        if out is None:
            out = np.empty(n + 1 if self.periodic else n)
        np.subtract(values[1:], values[:-1], out=out[:n])
        if self.periodic:
            out[n] = values[0] - values[n]
        out /= self.spacing
        return out

    def diff_adjoint(self, q: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Adjoint of diff against the plain (unweighted) node sum, into
        out when given."""
        if out is None:
            out = np.empty(self.N)
        if self.periodic:
            # q[i-1] - q[i], as np.roll(q, 1) - q gives it
            np.subtract(q[:-1], q[1:], out=out[1:])
            out[0] = q[-1] - q[0]
            out /= self.spacing
            return out
        # (0 - qh[i]) + qh[i-1], as zeros, -= qh and += qh give it
        qh = q / self.spacing
        np.subtract(0.0, qh, out=out[:-1])
        out[-1] = 0.0
        out[1:] += qh
        return out


@dataclass(frozen=True)
class DiscreteFunction:
    domain: Domain1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.N,):
            raise ValueError(
                f"values must have shape ({self.domain.N},), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class EigenResult:
    """First-nontrivial-eigenvalue estimate with its eigenfunction.

    u is normalized to zero p-mean, and rescaled so min u = -1;
    normalization records the scale factor and the p-mean shift that
    produced it.  residual is the larger of the p-mean defect and the
    relative mismatch between lam and the Rayleigh quotient of u.
    """

    lam: float
    u: DiscreteFunction
    p: float
    method: str
    iterations: int
    residual: float
    normalization: dict
    converged: bool
    diagnostics: dict = dc_field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class SolverOptions:
    """Options for the variational backend: seed fixes the random
    perturbation of the descent's start vector.  Newton, which solves
    segment and radial domains unless it fails, takes no random start,
    so there the seed does nothing."""

    seed: int = 0


# The descent on each mesh level stops on a relative Rayleigh-quotient
# stall below _TOL lasting _STALL_WINDOW accepted steps, on step
# collapse, or at the level's iteration cap (coarsest / intermediate /
# finest level of the hierarchy, whose coarsest mesh has at most
# 2 * _COARSEST nodes).  _STEP0 is the initial line-search step.
_TOL = 1e-10
_STALL_WINDOW = 50
_LEVEL_CAPS = (10_000, 5_000, 6_000)
_COARSEST = 33
_STEP0 = 1.0

# Newton on the bordered system (segment and radial domains).  A stage
# ends when its scaled residual is below _NEWTON_TOL, or below
# _NEWTON_FLOOR when no damped step reduces it any more; damping halves
# the step down to _MIN_DAMPING.  The continuation in log(p - 1) starts
# with step _DS0 and gives up below _MIN_DS or past _NEWTON_BUDGET steps
# in all.  Below _NEWTON_P_MIN it does not reach its target.
_JAC_EPS = 1e-8
_NEWTON_TOL = 1e-12
_NEWTON_FLOOR = 1e-8
_MIN_DAMPING = 1e-4
_STAGE_STEPS = 30
_NEWTON_BUDGET = 400
_DS0 = 0.5
_MIN_DS = 1e-3
_NEWTON_P_MIN = 1.25
# A variational result is converged only with residual at most this.
_CONVERGED_RESIDUAL = 1e-8


@guarded
def build_domain(kind: str, N: int, *, L: float | None = None,
                 x0: float = 0.0, x1: float = 1.0,
                 R: float | None = None, n: float | None = None) -> Domain1D:
    """Build a uniform mesh: circle(L), segment(x0, x1), radial(R, n).

    Weights that overflow, and radial weights that all underflow to 0,
    raise ValueError."""
    N = int(N)
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if N < 16:
        raise ValueError("N must be at least 16")
    if kind == "circle":
        if L is None or not (L > 0.0 and np.isfinite(L)):
            raise ValueError("circle needs a positive circumference L")
        h = L / N
        nodes = np.arange(N) * h
        w = np.full(N, h)
        cw = np.full(N, h)
        return Domain1D(kind, N, nodes, w, cw, h, float(L))
    if kind == "segment":
        if not (np.isfinite(x0) and np.isfinite(x1) and x1 > x0):
            raise ValueError("segment needs finite x1 > x0")
        length = x1 - x0
        h = length / (N - 1)
        nodes = np.linspace(x0, x1, N)
        w = np.full(N, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        cw = np.full(N - 1, h)
        return Domain1D(kind, N, nodes, w, cw, h, float(length))
    if R is None or not (R > 0.0 and np.isfinite(R)):
        raise ValueError("radial needs a positive outer radius R")
    if n is None or not (n >= 1.0 and np.isfinite(n)):
        raise ValueError("radial needs a weight dimension n >= 1")
    h = R / (N - 1)
    nodes = np.linspace(0.0, R, N)
    w = nodes ** (n - 1.0) * h
    w[0] *= 0.5
    w[-1] *= 0.5
    cw = ((nodes[:-1] + nodes[1:]) / 2.0) ** (n - 1.0) * h
    if not w.any():
        raise ValueError(f"build_domain: floating-point failure (every "
                         f"node weight r^(n-1) h of the radial domain with "
                         f"R = {R!r} and n = {n!r} underflows to 0)")
    return Domain1D(kind, N, nodes, w, cw, h, float(R), float(n))


def _pow(x: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """x ** e into out, rounded as numpy's ``**`` rounds it: ``**`` takes
    e = 0.5 as sqrt, which also runs faster than np.power."""
    if e == 0.5:
        return np.sqrt(x, out=out)
    return np.power(x, e, out=out)


def _pmean_shift(values: np.ndarray, weights: np.ndarray, p: float,
                 scratch: tuple | None = None) -> float:
    """The unique c with g(c) = sum(weights * spow(values - c, p-1)) = 0.

    g is strictly decreasing in c, so [min, max] brackets the root.
    Safeguarded Newton for every p > 1: it starts at c = 0 when the
    bracket holds 0 (the descent's trial vectors have shift about 0)
    and bisects whenever a Newton step would leave the bracket or fails
    to halve the previous step.  Each pass takes one power |x|^(p-1)
    and divides it by |x| for g'; at an exact zero of x that quotient is
    taken as its limit |x|^(p-2), 1 at p = 2 and 0 above.  The pass
    bisects where g' is not a positive finite number: an exact zero of
    x at p < 2 (g' is infinite there), an overflow next to one, or every
    term underflowing at large p.  It stops when a step or the bracket is
    below 1e-15 * max(1, |lo| + |hi|); in the descent that takes two to
    three passes per call.  The whole search runs under one np.errstate
    that ignores overflow, division by zero and invalid operations: a g'
    that is not finite sends its pass to bisection, and a g that
    overflows keeps its sign.  The passes write into scratch, three
    arrays of len(values) (the descent's workspace holds them), or into
    three new ones.

    The weights are first scaled by the power of two that puts their
    maximum in [1, 2).  That scale is exact and moves neither the root
    nor a Newton step, but it keeps the products weights * |x|^(p-1)
    from underflowing where tiny weights would: at weights of 5e-324
    every product is a multiple of 5e-324, and g jumps over its root.
    The descent's workspace passes weights already so scaled.
    """
    # argmin and argmax run faster than the min and max reductions
    lo = float(values[values.argmin()])
    hi = float(values[values.argmax()])
    if hi - lo < 1e-300:
        return lo
    e = math.frexp(float(weights[weights.argmax()]))[1]
    if e != 1:
        weights = np.ldexp(weights, 1 - e)
    if scratch is None:
        scratch = tuple(np.empty(len(values)) for _ in range(3))
    x, ax, a = scratch
    pm1 = p - 1.0
    c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    dx_old = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            # values - 0.0 is values
            xc = values if c == 0.0 else np.subtract(values, c, out=x)
            np.abs(xc, out=ax)
            _pow(ax, pm1, a)
            gc = float(weights.dot(np.copysign(a, xc, out=x)))
            if gc > 0.0:
                lo = c
            elif gc < 0.0:
                hi = c
            else:
                return c
            dg = pm1 * float(weights.dot(np.divide(a, ax, out=x)))
            if math.isnan(dg) and p >= 2.0:
                # 0/0 at an exact zero of x, where |x|^(p-2) is 1 at
                # p = 2 and 0 above: g' is finite there
                r = np.divide(a, ax, out=np.full_like(a, float(p == 2.0)),
                              where=ax > 0.0)
                dg = pm1 * float(weights.dot(r))
            step = gc / dg if 0.0 < dg < math.inf else math.nan
            new = c + step
            if not (lo <= new <= hi and abs(2.0 * step) <= abs(dx_old)):
                new = 0.5 * (lo + hi)
            dx_old = new - c
            c = new
            tol = 1e-15 * max(1.0, abs(hi) + abs(lo))
            if hi - lo <= tol:
                break
            # a short step ends the search only if no kink of g lies
            # within two steps of c: at p < 2 a tiny |x| inflates g' and
            # makes any Newton step tiny, however far the root is
            if (abs(dx_old) <= tol
                    and float(np.minimum.reduce(ax)) > 2.0 * abs(dx_old)):
                break
    return c


class _Level:
    """The descent's workspace on one mesh level for one p.

    It holds the domain (weights, cell weights, spacing), p - 1, 1/p and
    the preconditioner, and every array an iteration writes: the current
    point v with its difference dv, the trial point v2 with dv2 (the two
    pairs swap when a trial is accepted), the gradient and scratch.
    Every step fills these arrays through numpy's out=, so an iteration
    allocates next to nothing.  The arithmetic is the reference descent's
    (tests/oracles.descend_reference) operation for operation, so the
    iterates are the same bit for bit.
    """

    def __init__(self, dom: Domain1D, p: float):
        self.dom = dom
        self.w = dom.weights
        self.cw = dom.cell_weights
        self.p = p
        self.pm1 = p - 1.0
        self.inv_p = 1.0 / p
        self.precond = np.maximum(self.w, 1e-3 * self.w.mean())
        # the weights as _pmean_shift scales them
        self.w_shift = np.ldexp(self.w, 1 - math.frexp(float(self.w.max()))[1])
        N, M = dom.N, len(self.cw)
        self.v, self.dv = np.empty(N), np.empty(M)
        self.v2, self.dv2 = np.empty(N), np.empty(M)
        self.grad = np.empty(N)
        self.scratch = (np.empty(N), np.empty(N), np.empty(N))
        self.cells = np.empty(M)

    def project(self, values: np.ndarray):
        """Shift values to zero p-mean and scale them to unit weighted
        p-norm, into v2, and difference v2 into dv2.  Returns (the
        Rayleigh quotient of v2, the shift)."""
        t, ax, s, p = self.v2, self.scratch[1], self.cells, self.p
        c = _pmean_shift(values, self.w_shift, p, self.scratch)
        np.subtract(values, c, out=t)
        nrm = float(self.w.dot(_pow(np.abs(t, out=ax), p, ax))) ** self.inv_p
        if nrm == 0.0 or not math.isfinite(nrm):
            raise ValueError("function is identically zero after the p-mean shift")
        np.divide(t, nrm, out=t)
        dv = self.dom.diff(t, out=self.dv2)
        num = float(self.cw.dot(_pow(np.abs(dv, out=s), p, s)))
        den = float(self.w.dot(_pow(np.abs(t, out=ax), p, ax)))
        return num / den, c

    def rayleigh(self, values: np.ndarray) -> float:
        """rayleigh_quotient of values, scaled exactly as it describes."""
        e = math.frexp(float(np.max(np.abs(values))))[1]
        return self.project(np.ldexp(values, 1 - e))[0]

    def accept(self):
        """Make the trial point the current one."""
        self.v, self.v2 = self.v2, self.v
        self.dv, self.dv2 = self.dv2, self.dv

    def trial(self, step: float) -> float:
        """Project v - step * grad into v2; returns its Rayleigh quotient."""
        t = np.multiply(self.grad, step, out=self.v2)
        return self.project(np.subtract(self.v, t, out=t))[0]

    def gradient(self, lam: float) -> float:
        """The preconditioned subgradient of the energy at v into grad,
        divided by its Euclidean norm; returns that norm (below 1e-18
        grad is left undivided).  When the squared norm overflows, grad
        is first divided by the power of two that puts max|grad| in
        [1, 2): the direction is the same."""
        p, pm1, s, g = self.p, self.pm1, self.cells, self.grad
        r, lw = self.scratch[0], self.scratch[1]
        # zero element at cell kinks (Du = 0)
        np.copysign(_pow(np.abs(self.dv, out=s), pm1, s), self.dv, out=s)
        np.multiply(self.cw, s, out=s)
        np.multiply(s, p, out=s)
        self.dom.diff_adjoint(s, out=g)
        np.copysign(_pow(np.abs(self.v, out=r), pm1, r), self.v, out=r)
        np.multiply(self.w, lam * p, out=lw)
        np.subtract(g, np.multiply(lw, r, out=r), out=g)
        np.divide(g, self.precond, out=g)
        try:
            gg = float(g.dot(g))
        except FloatingPointError:  # an overflow raised under guarded()
            gg = math.inf
        if not gg < math.inf:
            e = math.frexp(float(np.maximum.reduce(np.abs(g))))[1]
            np.ldexp(g, 1 - e, out=g)
            gg = float(g.dot(g))
        gn = math.sqrt(gg)
        if not gn < 1e-18:
            np.divide(g, gn, out=g)
        return gn


@guarded
def rayleigh_quotient(u: DiscreteFunction, p: float) -> float:
    """sum(cell_w |Du|^p) / sum(w |u|^p) after the zero-p-mean shift.

    The quotient is scale-invariant, so the values are first divided by
    2^(e-1), e the frexp exponent of max|u|: an exact division that puts
    max|u| in [1, 2), where the powers can neither overflow nor underflow.
    A p whose powers overflow even there (p = 1e308) raises ValueError.
    """
    return _Level(u.domain, _pval(p)).rayleigh(u.values)


def _descend(dom: Domain1D, v: np.ndarray, p: float, cap: int):
    """Projected preconditioned subgradient descent on one mesh level.

    Returns (values, rq, iterations, stopped_by) with stopped_by one of
    "stall", "step_collapse", "gradient_zero", "cap".  One _Level
    workspace serves the whole level: each line-search trial is one
    projection (a p-mean shift starting next to its root, about two
    Newton passes), one difference and one Rayleigh quotient, and the
    accepted trial's difference serves the next iteration's gradient.
    The iterates are those of tests/oracles.descend_reference bit for
    bit.
    """
    ws = _Level(dom, p)
    lam = ws.project(v)[0]
    ws.accept()
    step = _STEP0
    stall = 0
    it = 0
    stopped = "cap"
    while it < cap:
        it += 1
        if ws.gradient(lam) < 1e-18:
            stopped = "gradient_zero"
            break
        improved = False
        while step > 1e-15:
            lam2 = ws.trial(step)
            if lam2 < lam:
                improved = True
                break
            step *= 0.5
        if not improved:
            stopped = "step_collapse"
            break
        rel = (lam - lam2) / max(abs(lam), 1e-300)
        ws.accept()
        lam = lam2
        step *= 1.3
        stall = stall + 1 if rel < _TOL else 0
        if stall >= _STALL_WINDOW:
            stopped = "stall"
            break
    return ws.v, lam, it, stopped


def _coarse_chain(N: int, coarsest: int) -> list:
    out = [N]
    while out[-1] > 2 * coarsest:
        out.append((out[-1] + 1) // 2)
    return out[::-1]


def _subdomain(dom: Domain1D, N: int) -> Domain1D:
    if dom.kind == "circle":
        return build_domain("circle", N, L=dom.length)
    if dom.kind == "segment":
        x0 = float(dom.nodes[0])
        return build_domain("segment", N, x0=x0, x1=x0 + dom.length)
    return build_domain("radial", N, R=dom.length, n=dom.n_weight)


def _prolong(coarse: Domain1D, fine: Domain1D, v: np.ndarray) -> np.ndarray:
    if coarse.periodic:
        xs = np.concatenate([coarse.nodes, [coarse.nodes[-1] + coarse.spacing]])
        vs = np.concatenate([v, [v[0]]])
        return np.interp(fine.nodes, xs, vs)
    return np.interp(fine.nodes, coarse.nodes, v)


def _initial_guess(dom: Domain1D, p: float, rng) -> np.ndarray:
    hp = pi_p(p) / 2.0
    span = dom.nodes - dom.nodes[0]
    periods = 2.0 if dom.periodic else 1.0
    v = sin_p(periods * 2.0 * hp * span / dom.length - hp, p)
    return v + 0.01 * rng.standard_normal(dom.N)


def _finalize(dom: Domain1D, v: np.ndarray, p: float, lam: float,
              method: str, iterations: int, converged: bool,
              diagnostics: dict) -> EigenResult:
    ws = _Level(dom, p)
    c = ws.project(v)[1]
    scale = -1.0 / float(ws.v2.min())
    v = ws.v2 * scale
    u = DiscreteFunction(dom, v)
    pmean = abs(float(np.dot(dom.weights, spow(v, p - 1.0))))
    pnorm = float(np.dot(dom.weights, np.abs(v) ** p))
    rq = ws.rayleigh(v)
    residual = max(pmean / pnorm, abs(rq - lam) / max(abs(lam), 1e-300))
    # a variational stopping rule proves nothing by itself: the result
    # must also satisfy the discrete eigen-equation
    if method == "variational":
        converged = converged and residual <= _CONVERGED_RESIDUAL
    return EigenResult(
        lam=float(lam),
        u=u,
        p=float(p),
        method=method,
        iterations=int(iterations),
        residual=float(residual),
        normalization={"scale": float(scale), "shift": float(c)},
        converged=bool(converged),
        diagnostics=diagnostics,
    )


class _NewtonFailure(Exception):
    """Newton on the bordered system gave up; the message says why and
    steps counts the Newton steps it took."""

    def __init__(self, reason: str, steps: int = 0):
        super().__init__(reason)
        self.steps = steps


class _Bordered:
    """The bordered eigen-system of one segment or radial domain.

    Unknowns (u, lam), equations

        F = D^T (cw spow(Du, p-1)) - lam w spow(u, p-1) = 0,
        G = sum(w |u|^p) - 1 = 0,

    with D the forward difference.  F's rows sum to -lam sum(w spow(u,
    p-1)), because D maps constants to 0, so a root has zero p-mean
    without a row of its own.  The Jacobian is tridiagonal (T) plus the
    border column -wu and the border row p wu, wu = w spow(u, p-1).
    Only the Jacobian regularizes |x|^(p-2), as (x^2 + eps^2)^((p-2)/2)
    with eps = _JAC_EPS; F and G keep the exact signed powers.

    newton_step solves an equivalent banded system in three unknowns
    per node i, (x_i, mu_i, s_i) in that order:

        T x - wu_i mu_i = -F_i              (node row, index 3i),
        mu_i - mu_(i+1) = 0, i < N-1        (copy chain, index 3i+1),
        s_(N-1) = -G                        (closure, index 3N-2),
        s_i - s_(i-1) - p wu_i x_i = 0      (running sum, index 3i+2),

    so every mu_i equals dlam and s_(N-1) carries the border row.  Its
    bandwidths are kl = ku = 3, and partial pivoting keeps the fill in
    the band.  ab holds the constant +-1 entries in dgbsv's band storage
    (entry (r, c) at ab[6 + r - c, c]; rows 0-2 are the fill); dgbsv
    factors a copy, so a step rewrites only the entries that vary.
    """

    def __init__(self, dom: Domain1D):
        self.dom, self.w, self.cw = dom, dom.weights, dom.cell_weights
        self.ab = ab = np.zeros((10, 3 * dom.N), order="F")
        ab[6, 1:-3:3], ab[3, 4::3] = 1.0, -1.0  # copy chain
        ab[5, -1] = 1.0  # closure
        ab[6, 2::3], ab[9, 2:-3:3] = 1.0, -1.0  # running sum

    def residual(self, u: np.ndarray, lam: float, p: float):
        """(F, G, size), size = max(|F|_1 / (|lam| sum(w |u|^(p-1))),
        |G|)."""
        wu = self.w * spow(u, p - 1.0)
        F = self.dom.diff_adjoint(self.cw * spow(self.dom.diff(u), p - 1.0))
        F -= lam * wu
        G = float(np.dot(self.w, np.abs(u) ** p)) - 1.0
        scale = abs(lam) * float(np.abs(wu).sum())
        size = float(np.abs(F).sum()) / scale if scale > 0.0 else math.inf
        return F, G, max(size, abs(G))

    def newton_step(self, u: np.ndarray, lam: float, p: float, F, G):
        """The Newton step (du, dlam) of (F, G) at (u, lam): one banded
        LU (LAPACK dgbsv) of the three-unknowns-per-node system, into
        which it writes T's three diagonals and the two wu strips."""
        du = self.dom.diff(u)
        a, e2 = 0.5 * p - 1.0, _JAC_EPS ** 2
        k = self.cw * (p - 1.0) * (du * du + e2) ** a / self.dom.spacing ** 2
        main = -lam * (p - 1.0) * self.w * (u * u + e2) ** a
        main[:-1] += k
        main[1:] += k
        wu = self.w * spow(u, p - 1.0)
        ab = self.ab
        ab[6, 0::3] = main
        ab[3, 3::3] = ab[9, 0:-3:3] = -k
        ab[5, 1::3] = -wu
        ab[8, 0::3] = -p * wu
        b = np.zeros(ab.shape[1])
        b[0::3] = -F
        b[-2] = -G
        d, info = dgbsv(3, 3, ab, b)[2:]
        if info > 0:
            raise _NewtonFailure(f"singular Jacobian (zero pivot {info})")
        if not np.all(np.isfinite(d)):
            raise _NewtonFailure("non-finite Newton step")
        return d[0::3], float(d[1])

    def stage(self, u: np.ndarray, lam: float, p: float):
        """Damped Newton at one p from (u, lam): each step is halved until
        it reduces the residual's size.  Returns (u, lam, steps) once the
        size is below _NEWTON_TOL, or below _NEWTON_FLOOR where a step no
        longer halves it; raises _NewtonFailure."""
        F, G, size = self.residual(u, lam, p)
        for steps in range(1, _STAGE_STEPS + 1):
            try:
                du, dlam = self.newton_step(u, lam, p, F, G)
            except _NewtonFailure as exc:
                exc.steps = steps
                raise
            t = 1.0
            while True:
                u2, lam2 = u + t * du, lam + t * dlam
                F2, G2, size2 = self.residual(u2, lam2, p)
                if size2 < size or size <= _NEWTON_FLOOR or t < _MIN_DAMPING:
                    break
                t *= 0.5
            if not size2 < size:
                if size <= _NEWTON_FLOOR:
                    return u, lam, steps
                raise _NewtonFailure(f"no decrease from residual {size:.3e}",
                                     steps)
            stalled = size2 > 0.5 * size
            u, lam, F, G, size = u2, lam2, F2, G2, size2
            if size <= _NEWTON_TOL or (stalled and size <= _NEWTON_FLOOR):
                return u, lam, steps
        raise _NewtonFailure(f"residual {size:.3e} after {_STAGE_STEPS} steps",
                             _STAGE_STEPS)


def _sign_changes(u: np.ndarray) -> int:
    s = np.sign(u)
    s = s[s != 0.0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def _newton_continuation(dom: Domain1D, p: float):
    """Newton on the bordered system, from p = 2 along log(p - 1) to p.

    The start at p = 2 is the sin guess shifted to zero weighted mean;
    from the unshifted guess no damped step reduces the residual on
    radial n = 3 and 5, whose constant mode it overlaps.
    Each stage starts from the last accepted u scaled to unit weighted
    p-norm at its p, with lam its Rayleigh quotient.  A stage that fails,
    or whose u has other than one sign change, halves the step in
    log(p - 1); one that converges within four steps doubles it.
    Returns (u, lam, steps, stages), stages one dict per stage tried
    (N, p, iterations, rq, stopped_by).  Raises _NewtonFailure when the
    p = 2 stage fails, the step falls below _MIN_DS or the steps exceed
    _NEWTON_BUDGET, and lets FloatingPointError through.
    """
    system = _Bordered(dom)
    w = dom.weights
    u = -np.cos(np.pi * (dom.nodes - dom.nodes[0]) / dom.length)
    u -= np.dot(w, u) / w.sum()
    stages, total = [], 0

    def run(u, pk):
        """One stage at pk; returns (u, lam), u None if it failed."""
        nonlocal total
        u = u / float(np.dot(w, np.abs(u) ** pk)) ** (1.0 / pk)
        lam = float(np.dot(dom.cell_weights, np.abs(dom.diff(u)) ** pk))
        try:
            u, lam, steps = system.stage(u, lam, pk)
            stop = "residual"
            if _sign_changes(u) != 1 or not lam > 0.0:
                u, stop = None, "sign_changes"
        except _NewtonFailure as exc:
            u, steps, stop = None, exc.steps, str(exc)
        total += steps
        stages.append({"N": dom.N, "p": pk, "iterations": steps,
                       "rq": lam, "stopped_by": stop})
        if total > _NEWTON_BUDGET:
            raise _NewtonFailure(f"step budget {_NEWTON_BUDGET} spent")
        return u, lam

    u, lam = run(u, 2.0)
    if u is None:
        raise _NewtonFailure(f"{stages[-1]['stopped_by']} at p = 2")
    s, target = 0.0, math.log(p - 1.0)
    ds = math.copysign(_DS0, target)
    while s != target:
        s_next = target if abs(target - s) <= abs(ds) else s + ds
        pk = p if s_next == target else 1.0 + math.exp(s_next)
        u_next, lam_next = run(u, pk)
        if u_next is None:
            ds *= 0.5
            if abs(ds) < _MIN_DS:
                raise _NewtonFailure(f"continuation stalled at p = {pk!r}")
            continue
        u, lam, s = u_next, lam_next, s_next
        if stages[-1]["iterations"] <= 4:
            ds *= 2.0
    return u, lam, total, stages


@guarded
def solve_eigen_variational(domain: Domain1D, p: float,
                            opts: SolverOptions | None = None) -> EigenResult:
    """The discrete minimizer of the Rayleigh quotient over the
    zero-p-mean set, and its eigenvalue.

    Segment and radial domains take damped Newton on the bordered
    system (u, lam) (_Bordered), started at p = 2 and continued in
    log(p - 1) to p; it uses no seed.  diagnostics["levels"] holds one
    entry per continuation stage (N, p, iterations as Newton steps, rq
    as its lam, stopped_by).
    The coarse-to-fine descent runs on the circle, whose discrete
    problem has one critical point per mesh phase, and wherever Newton
    fails: p below _NEWTON_P_MIN, a non-finite value or floating-point
    error, a singular Jacobian, a stage or step budget spent, or not
    exactly one sign change.  diagnostics["newton_failure"] then says
    why.  Its levels are the mesh levels.  diagnostics["solver"] is
    "newton" or "descent".  converged is False when the residual
    exceeds _CONVERGED_RESIDUAL, on either path, or when a level of the
    descent stopped at its iteration cap.
    Floating-point overflow in the descent (say, differences on a
    1e-300 mesh) raises ValueError.
    """
    p = _pval(p)
    opts = opts or SolverOptions()
    failure = None
    if domain.kind != "circle":
        try:
            if p < _NEWTON_P_MIN:
                raise _NewtonFailure(f"p below {_NEWTON_P_MIN}")
            u, lam, steps, stages = _newton_continuation(domain, p)
        except (_NewtonFailure, FloatingPointError, OverflowError) as exc:
            failure = str(exc) or type(exc).__name__
        else:
            return _finalize(domain, u, p, lam, "variational", steps, True,
                             {"levels": stages, "solver": "newton",
                              "options": opts})
    return _descent(domain, p, opts, failure)


def _descent(domain: Domain1D, p: float, opts: SolverOptions,
             failure: str | None) -> EigenResult:
    rng = np.random.default_rng(opts.seed)
    chain = _coarse_chain(domain.N, _COARSEST)
    level_info = []
    total = 0
    prev = None
    v = None
    lam = np.inf
    for i, Ni in enumerate(chain):
        dom = _subdomain(domain, Ni) if Ni != domain.N else domain
        if i == 0:
            v = _initial_guess(dom, p, rng)
        else:
            v = _prolong(prev, dom, v)
        if i == 0:
            cap = _LEVEL_CAPS[0]
        elif Ni < domain.N:
            cap = _LEVEL_CAPS[1]
        else:
            cap = _LEVEL_CAPS[2]
        v, lam, it, stopped = _descend(dom, v, p, cap)
        total += it
        level_info.append({"N": Ni, "iterations": it, "rq": lam,
                           "stopped_by": stopped})
        prev = dom
    converged = all(lv["stopped_by"] != "cap" for lv in level_info)
    diagnostics = {"levels": level_info, "solver": "descent", "options": opts}
    if failure is not None:
        diagnostics["newton_failure"] = failure
    return _finalize(domain, v, p, lam, "variational", total, converged,
                     diagnostics)


@guarded
def solve_eigen_shooting(domain: Domain1D, p: float) -> EigenResult:
    """Radial backend: one phase-form solve at lam = p-1, rescaled by
    lam(R) = (p-1) (b1/R)^p, with the profile sampled onto the mesh.
    A rescaling, or a difference of the sampled profile, that overflows
    (R near the smallest floats) raises ValueError."""
    if domain.kind != "radial":
        raise ValueError("shooting backend requires a radial domain")
    p = _pval(p)
    sol = solve_model(ModelProblem(PParams(p=p, n_dim=domain.n_weight), a=0.0))
    b1 = sol.b
    R = domain.length
    lam = (p - 1.0) * (b1 / R) ** p
    v = np.asarray(sol.w(domain.nodes * (b1 / R)), dtype=float)
    return _finalize(
        domain, v, p, lam, "shooting", 0, True,
        {"b1": b1, "t0_scaled": sol.t0 * R / b1, "m_max": sol.m_max},
    )


# Values handed to w^-1 are clipped this far inside the profile range
# [-1, m_max], where w^-1 is finite.
_CLIP_EPS = 1e-13


def _profile_frame(res: EigenResult, sol: ModelSolution):
    """Opening of the profile checks: sol must match res (same p and lam)
    and its range [-1, m_max] must cover res's values up to max(1e-9,
    alpha * h).  Returns (domain, alpha, alpha * h, the clipped values)."""
    params = sol.problem.params
    if params.p != res.p:
        raise ValueError(
            f"exponent mismatch: result p = {res.p}, profile p = {params.p}"
        )
    if abs(params.lam - res.lam) > 1e-6 * max(1.0, abs(res.lam)):
        raise ValueError(
            f"eigenvalue mismatch: result {res.lam!r}, profile {params.lam!r}"
        )
    dom = res.u.domain
    alpha = params.alpha
    h_norm = alpha * dom.spacing
    slack = max(1e-9, h_norm)
    u = res.u.values
    m = sol.m_max
    umin = float(u.min())
    umax = float(u.max())
    if umin < -1.0 - slack or umax > m + slack:
        raise ValueError(
            f"range [{umin:.6f}, {umax:.6f}] is not covered by the profile "
            f"range [-1, {m:.6f}] (allowed slack {slack:.2e})"
        )
    return dom, alpha, h_norm, np.clip(u, -1.0 + _CLIP_EPS, m - _CLIP_EPS)


# Allowed cell-level gradient excess over the profile bound, in units of
# the normalized mesh spacing alpha * h: the discrete eigenfunction
# differs from the profile by O(h).
_GRADIENT_TOL = 5.0


def gradient_comparison_check(res: EigenResult, sol: ModelSolution) -> dict:
    """Cell-level check |Du| <= max over the cell of wdot(w^-1(u)).

    The forward difference is an average of the gradient over the cell,
    so it is compared against the largest profile bound attained at the
    cell's endpoints and midpoint.  Violations are reported in the
    normalized frame (lengths scaled by alpha = (lam/(p-1))^(1/p)), and
    the check passes iff max_violation_normalized <= 5 * alpha * h.
    """
    dom, alpha, h_norm, uc = _profile_frame(res, sol)
    du = dom.diff(uc)
    # profile bound at nodes and at cell midpoints
    mids = (uc + np.roll(uc, -1)) / 2.0 if dom.periodic else (uc[:-1] + uc[1:]) / 2.0
    mids = np.clip(mids, -1.0 + _CLIP_EPS, sol.m_max - _CLIP_EPS)
    bnd_nodes = np.asarray(sol.wdot(sol.w_inverse(uc)), dtype=float)
    bnd_mids = np.asarray(sol.wdot(sol.w_inverse(mids)), dtype=float)
    if dom.periodic:
        bound = np.maximum(np.maximum(bnd_nodes, np.roll(bnd_nodes, -1)),
                           bnd_mids)
    else:
        bound = np.maximum(np.maximum(bnd_nodes[:-1], bnd_nodes[1:]),
                           bnd_mids)
    viol = np.abs(du) - bound
    worst = int(np.argmax(viol))
    max_v = float(viol[worst])
    allowed = _GRADIENT_TOL * h_norm
    return {
        "max_violation": max_v,
        "max_violation_normalized": max_v / alpha,
        "allowed_normalized": allowed,
        "h_normalized": h_norm,
        "alpha": alpha,
        "worst_cell": worst,
        "worst_x": float(dom.nodes[worst]),
        "n_cells": int(len(du)),
        "passed": bool(max_v / alpha <= allowed),
    }


# E_profile samples E at _E_SAMPLES values of s and drops those whose
# denominator is below _E_TRIM of its maximum, where both integrals of the
# ratio vanish and E is noise.
_E_SAMPLES = 400
_E_TRIM = 0.2


def E_profile(res: EigenResult, sol: ModelSolution,
              node_weights: np.ndarray | None = None) -> dict:
    """Mass-ratio profile E(s) of the discrete eigenfunction.

    Pushes the node measure forward under g = w^-1(u) and compares its
    signed profile mass with the profile's own measure t^(n-1) dt:

        E(s) = sum_{g_i <= s} w_i u_i^(p-1)
               / integral_a^s w(t)^(p-1) t^(n-1) dt.

    The denominator is exact: the model in divergence form,
    (t^(n-1) wdot^(p-1))' = -lam t^(n-1) w^(p-1) with wdot(a) = 0, makes
    it the flux -s^(n-1) wdot(s)^(p-1) / lam (powers signed; n = 1 at
    a = INFINITY, where the model has no drift).
    Samples with denominator below 0.2 * max|denominator| are dropped
    (both integrals vanish at the window ends).  The verdict demands E
    nondecreasing before the profile's zero t0 and nonincreasing after,
    within mono_tol = 10 * alpha * h * median|E|.  node_weights
    overrides the pushed-forward measure (negative controls).
    """
    dom, _, h_norm, uc = _profile_frame(res, sol)
    params = sol.problem.params
    g = np.asarray(sol.w_inverse(uc), dtype=float)
    weights = dom.weights if node_weights is None else np.asarray(node_weights,
                                                                  dtype=float)
    if weights.shape != (dom.N,):
        raise ValueError("node_weights must have one entry per node")
    order = np.argsort(g)
    gs = g[order]
    num_cum = np.cumsum(weights[order] * spow(uc[order], params.p - 1.0))

    k = 0.0 if sol.problem.a == INFINITY else params.n_dim - 1.0

    def flux(t, wdot):
        return -t ** k * spow(wdot, params.p - 1.0) / params.lam

    traj = sol.trajectory
    dmax = float(np.max(np.abs(flux(traj["t"], traj["wdot"]))))

    svals = np.linspace(gs[2], gs[-2], _E_SAMPLES)
    dens = flux(svals, sol.wdot(svals))
    keep = np.abs(dens) >= _E_TRIM * dmax
    s_kept = svals[keep]
    nums = num_cum[np.searchsorted(gs, s_kept, side="right") - 1]
    E = nums / dens[keep]

    med = float(np.median(E))
    spread = float(np.max(np.abs(E / med - 1.0))) if len(E) else np.nan
    mono_tol = 10.0 * h_norm * abs(med)
    t0 = sol.t0
    left = E[s_kept <= t0]
    right = E[s_kept >= t0]
    incr_defect = float(np.max(np.maximum(0.0, -np.diff(left)))) if len(left) > 1 else 0.0
    decr_defect = float(np.max(np.maximum(0.0, np.diff(right)))) if len(right) > 1 else 0.0
    incr_ok = incr_defect <= mono_tol
    decr_ok = decr_defect <= mono_tol
    return {
        "s": s_kept,
        "E": E,
        "t0": t0,
        "median": med,
        "spread": spread,
        "h_normalized": h_norm,
        "mono_tol": float(mono_tol),
        "increasing_defect": incr_defect,
        "decreasing_defect": decr_defect,
        "increasing_ok": bool(incr_ok),
        "decreasing_ok": bool(decr_ok),
        "monotone_ok": bool(incr_ok and decr_ok),
        "n_kept": int(len(E)),
    }


def bounds_table(p: float, d: float) -> list:
    """Closed-form lower bounds for the spectral gap at diameter d.

    Rows: sharp      (p-1) (pi_p/d)^p            any p > 1
          hui        (p-1) (pi_p/(2d))^p         any p > 1 (= sharp/2^p)
          kn         (pi/(4d))^p / (p-1)         requires p >= 2
          li_yau     pi^2/(4 d^2)                requires p = 2
          zhong_yang pi^2/d^2                    requires p = 2
    Values are always computed; the applicable flag records whether the
    bound's hypotheses cover the requested exponent.  A value too large
    for a double is inf.
    """
    p = _pval(p)
    if not (d > 0.0 and np.isfinite(d)):
        raise ValueError("d must be positive and finite")
    pp = pi_p(p)
    # in numpy scalars a result past the double range is inf instead of
    # an OverflowError or ZeroDivisionError
    x, y = np.float64(p), np.float64(d)
    with np.errstate(over="ignore", divide="ignore"):
        sharp = float((x - 1.0) * (pp / y) ** x)
        hui = float((x - 1.0) * (pp / (2.0 * y)) ** x)
        kn = float((np.pi / (4.0 * y)) ** x / (x - 1.0))
        li_yau = float(np.pi**2 / (4.0 * y * y))
        zhong_yang = float(np.pi**2 / (y * y))
    rows = [
        {
            "name": "sharp",
            "value": sharp,
            "applicable": True,
            "requires": "p > 1",
            "description": "sharp gap bound (p-1) (pi_p/d)^p",
        },
        {
            "name": "hui",
            "value": hui,
            "applicable": True,
            "requires": "p > 1",
            "description": "doubled-diameter bound, sharp/2^p",
        },
        {
            "name": "kn",
            "value": kn,
            "applicable": bool(p >= 2.0),
            "requires": "p >= 2",
            "description": "earlier power-type bound (pi/(4d))^p/(p-1)",
        },
        {
            "name": "li_yau",
            "value": li_yau,
            "applicable": bool(p == 2.0),
            "requires": "p = 2",
            "description": "classical quadratic-case bound pi^2/(4d^2)",
        },
        {
            "name": "zhong_yang",
            "value": zhong_yang,
            "applicable": bool(p == 2.0),
            "requires": "p = 2",
            "description": "sharp quadratic-case bound pi^2/d^2",
        },
    ]
    return rows
