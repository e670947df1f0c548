"""Flat-space differential-operator laboratory.

Evaluates gradients, Hessians, and third derivatives of caller-supplied
scalar fields by high-order central finite differences, and uses them
to verify pointwise identities and inequalities for the p-Laplacian:

* p_laplacian_at: |grad u|^(p-2) (tr H + (p-2) A_u) with the radial
  Hessian component A_u = <g, H g>/|g|^2;
* pII_at: the second-order part of the linearized operator,
  [|g|^(p-2) I + (p-2)|g|^(p-4) g g^T] : Hess(eta);
* bochner_residual: left minus right side of the flat-space (zero
  curvature) p-Bochner identity, with the derived fields |grad u|^p
  and Delta_p u differentiated by nested stencils;
* hessian_inequality_check: the dimensional lower bound on
  |grad u|^(2p-4) (|H|^2 + p(p-2) A_u^2) with free parameter m >= dim;
* eigen_estimate_check: the eigenfunction form of that bound, with the
  eigen-equation precondition measured and enforced.

Stencils: 5-point, order 4 for first and second derivatives; order 2
for third derivatives.  Fields are evaluated in one batched call when
the evaluator accepts a (dim, N) array (all catalog fields do), with a
transparent per-point fallback otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import spow

__all__ = [
    "ScalarField",
    "DiffReport",
    "CatalogField",
    "differentiate",
    "p_laplacian_at",
    "pII_at",
    "bochner_residual",
    "hessian_inequality_check",
    "eigen_estimate_check",
    "catalog",
]

DEFAULT_STEP = 1e-2
# Relative slack of hessian_inequality_check's lhs >= rhs: rounding only.
_HESSIAN_TOL = 1e-10
# Largest relative eigen-equation residual eigen_estimate_check accepts as
# "the field is an eigenfunction here", measured with its own stencils.
_EIGEN_PRE_TOL = 1e-5

_W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # f' * h, order 4
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # f'' * h^2, order 4
_OFF = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class ScalarField:
    """A deterministic scalar function of a dim-vector, C^3 near the
    points it is queried at."""

    dim: int
    evaluator: object
    name: str = ""

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class DiffReport:
    """Derivatives of a field at a point.

    grad and hess are order-4 accurate, third is order-2; est_error is
    the largest component change when the step is halved (Richardson
    comparison), an observed error bound for the order-4 entries.
    third is None when not requested.
    """

    point: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None
    step: float
    est_error: float


def _eval_many(field: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Evaluate at all rows of pts (N, dim), batched when possible."""
    ev = field.evaluator
    vals = None
    try:
        out = np.asarray(ev(pts.T), dtype=float)
        if out.shape == (len(pts),):
            vals = out
    except Exception:
        vals = None
    if vals is None:
        vals = np.array([float(ev(p)) for p in pts], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("field evaluation produced non-finite values")
    return vals


def _stencil_offsets(d: int, third: bool):
    """Integer offset vectors needed by all requested stencils."""
    offs = {}

    def add(vec):
        offs[tuple(vec)] = None

    zero = [0] * d
    add(zero)
    for i in range(d):
        for o in _OFF:
            v = list(zero)
            v[i] = o
            add(v)
    for i in range(d):
        for j in range(i + 1, d):
            for oi in (-2, -1, 1, 2):
                for oj in (-2, -1, 1, 2):
                    v = list(zero)
                    v[i], v[j] = oi, oj
                    add(v)
    if third:
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                for oi in (-1, 0, 1):
                    for oj in (-1, 1):
                        v = list(zero)
                        v[i], v[j] = oi, oj
                        add(v)
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    for oi in (-1, 1):
                        for oj in (-1, 1):
                            for ok in (-1, 1):
                                v = list(zero)
                                v[i], v[j], v[k] = oi, oj, ok
                                add(v)
    return list(offs)


def _derivs(field: ScalarField, point: np.ndarray, h: float, third: bool):
    d = field.dim
    keys = _stencil_offsets(d, third)
    index = {k: n for n, k in enumerate(keys)}
    pts = point[None, :] + h * np.array(keys, dtype=float)
    vals = _eval_many(field, pts)

    def v(*off):
        vec = [0] * d
        for axis, o in off:
            vec[axis] = o
        return vals[index[tuple(vec)]]

    grad = np.empty(d)
    hess = np.empty((d, d))
    for i in range(d):
        col = np.array([v((i, o)) for o in _OFF])
        grad[i] = np.dot(_W1, col) / h
        hess[i, i] = np.dot(_W2, col) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            acc = 0.0
            for oi, wi in zip(_OFF, _W1):
                if wi == 0.0:
                    continue
                for oj, wj in zip(_OFF, _W1):
                    if wj == 0.0:
                        continue
                    acc += wi * wj * v((i, oi), (j, oj))
            hess[i, j] = hess[j, i] = acc / h**2

    tens = None
    if third:
        tens = np.empty((d, d, d))
        for i in range(d):
            tens[i, i, i] = (
                v((i, 2)) - 2.0 * v((i, 1)) + 2.0 * v((i, -1)) - v((i, -2))
            ) / (2.0 * h**3)
        c2 = {-1: 1.0, 0: -2.0, 1: 1.0}
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                acc = 0.0
                for oi in (-1, 0, 1):
                    acc += c2[oi] * (v((i, oi), (j, 1)) - v((i, oi), (j, -1)))
                val = acc / (2.0 * h**3)
                tens[i, i, j] = tens[i, j, i] = tens[j, i, i] = val
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    acc = 0.0
                    for oi in (-1, 1):
                        for oj in (-1, 1):
                            for ok in (-1, 1):
                                acc += oi * oj * ok * v((i, oi), (j, oj), (k, ok))
                    val = acc / (8.0 * h**3)
                    for perm in ((i, j, k), (i, k, j), (j, i, k),
                                 (j, k, i), (k, i, j), (k, j, i)):
                        tens[perm] = val
    return grad, hess, tens


def differentiate(
    field: ScalarField,
    point,
    step: float = DEFAULT_STEP,
    third: bool = True,
    estimate_error: bool = True,
) -> DiffReport:
    """Gradient, Hessian, and (optionally) third derivatives at point.

    est_error compares against a halved-step evaluation; pass
    estimate_error=False to skip that second pass (est_error = nan).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=float)
    if point.shape != (field.dim,):
        raise ValueError(f"point must have shape ({field.dim},)")
    g, h_, t = _derivs(field, point, step, third)
    if estimate_error:
        g2, h2, t2 = _derivs(field, point, step / 2.0, third)
        est = max(
            float(np.max(np.abs(g - g2))),
            float(np.max(np.abs(h_ - h2))),
            float(np.max(np.abs(t - t2))) if third else 0.0,
        )
    else:
        est = float("nan")
    return DiffReport(point=point, grad=g, hess=h_, third=t, step=step,
                      est_error=est)


def _field_scale(field: ScalarField, point) -> float:
    return max(1.0, abs(float(_eval_many(field, np.asarray(point, float)[None, :])[0])))


def _require_gradient(field, point, grad):
    gn = float(np.linalg.norm(grad))
    if gn < 1e-8 * _field_scale(field, point):
        raise ValueError(
            f"degenerate gradient |grad| = {gn:.2e} at {np.asarray(point)}"
        )
    return gn


def p_laplacian_at(field: ScalarField, point, p: float, step: float = DEFAULT_STEP) -> float:
    """|grad u|^(p-2) (tr H + (p-2) A_u) at the point; rejects
    degenerate-gradient points."""
    point = np.asarray(point, dtype=float)
    g, h_, _ = _derivs(field, point, step, third=False)
    gn = _require_gradient(field, point, g)
    a = g @ h_ @ g / (gn * gn)
    return gn ** (p - 2.0) * (float(np.trace(h_)) + (p - 2.0) * a)


def pII_at(field_u: ScalarField, field_g: ScalarField, point, p: float,
           step: float = DEFAULT_STEP) -> float:
    """Contract [|g|^(p-2) I + (p-2)|g|^(p-4) g g^T] with Hess(field_g)."""
    if field_u.dim != field_g.dim:
        raise ValueError("fields must share a dimension")
    point = np.asarray(point, dtype=float)
    gu, _, _ = _derivs(field_u, point, step, third=False)
    gn = _require_gradient(field_u, point, gu)
    _, hg, _ = _derivs(field_g, point, step, third=False)
    return gn ** (p - 2.0) * float(np.trace(hg)) + (p - 2.0) * gn ** (
        p - 4.0
    ) * float(gu @ hg @ gu)


def _pII_gradp(field: ScalarField, point, p: float, step: float):
    """(1/p) P^II_u(|grad u|^p) with the nested outer step step^(2/3),
    plus the base derivatives it was assembled from."""
    point = np.asarray(point, dtype=float)
    g, h_, _ = _derivs(field, point, step, third=False)
    gn = _require_gradient(field, point, g)
    a = g @ h_ @ g / (gn * gn)
    hout = step ** (2.0 / 3.0)

    def gradp_one(y):
        gg, _, _ = _derivs(field, np.asarray(y, dtype=float), step, third=False)
        return float(np.dot(gg, gg)) ** (p / 2.0)

    def gradp(y):
        # y may be a (dim,) point or a (dim, N) batch
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            return gradp_one(y)
        return np.array([gradp_one(y[:, k]) for k in range(y.shape[1])])

    gfield = ScalarField(field.dim, gradp, name="|grad|^p")
    _, hgp, _ = _derivs(gfield, point, hout, third=False)
    pii = gn ** (p - 2.0) * float(np.trace(hgp)) + (p - 2.0) * gn ** (
        p - 4.0
    ) * float(g @ hgp @ g)
    return pii / p, g, h_, gn, a


def bochner_residual(field: ScalarField, point, p: float,
                     step: float = DEFAULT_STEP) -> float:
    """Normalized defect of the flat-space p-Bochner identity.

    Returns (LHS - RHS) / (|LHS| + |RHS| + 1) where
    LHS = (1/p) P^II_u(|grad u|^p) and
    RHS = |g|^(2p-4) { |g|^(2-p) [<grad Dp u, g> - (p-2) A_u Dp u]
                       + |H|^2 + p(p-2) A_u^2 }
    (zero curvature).  The derived fields |grad u|^p and Dp u are
    differentiated by nested stencils with outer step step^(2/3).
    Raises RuntimeError when the Richardson error estimate of the base
    derivatives is too large for the result to be meaningful.
    """
    point = np.asarray(point, dtype=float)
    rep = differentiate(field, point, step, third=False, estimate_error=True)
    deriv_scale = max(1.0, float(np.max(np.abs(rep.grad))),
                      float(np.max(np.abs(rep.hess))))
    if rep.est_error > 1e-2 * deriv_scale:
        raise RuntimeError(
            f"derivative estimate unreliable: est_error = {rep.est_error:.2e}"
        )
    lhs, g, h_, gn, a = _pII_gradp(field, point, p, step)
    dpu = gn ** (p - 2.0) * (float(np.trace(h_)) + (p - 2.0) * a)
    hout = step ** (2.0 / 3.0)

    def dp_eval(y):
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            return p_laplacian_at(field, y, p, step)
        return np.array(
            [p_laplacian_at(field, y[:, k], p, step) for k in range(y.shape[1])]
        )

    dpf = ScalarField(field.dim, dp_eval, name="p-laplacian")
    grad_dp, _, _ = _derivs(dpf, point, hout, third=False)
    h2 = float(np.sum(h_ * h_))
    rhs = gn ** (2.0 * (p - 2.0)) * (
        gn ** (2.0 - p) * (float(np.dot(grad_dp, g)) - (p - 2.0) * a * dpu)
        + h2
        + p * (p - 2.0) * a * a
    )
    return (lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)


def hessian_inequality_check(
    field: ScalarField,
    point,
    p: float,
    m: float,
    step: float = DEFAULT_STEP,
):
    """Dimensional Hessian lower bound at a point; m >= dim is the free
    dimension parameter.

    lhs = |g|^(2p-4) (|H|^2 + p(p-2) A_u^2)
    rhs = (Dp u)^2/m + m/(m-1) (Dp u/m - (p-1)|g|^(p-2) A_u)^2
    ok  = lhs >= rhs - 1e-10 * max(1, |lhs|, |rhs|)
    """
    if m < field.dim or m <= 1.0:
        raise ValueError(f"m must satisfy m >= dim and m > 1, got {m!r}")
    point = np.asarray(point, dtype=float)
    g, h_, _ = _derivs(field, point, step, third=False)
    gn = _require_gradient(field, point, g)
    a = g @ h_ @ g / (gn * gn)
    dpu = gn ** (p - 2.0) * (float(np.trace(h_)) + (p - 2.0) * a)
    h2 = float(np.sum(h_ * h_))
    lhs = gn ** (2.0 * p - 4.0) * (h2 + p * (p - 2.0) * a * a)
    rhs = dpu * dpu / m + m / (m - 1.0) * (
        dpu / m - (p - 1.0) * gn ** (p - 2.0) * a
    ) ** 2
    ok = bool(lhs >= rhs - _HESSIAN_TOL * max(1.0, abs(lhs), abs(rhs)))
    return lhs, rhs, ok


def eigen_estimate_check(
    field: ScalarField,
    point,
    p: float,
    n: float,
    lam: float,
    step: float = DEFAULT_STEP,
    tol: float = 1e-8,
):
    """Eigenfunction form of the Hessian bound.

    Requires the field to satisfy Dp u = -lam u^(p-1) at the point
    (relative residual <= 1e-5, measured with the same stencils);
    a violation raises ValueError carrying the measured residual.

    lhs = (1/p) P^II_u(|grad u|^p)
    rhs = lam^2 |u|^(2p-2)/(n-1) + 2(p-1) lam/(n-1) u^(p-1)|g|^(p-2) A_u
          + n/(n-1) (p-1)^2 |g|^(2p-4) A_u^2 - lam (p-1)|u|^(p-2)|g|^p
          + lam (p-2) |g|^(p-2) A_u u^(p-1)
    ok  = lhs >= rhs - tol * max(1, |lhs|, |rhs|)
    """
    if n <= 1.0:
        raise ValueError("n must exceed 1")
    point = np.asarray(point, dtype=float)
    u0 = float(_eval_many(field, point[None, :])[0])
    lhs, g, h_, gn, a = _pII_gradp(field, point, p, step)
    dpu = gn ** (p - 2.0) * (float(np.trace(h_)) + (p - 2.0) * a)
    target = -lam * spow(u0, p - 1.0)
    res = abs(dpu - target) / max(1.0, abs(target))
    if res > _EIGEN_PRE_TOL:
        raise ValueError(
            f"field is not an eigenfunction at this point: "
            f"measured eigen-residual {res:.2e} exceeds {_EIGEN_PRE_TOL:.1e}"
        )
    up1 = spow(u0, p - 1.0)
    rhs = (
        lam * lam * abs(u0) ** (2.0 * p - 2.0) / (n - 1.0)
        + 2.0 * (p - 1.0) * lam / (n - 1.0) * up1 * gn ** (p - 2.0) * a
        + n / (n - 1.0) * (p - 1.0) ** 2 * gn ** (2.0 * p - 4.0) * a * a
        - lam * (p - 1.0) * abs(u0) ** (p - 2.0) * gn**p
        + lam * (p - 2.0) * gn ** (p - 2.0) * a * up1
    )
    ok = bool(lhs >= rhs - tol * max(1.0, abs(lhs), abs(rhs)))
    return lhs, rhs, ok


@dataclass(frozen=True)
class CatalogField:
    """A named polynomial test field with a default evaluation point."""

    name: str
    field: ScalarField
    point: np.ndarray


def catalog() -> dict:
    """Built-in polynomial test fields (dimensions 2 and 3).

    All evaluators accept both a (dim,) point and a (dim, N) batch.
    """
    entries = [
        ("poly_2d_a", 2, lambda x: x[0] + 2.0 * x[1] + x[0] ** 2 * x[1],
         (0.3, -0.7)),
        ("poly_2d_b", 2, lambda x: x[0] ** 3 / 3.0 - x[1] + x[0] * x[1] ** 2,
         (0.7, 0.4)),
        ("quad_2d", 2, lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2), (0.8, -0.5)),
        ("poly_3d_a", 3,
         lambda x: x[0] + 2.0 * x[1] - x[2] + x[0] * x[1] * x[2]
         + x[0] ** 2 * x[2],
         (0.4, -0.3, 0.6)),
        ("poly_3d_b", 3,
         lambda x: x[0] ** 2 * x[1] + x[1] ** 2 * x[2] + x[2] ** 2 * x[0],
         (0.5, 0.3, -0.6)),
        ("quad_3d", 3,
         lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2),
         (0.5, 0.5, -0.4)),
    ]
    out = {}
    for name, dim, ev, pt in entries:
        out[name] = CatalogField(
            name=name,
            field=ScalarField(dim=dim, evaluator=ev, name=name),
            point=np.array(pt, dtype=float),
        )
    return out
