"""Flat-space differential-operator laboratory.

Evaluates gradients and Hessians of caller-supplied scalar fields by
order-4 central finite differences, and uses them to verify pointwise
identities and inequalities for the p-Laplacian:

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

Stencils are data: one cached table per dim holds the node offsets and
each derivative entry's weights over them (5-point, order 4; a mixed
entry takes the product of 1-d weights).  Derivatives at one point
(dim,) or at each row of a batch (N, dim) cost one field evaluation
over all their nodes, so the nested fields |grad u|^p and Delta_p u
evaluate their whole outer stencil with one batched inner call; the
degenerate-gradient test reads |u| at the zero-offset node, and
bochner_residual derives its base derivatives once for its halved-step
error estimate and the operator.  Fields are evaluated in one call when
the evaluator accepts a (dim, N) array (all catalog fields do), with a
transparent per-point fallback otherwise.  The entry points reject
p <= 1 and steps that are not finite and positive, and report
floating-point overflow as ValueError.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import guarded, spow
from .ptrig import _pval

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
# Relative slack of eigen_estimate_check's lhs >= rhs.
_EIGEN_TOL = 1e-8
# Largest relative eigen-equation residual eigen_estimate_check accepts as
# "the field is an eigenfunction here", measured with its own stencils.
_EIGEN_PRE_TOL = 1e-5

# 1-d weights {offset: w} of f^(k) h^k by the derivative order k along an
# axis, order-4 accurate for entries of total order 1 and 2.
_ORDER4 = {
    1: {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12},
    2: {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12},
}


@dataclass(frozen=True)
class ScalarField:
    """A deterministic scalar function of a dim-vector, C^2 near the
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
    """Order-4 accurate gradient and Hessian of a field at a point."""

    point: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    step: float


def _eval_many(field: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Evaluate at all rows of pts (N, dim), batched when possible."""
    ev = field.evaluator
    try:
        vals = np.asarray(ev(pts.T), dtype=float)
    except Exception:
        vals = None
    if vals is None or vals.shape != (len(pts),):
        vals = np.array([float(ev(p)) for p in pts], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("field evaluation produced non-finite values")
    return vals


@functools.lru_cache(maxsize=None)
def _stencil(dim: int):
    """Node offsets (K, dim), the index of the zero offset, and the
    weights of the gradient (dim, K1) and the Hessian (dim, dim, K), all
    in units of the step; the gradient's weights span the first K1 <= K
    nodes."""
    nodes, weights = {}, [None, None]
    for order in (1, 2):
        entries = []
        for idx in itertools.product(range(dim), repeat=order):
            count = collections.Counter(idx)
            rules = [_ORDER4[k].items() for k in count.values()]
            for terms in itertools.product(*rules):
                off, w = [0] * dim, 1.0
                for axis, (o, wo) in zip(count, terms):
                    off[axis] = o
                    w *= wo
                node = nodes.setdefault(tuple(off), len(nodes))
                entries.append((idx + (node,), w))
        weights[order - 1] = np.zeros((dim,) * order + (len(nodes),))
        for key, w in entries:
            weights[order - 1][key] = w
    centre = nodes[(0,) * dim]
    return (np.array(list(nodes), dtype=float), centre, *weights)


def _derivs(field: ScalarField, points, h: float):
    """(gradient, Hessian, field value) at one point (dim,) or at each
    row of a batch (N, dim), the value read at the stencil's zero-offset
    node; one _eval_many call covers every stencil node of every
    point."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step must be finite and positive, got {h!r}")
    offsets, centre, *weights = _stencil(field.dim)
    nodes = np.asarray(points, dtype=float)[..., None, :] + h * offsets
    lead = nodes.shape[:-2]
    vals = _eval_many(field, nodes.reshape(-1, field.dim))
    vals = vals.reshape(lead + (1, len(offsets)))
    # one pairwise sum per entry and point: a batch row matches its
    # single-point result bit for bit
    out = tuple(
        np.sum(vals[..., :w.shape[-1]] * w.reshape(-1, w.shape[-1]),
               axis=-1).reshape(lead + w.shape[:-1]) / h**k
        for k, w in enumerate(weights, 1))
    return out + (vals[..., 0, centre],)


def _point(field: ScalarField, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (field.dim,):
        raise ValueError(f"point must have shape ({field.dim},)")
    return point


def _halving_error(field: ScalarField, point, step: float, grad,
                   hess) -> float:
    """Largest component change of grad and hess, the derivatives at
    step, when the step is halved (Richardson comparison)."""
    g2, h2, _ = _derivs(field, point, step / 2.0)
    return max(float(np.max(np.abs(grad - g2))),
               float(np.max(np.abs(hess - h2))))


@guarded
def differentiate(field: ScalarField, point,
                  step: float = DEFAULT_STEP) -> DiffReport:
    """Gradient and Hessian at point."""
    point = _point(field, point)
    g, h_, _ = _derivs(field, point, step)
    return DiffReport(point=point, grad=g, hess=h_, step=step)


def _require_gradient(points, grad, u):
    """|grad| at one point or each row of a batch; ValueError where it
    is below 1e-8 max(1, |u|), u the field value there."""
    gn = np.linalg.norm(grad, axis=-1)
    pts = np.reshape(points, (-1, grad.shape[-1]))
    bad = np.flatnonzero(gn < 1e-8 * np.maximum(1.0, np.abs(u)))
    if bad.size:
        raise ValueError(f"degenerate gradient |grad| = "
                         f"{gn.flat[bad[0]]:.2e} at {pts[bad[0]]}")
    return gn


def _operator(field: ScalarField, points, p: float, step: float,
              derivs=None):
    """(grad, Hessian, |grad u|, A_u, Delta_p u) at one point or each
    row of a batch; rejects degenerate-gradient points.  derivs, when
    given, is what _derivs(field, points, step) returns, so the stencil
    is not evaluated again."""
    if derivs is None:
        derivs = _derivs(field, points, step)
    g, h_, u = derivs
    gn = _require_gradient(points, g, u)
    a = np.einsum("...i,...ij,...j->...", g, h_, g) / (gn * gn)
    dpu = gn ** (p - 2.0) * (np.trace(h_, axis1=-2, axis2=-1) + (p - 2.0) * a)
    return g, h_, gn, a, dpu


def _pII(g, gn, hess, p: float):
    """[|g|^(p-2) I + (p-2)|g|^(p-4) g g^T] : hess."""
    return (gn ** (p - 2.0) * np.trace(hess)
            + (p - 2.0) * gn ** (p - 4.0) * (g @ hess @ g))


@guarded
def p_laplacian_at(field: ScalarField, point, p: float, step: float = DEFAULT_STEP) -> float:
    """|grad u|^(p-2) (tr H + (p-2) A_u) at the point; rejects
    degenerate-gradient points."""
    return _operator(field, np.asarray(point, dtype=float), _pval(p), step)[4]


@guarded
def pII_at(field_u: ScalarField, field_g: ScalarField, point, p: float,
           step: float = DEFAULT_STEP) -> float:
    """Contract [|g|^(p-2) I + (p-2)|g|^(p-4) g g^T] with Hess(field_g)."""
    p = _pval(p)
    if field_u.dim != field_g.dim:
        raise ValueError("fields must share a dimension")
    point = np.asarray(point, dtype=float)
    gu, _, gn, _, _ = _operator(field_u, point, p, step)
    _, hg, _ = _derivs(field_g, point, step)
    return _pII(gu, gn, hg, p)


def _pII_gradp(field: ScalarField, point, p: float, step: float,
               derivs=None):
    """(1/p) P^II_u(|grad u|^p) with the nested outer step step^(2/3),
    followed by the base (grad, Hessian, |grad u|, A_u, Delta_p u) it
    was assembled from (from derivs when given, as in _operator)."""
    point = np.asarray(point, dtype=float)
    base = _operator(field, point, p, step, derivs)

    def gradp(y):
        g = _derivs(field, np.transpose(y), step)[0]
        return np.sum(g * g, axis=-1) ** (p / 2.0)

    gfield = ScalarField(field.dim, gradp, name="|grad|^p")
    _, hgp, _ = _derivs(gfield, point, step ** (2.0 / 3.0))
    return (_pII(base[0], base[2], hgp, p) / p, *base)


@guarded
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
    p = _pval(p)
    point = _point(field, point)
    base = _derivs(field, point, step)
    est = _halving_error(field, point, step, base[0], base[1])
    deriv_scale = max(1.0, float(np.max(np.abs(base[0]))),
                      float(np.max(np.abs(base[1]))))
    if est > 1e-2 * deriv_scale:
        raise RuntimeError(
            f"derivative estimate unreliable: est_error = {est:.2e}"
        )
    lhs, g, h_, gn, a, dpu = _pII_gradp(field, point, p, step, base)
    dpf = ScalarField(field.dim, lambda y: _operator(
        field, np.transpose(y), p, step)[4], name="p-laplacian")
    grad_dp, _, _ = _derivs(dpf, point, step ** (2.0 / 3.0))
    rhs = gn ** (2.0 * (p - 2.0)) * (
        gn ** (2.0 - p) * (grad_dp @ g - (p - 2.0) * a * dpu)
        + np.sum(h_ * h_)
        + p * (p - 2.0) * a * a
    )
    return (lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)


@guarded
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
    p = _pval(p)
    if m < field.dim or m <= 1.0:
        raise ValueError(f"m must satisfy m >= dim and m > 1, got {m!r}")
    _, h_, gn, a, dpu = _operator(field, np.asarray(point, dtype=float), p, step)
    lhs = gn ** (2.0 * p - 4.0) * (np.sum(h_ * h_) + p * (p - 2.0) * a * a)
    rhs = dpu * dpu / m + m / (m - 1.0) * (
        dpu / m - (p - 1.0) * gn ** (p - 2.0) * a
    ) ** 2
    ok = bool(lhs >= rhs - _HESSIAN_TOL * max(1.0, abs(lhs), abs(rhs)))
    return lhs, rhs, ok


@guarded
def eigen_estimate_check(
    field: ScalarField,
    point,
    p: float,
    n: float,
    lam: float,
    step: float = DEFAULT_STEP,
):
    """Eigenfunction form of the Hessian bound.

    Requires the field to satisfy Dp u = -lam u^(p-1) at the point
    (relative residual <= 1e-5, measured with the same stencils);
    a violation raises ValueError carrying the measured residual.

    lhs = (1/p) P^II_u(|grad u|^p)
    rhs = lam^2 |u|^(2p-2)/(n-1) + 2(p-1) lam/(n-1) u^(p-1)|g|^(p-2) A_u
          + n/(n-1) (p-1)^2 |g|^(2p-4) A_u^2 - lam (p-1)|u|^(p-2)|g|^p
          + lam (p-2) |g|^(p-2) A_u u^(p-1)
    ok  = lhs >= rhs - 1e-8 * max(1, |lhs|, |rhs|)
    """
    p = _pval(p)
    if n <= 1.0:
        raise ValueError("n must exceed 1")
    point = np.asarray(point, dtype=float)
    u0 = float(_eval_many(field, point[None, :])[0])
    lhs, _, _, gn, a, dpu = _pII_gradp(field, point, p, step)
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
    ok = bool(lhs >= rhs - _EIGEN_TOL * max(1.0, abs(lhs), abs(rhs)))
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
