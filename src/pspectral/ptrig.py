"""Generalized p-trigonometric functions.

Implements the half-period pi_p, the generalized sine/cosine pair
(sin_p, cos_p), the inverse sine, and the p-arctangent.  On the
principal branch sin_p inverts the incomplete integral

    x = integral_0^s (1 - sigma**p)**(-1/p) dsigma,        |s| <= 1,

whose half-period is pi_p = 2*pi/(p*sin(pi/p)).  The pair satisfies
|sin_p|**p + |cos_p|**p = 1 with cos_p = d/dx sin_p, and sin_p extends
to the real line by oddness, the reflection sin_p(pi_p - x) = sin_p(x),
and 2*pi_p periodicity.  For p = 2 everything reduces to the classical
circular functions.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaincinv, gamma

from ._util import as_scalar_or_array

__all__ = [
    "pi_p",
    "pi_p_quadrature",
    "sin_p",
    "cos_p",
    "sin_cos_p",
    "inv_sin_p",
    "inv_sin_p_quadrature",
    "tan_p",
    "arctan_p",
]


def _pval(p) -> float:
    """p as a float, rejected unless finite and > 1."""
    pv = float(p)
    if 1.0 < pv < math.inf:
        return pv
    if not math.isfinite(pv):
        raise ValueError(f"exponent must be finite, got {pv!r}")
    raise ValueError(f"exponent must satisfy p > 1, got {pv}")


@functools.lru_cache(maxsize=128)
def _p_constants(pv: float):
    """Per-p constants (pi_p, a, b, B(a, b), y_split) with a = 1/p,
    b = 1 - 1/p.

    Shared by the scalar and the array paths of sin_cos_p and by the
    other functions of the family; pv must already be validated.  B is
    inf for p within a few ulps of the largest float, where gamma(1/p)
    ~ p overflows.  y_split is where the principal solve changes branch
    (see _principal_sin_cos).
    """
    # sin(pi/p) = sin(pi*(p-1)/p).  For p < 2 the second form is used:
    # p - 1 is exact there, while pi/p lies next to pi, where the sine
    # cancels and loses all relative accuracy as p -> 1.
    angle = math.pi * (pv - 1.0) / pv if pv < 2.0 else math.pi / pv
    a, b = 1.0 / pv, 1.0 - 1.0 / pv
    # the complement's z = 1 - s**p exceeds 0.99 exactly below this y
    y_split = max(0.7, 1.0 - float(betainc(b, a, 0.99)))
    return (2.0 * math.pi / (pv * math.sin(angle)), a, b,
            float(gamma(a) * gamma(b)), y_split)


def pi_p(p) -> float:
    """Half-period of sin_p: 2*pi/(p*sin(pi/p)); pi_2 = pi."""
    return _p_constants(_pval(p))[0]


def _quad_integrand(t: float, pv: float) -> float:
    # After the substitution sigma = 1 - t**q with q = p/(p-1), the
    # integrand q*t**(q-1) * (1 - (1-t**q)**p)**(-1/p) is bounded on
    # [0, 1]; 1 - (1-u)**p is evaluated via expm1/log1p to keep full
    # relative accuracy for small u.
    q = pv / (pv - 1.0)
    u = t**q if t > 0.0 else 0.0
    # Below u = 1e-300, 1 - (1-u)**p = p*u to full precision and the
    # integrand equals its u -> 0 limit q * p**(-1/p).  Evaluated there
    # directly (as p -> 1, q grows and t**q reaches this range), p*u
    # underflows and its power divides by zero or overflows.
    if u < 1e-300:
        return q * pv ** (-1.0 / pv)
    if u >= 1.0:
        one_minus = 1.0
    else:
        one_minus = -math.expm1(pv * math.log1p(-u))
    return q * t ** (q - 1.0) * one_minus ** (-1.0 / pv)


def inv_sin_p_quadrature(s: float, p) -> float:
    """Inverse p-sine by adaptive quadrature of the defining integral.

    Evaluates integral_0^s (1-sigma**p)**(-1/p) dsigma with the
    endpoint singularity at sigma = 1 removed by the substitution
    sigma = 1 - t**(p/(p-1)).  Slower than inv_sin_p but entirely
    independent of the incomplete-beta route; used as a cross-check.
    """
    pv = _pval(p)
    sv = float(s)
    if abs(sv) > 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {sv}")
    if sv == 0.0:
        return 0.0
    q = pv / (pv - 1.0)
    t_lo = (1.0 - abs(sv)) ** (1.0 / q)
    # t**q climbs from e^-40 to 1 over the last 40/q of [0, 1]: as p -> 1
    # that layer narrows, and quad misses it unless told where it starts.
    # At p >= 1.026 (q <= 40) the break lies outside [t_lo, 1].
    t_break = 1.0 - 40.0 / q
    val, _ = integrate.quad(
        _quad_integrand, t_lo, 1.0, args=(pv,), epsabs=1e-14, epsrel=1e-13, limit=200,
        points=[t_break] if t_lo < t_break else None,
    )
    return math.copysign(val, sv)


def pi_p_quadrature(p) -> float:
    """Half-period via the defining integral (independent of the closed form)."""
    return 2.0 * inv_sin_p_quadrature(1.0, p)


def inv_sin_p(s, p):
    """Inverse of sin_p on the principal branch [-pi_p/2, pi_p/2].

    Uses the substitution u = sigma**p, which turns the defining
    integral into an incomplete beta integral:

        inv_sin_p(s) = (pi_p/2) * I(1/p, 1-1/p; s**p),

    where I is the regularized incomplete beta function.  Raises on
    |s| > 1.
    """
    pv = _pval(p)
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(np.abs(arr) > 1.0 + 1e-15):
        bad = arr[np.abs(arr) > 1.0 + 1e-15][0]
        raise ValueError(f"argument must lie in [-1, 1], got {bad}")
    arr = np.clip(arr, -1.0, 1.0)
    pp, a, b, _, _ = _p_constants(pv)
    out = np.sign(arr) * 0.5 * pp * betainc(a, b, np.abs(arr) ** pv)
    return as_scalar_or_array(out[0] if scalar else out, scalar)


# The principal solve takes the complement branch at y = x/(pi_p/2) >=
# y_split = max(0.7, 1 - I(b, a; 0.99)), that is, at y >= 0.7 unless the
# complement's z = 1 - s**p exceeds 0.99: at large p, s**p is small
# there too (1e-31 at p = 200, y = 0.7), z rounds toward 1 and
# s = (1 - z)**(1/p) loses its digits.  At p <= 10, s**p >= 0.033 on
# y >= 0.7, so y_split = 0.7 and the complement branch keeps that range.


def _principal_sin_cos(x: np.ndarray, pv: float):
    """sin_p and cos_p for x in [0, pi_p/2], vectorized.

    Inverts the incomplete-beta form of the defining integral with
    betaincinv, then applies safeguarded Newton corrections on the
    monotone map itself.  Near the right endpoint (y >= y_split, see
    above) the complement variable z = 1 - s**p (= cos_p**p) is solved
    instead so that cos_p retains full relative accuracy.  Where u = s**p falls below 1e-300 it has lost its
    precision to underflow (at large p this happens at moderate s:
    s**p < 1e-300 for s < 0.5 at p = 1000); there x(s) = s +
    s**(p+1)/(p(p+1)) + ... equals s to double precision, so s = x.
    _sin_cos_scalar is the same algorithm on Python floats.
    """
    pp, a, b, beta_ab, y_split = _p_constants(pv)
    hp = 0.5 * pp
    y = np.clip(x / hp, 0.0, 1.0)
    s = np.empty_like(y)
    z = np.empty_like(y)  # z = 1 - s**p = cos_p**p

    lo = y < y_split
    hi = ~lo
    if np.any(lo):
        yl = y[lo]
        u = betaincinv(a, b, yl)
        sv = u**a  # a = 1/p
        # Newton on G(s) = I(a, b; s**p) - y; G'(s) = p*(1-s**p)**(-1/p)/B(a,b)
        for _ in range(2):
            one_minus = 1.0 - sv**pv
            one_minus = np.maximum(one_minus, 1e-300)
            res = betainc(a, b, sv**pv) - yl
            sv = sv - res * beta_ab / pv * one_minus**a
            sv = np.clip(sv, 0.0, 1.0)
        sv = np.where(u < 1e-300, x[lo], sv)
        s[lo] = sv
        z[lo] = np.maximum(1.0 - sv**pv, 0.0)
    if np.any(hi):
        yh = y[hi]
        # complement: I(b, a; z) = 1 - y with z = 1 - s**p
        zv = betaincinv(b, a, 1.0 - yh)
        # Newton on G2(z) = I(b, a; z) - (1-y); G2'(z) = z**(b-1)(1-z)**(a-1)/B
        for _ in range(2):
            zc = np.clip(zv, 1e-300, 1.0)
            res = betainc(b, a, zc) - (1.0 - yh)
            dg = zc ** (b - 1.0) * np.maximum(1.0 - zc, 1e-300) ** (a - 1.0) / beta_ab
            zv = zv - res / dg
            zv = np.clip(zv, 0.0, 1.0)
        z[hi] = zv
        s[hi] = (1.0 - zv) ** a
    c = z**a
    return s, c


def _pow(x: float, e: float) -> float:
    # numpy's power, not float.__pow__: numpy may take a vectorized pow
    # that rounds some results differently from the C library's, and the
    # array path uses it, so the two paths stay identical bit for bit.
    # The kernel keeps the faster ** for the factors of a Newton
    # correction: the correction is as small as the iterate's error, so
    # a last-bit change in it moves the result only if the corrected
    # iterate lands within that change of a rounding boundary.
    return float(np.power(x, e))


def _sin_cos_scalar(x: float, pv: float):
    """sin_cos_p for one Python float: the period reduction of sin_cos_p
    and the algorithm of _principal_sin_cos, step for step and rounding
    as it does (see _pow), without numpy's per-call cost of boxing and
    masking a length-1 array.

    Non-finite x gives (nan, nan), as on the array path.
    """
    if not math.isfinite(x):
        return math.nan, math.nan
    pp, a, b, beta_ab, y_split = _p_constants(pv)
    hp = 0.5 * pp

    r = x % (2.0 * pp)  # the floored modulo of np.mod
    if r > pp:
        r -= 2.0 * pp  # r in [-pi_p, pi_p]
    sgn_s = -1.0 if r < 0.0 else 1.0
    r = abs(r)
    sgn_c = -1.0 if r > hp else 1.0
    if r > hp:
        r = pp - r  # r in [0, pi_p/2]

    y = min(max(r / hp, 0.0), 1.0)
    if y < y_split:
        u = float(betaincinv(a, b, y))
        s = _pow(u, a)
        for _ in range(2):
            sp = _pow(s, pv)
            res = float(betainc(a, b, sp)) - y
            s = s - res * beta_ab / pv * max(1.0 - sp, 1e-300) ** a
            s = min(max(s, 0.0), 1.0)
        if u < 1e-300:
            s = r
        z = max(1.0 - _pow(s, pv), 0.0)
    else:
        z = float(betaincinv(b, a, 1.0 - y))
        for _ in range(2):
            zc = min(max(z, 1e-300), 1.0)
            res = float(betainc(b, a, zc)) - (1.0 - y)
            dg = zc ** (b - 1.0) * max(1.0 - zc, 1e-300) ** (a - 1.0) / beta_ab
            z = z - res / dg
            z = min(max(z, 0.0), 1.0)
        s = _pow(1.0 - z, a)
    return sgn_s * s, sgn_c * _pow(z, a)


def sin_cos_p(x, p):
    """The pair (sin_p(x), cos_p(x)) for any real x.

    Reduces x to the principal branch using oddness of sin_p, evenness
    of cos_p, the reflection about pi_p/2, and 2*pi_p periodicity, then
    solves on [0, pi_p/2] by betaincinv and two safeguarded Newton
    steps (see _principal_sin_cos).

    A 0-d input (a Python float, as the phase solve's right-hand side
    passes, or a numpy scalar) takes a kernel on Python floats and
    returns two floats; any other input takes the vectorized path and
    returns two arrays.  Both run the same algorithm, agree bit for bit
    on every point tested and read the same cached per-p constants
    (pi_p, 1/p, 1 - 1/p and B(1/p, 1 - 1/p)), so a value does not
    depend on the path.  p is validated on every call, and rejected
    where B overflows.  Non-finite x gives NaN.
    """
    pv = _pval(p)
    pp, _, _, beta_ab, _ = _p_constants(pv)
    if math.isinf(beta_ab):
        raise ValueError(f"exponent too large: B(1/p, 1-1/p) overflows at p = {pv!r}")
    if isinstance(x, float) or np.ndim(x) == 0:
        return _sin_cos_scalar(float(x), pv)
    arr = np.asarray(x, dtype=float)
    hp = 0.5 * pp

    r = np.mod(arr, 2.0 * pp)
    r = np.where(r > pp, r - 2.0 * pp, r)  # r in [-pi_p, pi_p]
    sgn_s = np.where(r < 0.0, -1.0, 1.0)
    r = np.abs(r)  # r in [0, pi_p]
    sgn_c = np.where(r > hp, -1.0, 1.0)
    r = np.where(r > hp, pp - r, r)  # r in [0, pi_p/2]

    s, c = _principal_sin_cos(r, pv)
    return sgn_s * s, sgn_c * c


def sin_p(x, p):
    """Generalized sine; odd, 2*pi_p periodic, values in [-1, 1]."""
    s, _ = sin_cos_p(x, p)
    return s


def cos_p(x, p):
    """Generalized cosine, the derivative of sin_p; even, 2*pi_p periodic."""
    _, c = sin_cos_p(x, p)
    return c


def tan_p(x, p):
    """Generalized tangent sin_p/cos_p on the principal branch.

    +-inf where cos_p is 0: at the kink, and wherever |cos_p|**p
    underflows (near the kink for p close to 1).
    """
    s, c = sin_cos_p(x, p)
    with np.errstate(divide="ignore"):
        t = np.divide(s, c)
    return as_scalar_or_array(t, np.ndim(x) == 0)


def arctan_p(y, p):
    """Inverse of tan_p, mapping the extended line onto [-pi_p/2, pi_p/2].

    arctan_p(+-inf) = +-pi_p/2 by convention; monotone increasing.
    Solves |tan_p| = |y| in closed form: sin_p = |y|/(1+|y|**p)**(1/p).
    """
    pv = _pval(p)
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    pp, a, b, _, _ = _p_constants(pv)
    hp = 0.5 * pp
    out = np.empty_like(arr)
    inf_mask = np.isinf(arr)
    out[inf_mask] = np.sign(arr[inf_mask]) * hp
    fin = ~inf_mask
    if np.any(fin):
        yy = np.abs(arr[fin])
        res = np.empty_like(yy)
        big = yy > 1.0
        if np.any(big):
            # complement branch: 1 - sin_p**p = 1/(1+y**p) is exact in
            # the variable t = y**-p, keeping full absolute accuracy
            # where sin_p saturates to 1 in double precision.
            t = yy[big] ** (-pv)
            zc = t / (1.0 + t)
            res[big] = hp * (1.0 - betainc(b, a, zc))
        sm = ~big
        if np.any(sm):
            s = yy[sm] * (1.0 + yy[sm] ** pv) ** (-1.0 / pv)
            res[sm] = hp * betainc(a, b, np.minimum(s, 1.0) ** pv)
        out[fin] = np.sign(arr[fin]) * res
    return as_scalar_or_array(out[0] if scalar else out, scalar)
