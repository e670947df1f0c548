"""Float-native DOP853 for small ODE systems: a port of scipy's DOP853 as
solve_ivp runs it with dense output and events (Hairer, Norsett &
Wanner, Solving ODEs I, II.5 and II.6), on lists of Python floats.

fun(t, y) takes a float and a list of floats and returns a sequence of
floats; what it raises propagates.  A non-finite start slope, first-step
estimate, stage sum or error estimate raises FloatingPointError, as
numpy does under the errstate of every guarded caller.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _co
from scipy.optimize import brentq

# stage rows; the rows past N_STAGES are the dense output's extra stages
_A = [_co.A[s, :s].tolist() for s in range(_co.N_STAGES_EXTENDED)]
_C, _B, _E3, _E5, _D = (v.tolist() for v in (_co.C, _co.B, _co.E3, _co.E5,
                                              _co.D))
_STAGES = _co.N_STAGES
_EVENT_TOL = 4.0 * np.finfo(float).eps


def _rms(v):
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


def _dot(a, k):
    """The sum of the products a[j] k[j], correctly rounded."""
    try:
        return math.fsum(map(mul, a, k))
    except (OverflowError, ValueError):  # an overflow, or inf - inf
        raise FloatingPointError("a DOP853 stage sum left the float "
                                 "range") from None


def _stage(y, k, a, h):
    """y + (a . k) h per component; k[i] holds component i's stages."""
    return [yi + _dot(a, ki) * h for yi, ki in zip(y, k)]


def _initial_step(fun, t0, y0, f0, interval, direction, rtol, atol):
    """scipy's select_initial_step, with its one evaluation of fun."""
    scale = [at + abs(v) * rtol for v, at in zip(y0, atol)]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = fun(t0 + h0 * direction,
             [v + h0 * direction * fv for v, fv in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if not max(d0, d1, d2) < math.inf:
        raise FloatingPointError(f"the first step size from t = {t0!r} "
                                 f"left the float range")
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100.0 * h0, max(1e-6, h0 * 1e-3), interval)
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.125, interval)


def _local(t_old, h, y_old, rows, t):
    """One step's dense output at t, in scipy's Horner order: floats, or
    arrays with one entry per time (rows[j][i] and y_old[i] too)."""
    x = (t - t_old) / h
    out = []
    for i, y0 in enumerate(y_old):
        v = 0.0
        for j in range(6, -1, -1):
            v = (v + rows[j][i]) * (x if j % 2 == 0 else 1.0 - x)
        out.append(v + y0)
    return out


class Solution:
    """solve's outcome, callable as its dense output: a list of n floats
    at a float, an (n, m) array at m times (extrapolated past the ends).

    t: step times, the last a terminal root; status: 0 end reached, 1
    terminal event, -1 step below the float spacing; message; nfev;
    steps and rejected; t_events and y_events, one list per event.
    """

    def __init__(self, ts, segs, status, message, nfev, rejected,
                 t_events, y_events):
        self.t, self.status, self.message = np.array(ts), status, message
        self.nfev, self.steps, self.rejected = nfev, len(segs), rejected
        self.t_events, self.y_events = t_events, y_events
        if segs:  # step starts, lengths, states (n, steps), rows (7, n, steps)
            t_old, h, y_old, rows = map(np.array, zip(*segs))
            self._segs = t_old, h, y_old.T, rows.transpose(1, 2, 0)

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        t_old, h, y_old, rows = self._segs
        # at a step time the earlier step is read, as OdeSolution does
        sign = 1.0 if self.t[-1] >= self.t[0] else -1.0
        seg = np.searchsorted(sign * self.t, sign * t, side="left") - 1
        seg = np.clip(seg, 0, self.steps - 1)
        y = np.array(_local(t_old[seg], h[seg], y_old[:, seg],
                            rows[:, :, seg], t))
        return y[:, 0].tolist() if scalar else y


def solve(fun, t0, t_bound, y0, rtol, atol, events=()):
    """Integrate y' = fun(t, y) from (t0, y0) toward t_bound; atol is a
    float or one per component.  An event g(t, y) may carry `terminal`
    and `direction` attributes, as for solve_ivp."""
    n = len(y0)
    t, y = float(t0), [float(v) for v in y0]
    atol = [float(atol)] * n if np.ndim(atol) == 0 else [float(v) for v in atol]
    direction = 1.0 if t_bound >= t else -1.0
    f = fun(t, y)
    if not all(map(math.isfinite, f)):
        raise FloatingPointError(f"the derivative at the start t = {t!r} "
                                 f"is not finite")
    ts, segs, nfev, rejected = [t], [], 1, 0
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    status, message = None, "The solver successfully reached the end."
    if t == t_bound:
        status = 0
    else:
        h_abs = _initial_step(fun, t, y, f, abs(t_bound - t), direction,
                              rtol, atol)
        nfev += 1
    g = [ev(t, y) for ev in events]
    while status is None:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        retry = False
        while h_abs >= min_step:
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k = [[v] for v in f]
            for s in range(1, _STAGES):
                for ki, v in zip(k, fun(t + _C[s] * h, _stage(y, k, _A[s], h))):
                    ki.append(v)
            y_new = [yi + h * _dot(_B, ki) for yi, ki in zip(y, k)]
            f_new = fun(t + h, y_new)
            nfev += _STAGES
            e5 = e3 = 0.0
            for yi, yn, ki, at, v in zip(y, y_new, k, atol, f_new):
                ki.append(v)
                scale = at + max(abs(yi), abs(yn)) * rtol
                r5 = _dot(_E5, ki) / scale
                r3 = _dot(_E3, ki) / scale
                e5 += r5 * r5
                e3 += r3 * r3
            err = 0.0 if e5 == e3 == 0.0 else h_abs * e5 / math.sqrt(
                (e5 + 0.01 * e3) * n)
            if not err < math.inf:
                raise FloatingPointError(f"the DOP853 step from t = {t!r} "
                                         f"left the float range")
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if retry else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            retry = True
            rejected += 1
        else:
            status = -1
            message = "Required step size is less than spacing between numbers."
            break
        t_old, y_old, f_old, t, y, f = t, y, f, t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        for s in range(_STAGES + 1, len(_A)):
            for ki, v in zip(k, fun(t_old + _C[s] * h,
                                    _stage(y_old, k, _A[s], h))):
                ki.append(v)
            nfev += 1
        rows = [[] for _ in range(7)]
        for yn, yo, fn, fo, ki in zip(y, y_old, f, f_old, k):
            dy = yn - yo
            rows[0].append(dy)
            rows[1].append(h * fo - dy)
            rows[2].append(2.0 * dy - h * (fn + fo))
            for row, d in zip(rows[3:], _D):
                row.append(h * _dot(d, ki))
        seg = (t_old, t - t_old, y_old, rows)
        segs.append(seg)
        g_new = [ev(t, y) for ev in events]
        hits = sorted((brentq(lambda tq, ev=ev: ev(tq, _local(*seg, tq)),
                              t_old, t, xtol=_EVENT_TOL, rtol=_EVENT_TOL)
                       * direction, i)
                      for i, (ev, g0, g1) in enumerate(zip(events, g, g_new))
                      if g0 <= 0 <= g1 and getattr(ev, "direction", 0) >= 0
                      or g0 >= 0 >= g1 and getattr(ev, "direction", 0) <= 0)
        g = g_new
        for root, i in hits:  # in time order, up to a terminal event
            t_events[i].append(root * direction)
            y_events[i].append(_local(*seg, root * direction))
            if getattr(events[i], "terminal", False):
                status, message = 1, "A termination event occurred."
                t, y = root * direction, y_events[i][-1]
                break
        ts.append(t)
    return Solution(ts, segs, status, message, nfev, rejected,
                    t_events, y_events)
