"""Shared small numerical helpers."""

from __future__ import annotations

import functools
import math

import numpy as np


def spow(x, e):
    """Signed power sign(x)*|x|**e, the odd extension of x**e.

    Works on scalars and arrays; spow(0, e) = 0 for e > 0.  A Python
    float takes plain float arithmetic (an ODE right-hand side's path).
    """
    if type(x) is float:
        return math.copysign(abs(x) ** e, x)
    arr = np.asarray(x, dtype=float)
    out = np.sign(arr) * np.abs(arr) ** e
    if arr.ndim == 0:
        return float(out)
    return out


def guarded(fn):
    """Run an entry point with numpy overflow, division by zero and
    invalid operations (and Python float overflow and division by zero)
    raised as ValueError."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"{fn.__name__}: floating-point failure "
                             f"({exc})") from None

    return run


def as_scalar_or_array(values, scalar: bool):
    """Return a float for scalar inputs, the array otherwise."""
    if scalar:
        return float(values)
    return values


def json_safe(obj):
    """JSON-safe copy: numpy scalars/arrays to python, non-finite floats
    to strings."""
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj
