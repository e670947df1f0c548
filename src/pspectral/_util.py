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

