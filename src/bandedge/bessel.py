"""Bessel functions J0, J1 with the package's domain checks.

The values come from ``scipy.special.j0``/``j1``, imported on the first
call, so that importing the package does not load ``scipy.special``: within
3.3e-16 absolute of 40-digit references on [0, 16], 7.9e-15 up to x = 2e4
and 7.0e-14 up to x = 1.2e6, where reducing the phase x - pi/4 in double
precision sets the limit.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def bessel_j(order: int, x):
    """J_order(x) for order in {0, 1} and 0 <= x <= 1.2e6 (scalar or array;
    DomainError naming the first x outside, NaN included)."""
    if order not in (0, 1):
        raise DomainError(f"only orders 0 and 1 are implemented, got {order}")
    from scipy.special import j0, j1

    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # two whole-array reductions; a NaN fails both comparisons
    if not (x.min(initial=0.0) >= 0.0 and x.max(initial=0.0) <= 1.2e6):
        bad = x[~((x >= 0.0) & (x <= 1.2e6))][0]
        raise DomainError(f"bessel_j needs 0 <= x <= 1.2e6, got x = {bad}")
    out = (j1 if order else j0)(x)
    return float(out[0]) if scalar else out


def j1_over_t(t):
    """J1(2t)/t, regular at t = 0 with limit value 1."""
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.divide(bessel_j(1, 2.0 * t), t, out=np.ones_like(t), where=t != 0)
    return float(out[0]) if scalar else out
