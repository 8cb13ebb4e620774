"""Digamma and trigamma, implemented in-package.

The moment formulas for log-weights need psi and psi' to about 1e-12 relative
accuracy over the whole parameter range that shows up in the models (shapes
from ~0.1 up to ~2 sqrt(n)). Both functions use the standard scheme: shift the
argument above 10 with the recurrence, then apply the asymptotic series with
Bernoulli-number coefficients. At x >= 10 the first omitted term is below
1e-16 of the value, so the target accuracy holds uniformly.
"""

from __future__ import annotations

import numpy as np

# Bernoulli numbers B_2, B_4, ..., B_14
_BERN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_SHIFT = 10.0


def digamma(x):
    """psi(x) for real x > 0, scalar or array."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("digamma defined here for positive arguments only")
    scalar = x.ndim == 0
    x = np.atleast_1d(x).copy()
    acc = np.zeros_like(x)
    # psi(x) = psi(x+1) - 1/x, applied until the argument clears the shift
    while True:
        small = x < _SHIFT
        if not small.any():
            break
        acc[small] -= 1.0 / x[small]
        x[small] += 1.0
    inv2 = 1.0 / (x * x)
    series = np.zeros_like(x)
    term = inv2.copy()
    for k, b in enumerate(_BERN, start=1):
        series += b / (2 * k) * term
        term *= inv2
    out = acc + np.log(x) - 0.5 / x - series
    return float(out[0]) if scalar else out


def trigamma(x):
    """psi'(x) for real x > 0, scalar or array."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("trigamma defined here for positive arguments only")
    scalar = x.ndim == 0
    x = np.atleast_1d(x).copy()
    acc = np.zeros_like(x)
    while True:
        small = x < _SHIFT
        if not small.any():
            break
        acc[small] += 1.0 / (x[small] * x[small])
        x[small] += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = np.zeros_like(x)
    term = inv * inv2  # 1/x^3
    for b in _BERN:
        series += b * term
        term *= inv2
    out = acc + inv + 0.5 * inv2 + series
    return float(out[0]) if scalar else out

