"""Samplers and exact moments for the weight distributions.

Everything in the lattice models is built from four laws: gamma, inverse
gamma, geometric, and exponential. Samplers
take an RngStream and an optional size; moments are closed forms with the
divergent cases rejected rather than returning inf.

The inverse-gamma law with shape theta has density x^(-theta-1) e^(-1/x) /
Gamma(theta) on x > 0, i.e. the law of 1/G for G ~ Gamma(theta, 1).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc, ndtr

from .rng import RngStream


def _check_positive(name, value):
    if not np.all(np.asarray(value) > 0):
        raise ValueError(f"{name} must be positive, got {value}")


def sample_gamma(a, rng: RngStream, size=None):
    """Draw Gamma(a, 1) variates. Shape a may be scalar or an array
    broadcast against size."""
    _check_positive("gamma shape", a)
    return rng.gen.standard_gamma(a, size=size)


def sample_inverse_gamma(theta, rng: RngStream, size=None):
    """Draw from Gamma^{-1}(theta) as the reciprocal of a gamma variate."""
    _check_positive("theta", theta)
    return 1.0 / rng.gen.standard_gamma(theta, size=size)


def sample_geometric(q, rng: RngStream, size=None):
    """Draw from the geometric law P(g = k) = (1-q) q^k on k = 0, 1, 2, ...

    Sampled by inversion: P(g >= j) = q^j, so g = floor(log U / log q).
    U = 0 (probability 2**-53) is read as the smallest positive double, so
    the draw stays a finite count; every draw with U > 0 is unchanged. q may
    be an array broadcast against size.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((0.0 < q) & (q < 1.0)):
        raise ValueError(f"geometric parameter must lie in (0,1), got {q}")
    u = np.maximum(rng.gen.random(size=size), np.finfo(float).smallest_subnormal)
    return np.floor(np.log(u) / np.log(q)).astype(np.int64)


def sample_exponential(a, rng: RngStream, size=None):
    """Draw Exp(rate a), mean 1/a."""
    _check_positive("rate", a)
    return rng.gen.exponential(scale=1.0, size=size) / a


def inverse_gamma_moment(theta, k: int):
    """E[X^k] = 1/((theta-1)(theta-2)...(theta-k)) for X ~ Gamma^{-1}(theta).

    Requires theta > k; below that the moment diverges and a ValueError is
    raised instead of returning a junk value.
    """
    _check_positive("theta", theta)
    k = int(k)
    if k < 1:
        raise ValueError("moment order must be a positive integer")
    if not theta > k:
        raise ValueError(f"moment of order {k} diverges for theta={theta} <= {k}")
    denom = 1.0
    for j in range(1, k + 1):
        denom *= theta - j
    return 1.0 / denom


def inverse_gamma_cdf(x, theta):
    """P(X <= x) for X ~ Gamma^{-1}(theta), as Q(theta, 1/x).

    Q is the upper regularized incomplete gamma function; x <= 0 maps to 0.
    """
    _check_positive("theta", theta)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = gammaincc(theta, 1.0 / x[pos])
    return out if out.ndim else float(out)


def gamma_cdf(x, a):
    """P(G <= x) for G ~ Gamma(a, 1)."""
    _check_positive("a", a)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = 1.0 - gammaincc(a, x[pos])
    return out if out.ndim else float(out)


def exponential_cdf(x, a):
    """P(E <= x) for E ~ Exp(rate a)."""
    _check_positive("rate", a)
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, -np.expm1(-a * x), 0.0)


def normal_cdf(x, mean=0.0, sd=1.0):
    """Gaussian CDF, used as the reference law for Brownian marginals."""
    _check_positive("sd", sd)
    return ndtr((np.asarray(x, dtype=float) - mean) / sd)
