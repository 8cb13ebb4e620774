"""Scaled two-row processes, weight-law matching moments, and the matching
identity between the octant polymer and the reflected-walk framework.

Coordinates: the scaled height function lives on (T, X) with nT/2 and
sqrt(n) X integers; the octant point behind H(T, X) is (nT/2 + sqrt(n) X +
2, nT/2 + 2). The normalized octant process z-tilde(t, y) maps onto the
reflected-walk sheet through (t, y) -> (2t + y - 2, y) on the even
sublattice; diagonal_time records that map.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .distributions import sample_inverse_gamma
from .lattice import make_row_logw, replicated_rows, two_row_params
from .rng import RngStream
from .she import _lattice_index, _run_dp, _square_root
from .stationary import DiscreteStationaryParams, sample_zuv_path


def _log_tilde_z(alpha: float, u: float, v: float, t: int, ys, rng: RngStream,
                 n_replicas: int) -> np.ndarray:
    """Draws of log z-tilde(t, y) jointly over ys; returns (n_replicas,
    len(ys)).

    z-tilde(t, y) = ((2 alpha - 1)/2)^{2t+y} z_stat(t+y+2, t+2) /
    (varpi_11 varpi_22), with one two-row grid at bulk parameter alpha per
    replica evaluated at every y, preserving the joint law in y. The corner
    weights varpi_11, varpi_22 are captured from the same grid.
    """
    m = t + 2
    max_n = m + max(ys)
    params = two_row_params(alpha, u, v, max_n)
    capture = {(1, 1): None, (2, 2): None}
    provider = make_row_logw(params, m, n_replicas, rng, capture=capture)
    got = replicated_rows(provider, max_n, m, n_replicas, {m + y: [m] for y in ys})
    log_scale = math.log((2.0 * alpha - 1.0) / 2.0)
    corner = capture[(1, 1)] + capture[(2, 2)]
    return np.stack([(2 * t + y) * log_scale + got[(m + y, m)] - corner
                     for y in ys], axis=1)


def scaled_stationary_process(n: int, u: float, v: float, T: float, X_list,
                              rng: RngStream, n_replicas: int = 1) -> np.ndarray:
    """Sample H_n(T, X) jointly over X_list; returns (n_replicas, len(X_list)).

    H_n(T, X) = log z-tilde(nT/2, sqrt(n) X) at alpha_n = 1/2 + sqrt(n),
    where (2 alpha_n - 1)/2 = sqrt(n): n must be a perfect square >= 4,
    nT/2 and sqrt(n) X nonnegative integers, and v <= min(0, u) with v < u.
    The values are absolute (not only increments).
    """
    sqrt_n = _square_root(n, least=4)
    if not v <= min(0.0, u):
        raise ValueError("need v <= min(0, u)")
    if v == u:
        raise ValueError("two-row construction needs v < u")
    half_t = _lattice_index(n / 2.0, T, "nT/2")
    ys = [_lattice_index(sqrt_n, X, "sqrt(n) X") for X in X_list]
    return _log_tilde_z(0.5 + sqrt_n, u, v, half_t, ys, rng, n_replicas)


def diagonal_time(t: int, y: int) -> int:
    """Map an octant label (t, y) to the reflected-walk endpoint time
    2t + y - 2 (the endpoint height is y itself)."""
    return 2 * t + y - 2


def bulk_weight_matching_moments(n: int, max_order: int = 8) -> dict:
    """Exact moments of the centered bulk weight at lattice level n.

    omega = (Y - 1)/beta with Y = g * InvGamma(g + 1), g = 2 sqrt(n) and
    beta = n^{-1/4}/sqrt(2) (so beta^2 = 1/g). Moments are evaluated in
    exact rational arithmetic in g: E[omega^N] = g^{N/2} sum_k C(N,k)
    (-1)^{N-k} g^k / (g (g-1) ... (g-k+1)). The mean vanishes identically;
    even moments approach the Gaussian values (N-1)!! at rate O(n^{-1/2}),
    odd ones approach 0.
    """
    g = 2 * _square_root(n, least=4)
    if max_order >= g:
        raise ValueError("moment order must be below 2 sqrt(n)")

    def y_moment(k: int) -> Fraction:
        num = Fraction(g) ** k
        den = 1
        for j in range(k):
            den *= g - j
        return num / den

    def omega_sum(order: int) -> Fraction:
        total = Fraction(0)
        for k in range(order + 1):
            total += (math.comb(order, k) * (-1) ** (order - k)) * y_moment(k)
        return total

    out = {"n": n, "g": g, "beta": n ** -0.25 / math.sqrt(2.0)}
    out["mean_exact_zero"] = omega_sum(1) == 0
    var = omega_sum(2) * g
    out["var"] = float(var)
    out["var_formula"] = float(Fraction(g, g - 1))
    out["var_matches_formula"] = var == Fraction(g, g - 1)
    moments = {}
    for order in range(1, max_order + 1):
        val = float(omega_sum(order)) * g ** (order / 2.0)
        if order % 2 == 0:
            limit = float(math.prod(range(order - 1, 0, -2)))
            rate = math.sqrt(n)     # even-moment drift is O(n^{-1/2})
        else:
            limit = 0.0
            rate = n ** 0.25        # odd moments vanish at O(n^{-1/4})
        moments[order] = {"value": val, "limit": limit,
                          "gap": abs(val - limit),
                          "gap_scaled": abs(val - limit) * rate}
    out["moments"] = moments
    return out


def bulk_weight_mc_moment(n: int, order: int, n_draws: int, rng: RngStream,
                          batch: int = 10 ** 6) -> float:
    """Monte Carlo estimate of E[omega^order] for the matching bulk law."""
    g = 2.0 * _square_root(n)
    beta = n ** -0.25 / math.sqrt(2.0)
    total = 0.0
    left = n_draws
    while left > 0:
        size = min(batch, left)
        y = g * sample_inverse_gamma(g + 1.0, rng, size=size)
        total += float(np.sum(((y - 1.0) / beta) ** order))
        left -= size
    return total / n_draws


def boundary_weight_matching_moments(n: int, u: float) -> dict:
    """Exact mean and variance of the matching boundary weight law.

    X = sqrt(n) * InvGamma(sqrt(n) + mu + 1) with mu = u - 1/2: mean
    sqrt(n)/(sqrt(n) + mu), variance n/((sqrt(n)+mu)^2 (sqrt(n)+mu-1)).
    Checks the drift recovery sqrt(n)(1 - mean) -> mu at rate O(n^{-1/2})
    and the variance decay var = O(n^{-1/2}).
    """
    rn = math.sqrt(n)
    mu = u - 0.5
    if not rn + mu > 1:
        raise ValueError("variance needs sqrt(n) + mu > 1")
    mean = rn / (rn + mu)
    var = n / ((rn + mu) ** 2 * (rn + mu - 1.0))
    drift = rn * (1.0 - mean)
    return {
        "n": n, "u": u, "mu": mu,
        "mean": mean, "var": var,
        "drift_estimate": drift,
        "drift_gap": abs(drift - mu),
        "drift_gap_bound": mu * mu / (rn + mu) if rn + mu > 0 else math.inf,
        "var_times_sqrt_n": var * rn,
    }


def matching_identity_check(alpha: float, u: float, v: float, t: int, y: int,
                            n_samples: int, rng: RngStream) -> np.ndarray:
    """Sample both sides of the octant-to-framework identity in law.

    Left side: log z-tilde(t, y) from the two-row octant at bulk parameter
    alpha, replicated. Right side: the reflected-walk diagonal partition
    with initial data distributed as z-tilde(x) (drawn from the direct
    z_{u,v} sampler), bulk factors (2 alpha - 1) InvGamma(2 alpha),
    boundary factors ((2 alpha - 1)/2) InvGamma(alpha + u), and a fresh
    endpoint factor at time 2t + y - 2; the right-side value is
    (2^{1{y=0}}/2) * endpoint * z-diag. Returns the (n_samples, 2) log
    samples, left side in column 0; the KS comparison is left to the caller.
    """
    if t + y < 1 or t < 1:
        raise ValueError("need t >= 1")
    if t > 5 or y > 4:
        raise ValueError("matching window guarded to t <= 5, y <= 4")
    R, s_end, x_hi = n_samples, diagonal_time(t, y), t + y - 1
    bulk_scale = 2.0 * alpha - 1.0
    bdry_scale = bulk_scale / 2.0
    lhs = _log_tilde_z(alpha, u, v, t, [y], rng.substream(1), R)[:, 0]
    # right side: she's diagonal sweep from initial data at heights 0..x_hi,
    # where z-tilde(x) is scale^{x+1} z_{u,v}(x+1) in law
    rng = rng.substream(2)
    log_zuv = sample_zuv_path(DiscreteStationaryParams(alpha=alpha, u=u, v=v),
                              x_hi + 1, rng, n_replicas=R,
                              k_record=range(1, x_hi + 2))
    init = np.exp(np.arange(1, x_hi + 2) * math.log(bdry_scale) + log_zuv)
    cap = s_end + 1

    def rows():
        for _ in range(s_end):
            g = np.empty((R, cap + 1))
            g[:, 0] = bdry_scale * sample_inverse_gamma(alpha + u, rng, size=R)
            g[:, 1:] = 0.5 * bulk_scale * sample_inverse_gamma(
                2.0 * alpha, rng, size=(R, cap))
            yield g

    f = _run_dp(np.zeros((R, cap + 1)), rows(), init)
    if y == 0:
        endpoint = bdry_scale * sample_inverse_gamma(alpha + u, rng, size=R)
        front = 0.0  # log(2^1 / 2)
    else:
        endpoint = bulk_scale * sample_inverse_gamma(2.0 * alpha, rng, size=R)
        front = math.log(0.5)
    return np.stack([lhs, front + np.log(endpoint) + np.log(f[:, y])], axis=1)
