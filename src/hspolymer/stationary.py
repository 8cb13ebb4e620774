"""Direct samplers for the stationary processes and their moment formulas.

Two families live here. The discrete process z_{u,v}(k) is built from two
independent inverse-gamma multiplicative walks r1, r2 and an independent
boundary weight; its law matches the two-row lattice ratio process, which is
what the cross-checks in the test-suite exercise. The continuum process
H_{u,v}(X) is the Brownian analogue, sampled on a delta-grid two different
ways (the defining formula and the Pitman-transform form) that must agree in
law; one streaming loop serves both routes. The scaled initial data at
lattice level n are log z_{u,v} plus a deterministic shift.

Conventions: walks start at 1 (log 0); when u = v the boundary term is
dropped entirely, matching the 1/varpi := 0 convention, rather than sampling
a degenerate weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import inverse_gamma_moment
from .rng import RngStream
from .she import _lattice_index


@dataclass(frozen=True)
class DiscreteStationaryParams:
    """Parameters (alpha, u, v) of the discrete stationary process."""

    alpha: float
    u: float
    v: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not (self.u > -self.alpha and self.v > -self.alpha):
            raise ValueError("need u, v > -alpha")
        if not self.v < self.alpha:
            raise ValueError("need v < alpha")
        if self.v > self.u:
            raise ValueError("need v <= u")


@dataclass(frozen=True)
class ContinuumStationaryParams:
    """Parameters of the continuum process on a delta-grid of [0, X_max]."""

    u: float
    v: float
    delta: float = 2.0 ** -10
    x_max: float = 2.0

    def __post_init__(self):
        if not self.delta > 0 or not self.x_max > 0:
            raise ValueError("delta and x_max must be positive")
        if self.v > self.u:
            raise ValueError("need v <= u")


# doubles per gamma block: the walks draw this many at a time, replica rows
# in order, so peak memory is the returned paths plus one block
_GAMMA_BLOCK = 1 << 18


def _fill_neg_log_gamma(gen: np.random.Generator, theta: float,
                        dest: np.ndarray) -> None:
    """Write -log Gamma(theta) draws into dest (rows, k), a block of rows at a
    time. Successive row blocks draw the same numbers as one dest.shape call."""
    rows = max(1, _GAMMA_BLOCK // max(dest.shape[1], 1))
    for r0 in range(0, dest.shape[0], rows):
        block = dest[r0:r0 + rows]
        np.log(gen.standard_gamma(theta, size=block.shape), out=block)
        np.negative(block, out=block)


def _log_ig_walk(theta: float, k_max: int, rng: RngStream, n: int) -> np.ndarray:
    """Log of an inverse-gamma multiplicative walk: (n, k_max+1), column 0 = 0."""
    out = np.empty((n, k_max + 1))
    out[:, 0] = 0.0
    steps = out[:, 1:]
    _fill_neg_log_gamma(rng.gen, theta, steps)
    np.cumsum(steps, axis=1, out=steps)
    return out


def _log_varpi(u: float, v: float, rng: RngStream, n: int) -> np.ndarray | None:
    """log varpi for n draws of varpi ~ IG(u-v); None when u = v (1/varpi := 0)."""
    if u == v:
        return None
    return -np.log(rng.gen.standard_gamma(u - v, size=n))


def sample_zuv_path(params: DiscreteStationaryParams, k_max: int, rng: RngStream,
                    n_replicas: int = 1) -> np.ndarray:
    """Sample log z_{u,v}(k) for k = 0..k_max, replicated.

    z(k) = r2(k) + (1/varpi) sum_{l=1}^{k} r1(l) r2(k) / r2(l-1), where r1
    and r2 are independent IG(alpha+v) and IG(alpha-v) multiplicative walks
    from 1 and varpi ~ IG(u-v) is independent of both. For u = v the sum
    term is dropped. Returned shape: (n_replicas, k_max+1).
    """
    a, u, v = params.alpha, params.u, params.v
    R = n_replicas
    out = _log_ig_walk(a - v, k_max, rng, R)
    if u == v:
        return out
    # w runs through log r1(l), then t_l = r1(l)/r2(l-1), then the cumulative
    # logsumexp over l = 1..k, then log(1 + lse/varpi)
    w = _log_ig_walk(a + v, k_max, rng, R)[:, 1:]
    log_varpi = _log_varpi(u, v, rng, R)
    np.subtract(w, out[:, :-1], out=w)
    np.logaddexp.accumulate(w, axis=1, out=w)
    np.subtract(w, log_varpi[:, None], out=w)
    np.logaddexp(0.0, w, out=w)
    np.add(out[:, 1:], w, out=out[:, 1:])
    return out


@dataclass
class PraPath:
    """The product decomposition z = p * a with its ingredients, in logs."""

    log_p: np.ndarray
    log_r: np.ndarray
    log_a: np.ndarray

    @property
    def log_z(self) -> np.ndarray:
        return self.log_p + self.log_a


def _pra_log_a(params: DiscreteStationaryParams, rng: RngStream,
               log_xi: np.ndarray, log_a: np.ndarray, log_r=None) -> None:
    """The a-branch of the p/r/a decomposition over the xi steps log_xi (R, k).

    Draws zeta_1..zeta_k ~ IG(alpha+v) a block of replica rows at a time,
    forms log r(j) = log zeta_1 + sum_{i=2}^{j} (log zeta_i - log xi_{i-1})
    and its running logsumexp over j, then draws varpi ~ IG(u-v) and writes
    log a(j) = log(1 + (1/varpi) sum_{i<=j} r(i)) into log_a: for every j
    when log_a is (R, k), for j = k alone when it is (R, 1). log r goes to
    log_r (R, k) when given. Each row block reads its log xi before writing
    its log a, so log_a may share memory with log_xi.
    """
    R, k = log_xi.shape
    gen = rng.gen
    rows = max(1, _GAMMA_BLOCK // max(k, 1))
    buf = np.empty((min(rows, R), k))
    for r0 in range(0, R, rows):
        r1 = min(r0 + rows, R)
        z = buf[:r1 - r0]
        gen.standard_gamma(params.alpha + params.v, out=z)
        np.log(z, out=z)
        w = z if log_r is None else log_r[r0:r1]
        np.negative(z, out=w)
        tail = w[:, 1:]
        np.subtract(tail, log_xi[r0:r1, :-1], out=tail)
        np.cumsum(tail, axis=1, out=tail)
        np.add(tail, w[:, :1], out=tail)
        if log_a.shape[1] == k:
            np.logaddexp.accumulate(w, axis=1, out=log_a[r0:r1])
        else:
            np.logaddexp.accumulate(w, axis=1, out=z)
            log_a[r0:r1, 0] = z[:, -1]
    log_varpi = _log_varpi(params.u, params.v, rng, R)
    np.subtract(log_a, log_varpi[:, None], out=log_a)
    np.logaddexp(0.0, log_a, out=log_a)


def sample_zuv_pra(params: DiscreteStationaryParams, k_max: int, rng: RngStream,
                   n_replicas: int = 1) -> PraPath:
    """Sample the alternative decomposition z(k) = p(k) a(k).

    p(k) is an IG(alpha-v) multiplicative walk; r(k) = zeta_1 prod_{i=2}^{k}
    zeta_i/xi_{i-1} is a beta-prime multiplicative walk started from an
    IG(alpha+v) variate; a(k) = 1 + (1/varpi) sum_{j<=k} r(j). The product
    has the same law as the direct z_{u,v} sampler, path by path in k. The
    a-branch needs u > v. log_r column 0 is -inf (r starts at k=1).
    """
    if params.u == params.v:
        raise ValueError("the p/r/a decomposition needs u > v")
    R = n_replicas
    log_p = np.empty((R, k_max + 1))
    log_r = np.empty((R, k_max + 1))
    log_a = np.empty((R, k_max + 1))
    # log_a[:, 1:] holds log xi until the a-branch overwrites it, row block
    # by row block
    log_xi = log_a[:, 1:]
    _fill_neg_log_gamma(rng.gen, params.alpha - params.v, log_xi)
    log_p[:, 0] = 0.0
    np.cumsum(log_xi, axis=1, out=log_p[:, 1:])
    log_r[:, 0] = -np.inf
    log_a[:, 0] = 0.0
    _pra_log_a(params, rng, log_xi, log_a[:, 1:], log_r[:, 1:])
    return PraPath(log_p=log_p, log_r=log_r, log_a=log_a)


def _sample_log_a(params: DiscreteStationaryParams, k: int, rng: RngStream,
                  n_replicas: int = 1) -> np.ndarray:
    """log a(k) of sample_zuv_pra alone: the same draws in the same order and
    the same bits as its log_a[:, k], holding one (R, k) log xi array and
    one gamma block instead of the three paths. Needs u > v and k >= 1."""
    if params.u == params.v:
        raise ValueError("the p/r/a decomposition needs u > v")
    if k < 1:
        raise ValueError("need k >= 1")
    log_xi = np.empty((n_replicas, k))
    _fill_neg_log_gamma(rng.gen, params.alpha - params.v, log_xi)
    log_a = np.empty((n_replicas, 1))
    _pra_log_a(params, rng, log_xi, log_a)
    return log_a[:, 0]


def _huv_stream(params: ContinuumStationaryParams, rng: RngStream,
                n_replicas: int, x_record, drift1: float, drift2: float,
                var: float, log_integrand, height) -> dict:
    """Stream height(W1, W2) + log(1 + (1/varpi) I) over the delta-grid.

    W1, W2 are independent Brownian motions from 0 with drifts drift1,
    drift2 and variance var per unit length; I is the left-endpoint Riemann
    sum whose log-summand log_integrand(log delta, W1, W2, out) writes into
    out; varpi ~ IG(u-v), with the boundary term dropped when u = v. Keeps
    O(R) state and records at the grid point nearest each requested X
    (default: the grid endpoint), stepping no further than the last of them.
    Returns {"X": the requested X, "H": (R, len(X)) array, columns in
    request order}.
    """
    d = params.delta
    xs = [params.x_max] if x_record is None else [float(x) for x in x_record]
    if not xs:
        raise ValueError("x_record is empty")
    if min(xs) < 0:
        raise ValueError("recorded X must be nonnegative")
    targets = [int(round(x / d)) for x in xs]
    last = max(targets)
    if last > int(round(params.x_max / d)):
        raise ValueError("recorded X beyond x_max")
    cols = {}
    for c, t in enumerate(targets):
        cols.setdefault(t, []).append(c)
    R = n_replicas
    w = np.zeros((2, R))
    z = np.empty((2, R))
    log_i = np.full(R, -np.inf)
    term = np.empty(R)
    log_varpi = _log_varpi(params.u, params.v, rng, R)
    log_d = np.log(d)
    out = np.empty((R, len(xs)))
    out[:, cols.get(0, [])] = 0.0
    m = np.array([[drift1 * d], [drift2 * d]])
    sd = np.sqrt(var * d)
    gen = rng.gen
    # one fill draws W1's R normals, then W2's: the stream of two
    # gen.normal(m_i, sd, size=R) calls, and m_i + sd * z to the bit
    for j in range(1, last + 1):
        np.logaddexp(log_i, log_integrand(log_d, w[0], w[1], term), out=log_i)
        gen.standard_normal(out=z)
        z *= sd
        z += m
        w += z
        if j in cols:
            h = height(w[0], w[1])
            if log_varpi is not None:
                h = h + np.logaddexp(0.0, log_i - log_varpi)
            out[:, cols[j]] = h[:, None]
    return {"X": np.array(xs), "H": out}


def sample_Huv_path(params: ContinuumStationaryParams, rng: RngStream,
                    n_replicas: int = 1, x_record=None) -> dict:
    """Sample H_{u,v} on the delta-grid via the defining formula.

    H(X) = B2(X) + log(1 + (1/varpi) I(X)) with I(X) the left-endpoint
    Riemann sum of exp(B1(S) - B2(S)) over [0, X]; B1 has drift -v, B2 drift
    v, both variance 1 per unit length; varpi ~ IG(u-v), with the boundary
    term dropped when u = v. Streams over the grid keeping O(R) state and
    records H at the requested X values (default: the grid endpoint).
    Returns {"X": array, "H": (R, len(X)) array}.
    """
    return _huv_stream(params, rng, n_replicas, x_record, -params.v, params.v, 1.0,
                       lambda log_d, b1, b2, out: np.subtract(
                           np.add(log_d, b1, out=out), b2, out=out),
                       lambda b1, b2: b2)


def sample_Huv_pitman(params: ContinuumStationaryParams, rng: RngStream,
                      n_replicas: int = 1, x_record=None) -> dict:
    """Sample H_{u,v} via the Pitman-transform form.

    H(x) = beta1(x) + beta2(x) + log(1 + (1/varpi) J(x)) with J(x) the
    left-endpoint Riemann sum of exp(-2 beta2) and beta1, beta2 independent
    with drifts 0 and v and diffusion coefficient 1/2 each. Same law as
    sample_Huv_path at every grid point; sampled through a different route.
    """
    return _huv_stream(params, rng, n_replicas, x_record, 0.0, params.v, 0.5,
                       lambda log_d, be1, be2, out: np.subtract(
                           log_d, np.multiply(2.0, be2, out=out), out=out),
                       lambda be1, be2: be1 + be2)


def scaled_initial_data(n: int, u: float, v: float, x_grid, rng: RngStream,
                        n_replicas: int = 1) -> np.ndarray:
    """Sample log of the scaled initial data at lattice level n, jointly on
    the X grid.

    With alpha_n = 1/2 + sqrt(n) and k = sqrt(n) X, the value is
    (sqrt n)^k r2(k) + (1/(varpi sqrt n)) sum_{l=1}^{k} (sqrt n)^l r1(l)
    (sqrt n)^{k+1-l} r2(k)/r2(l-1). Every summand carries the same power
    (sqrt n)^k, so this is k log sqrt(n) + log z_{u,v}(k) at alpha_n, drawn by
    sample_zuv_path. Requires sqrt(n) X integer on the grid.
    """
    sqrt_n = np.sqrt(n)
    ks = [_lattice_index(sqrt_n, x, "sqrt(n) X") for x in x_grid]
    params = DiscreteStationaryParams(alpha=0.5 + sqrt_n, u=u, v=v)
    log_z = sample_zuv_path(params, max(ks), rng, n_replicas)
    return np.array(ks) * (0.5 * np.log(n)) + log_z[:, ks]


def second_moment_analytic(n: int, u: float, v: float, x: float) -> float:
    """Closed-form E[(exp H_n(0, X))^2] from the walk moment factorization.

    Writing the value as A + B with A the pure r2 term and B the boundary
    sum, the expectation is E[A^2] + 2 E[A B] + E[B^2]; each factor reduces
    to products of inverse-gamma moments M_k(+-v) of shape alpha_n +- v and
    gamma moments of 1/varpi. Requires alpha_n +- v > 2 and u > v (or u = v,
    where only the first term survives); k = sqrt(n) X must be integral.
    """
    sqrt_n = np.sqrt(n)
    alpha_n = 0.5 + sqrt_n
    k = _lattice_index(sqrt_n, x, "sqrt(n) X")
    if not alpha_n - abs(v) > 2:
        raise ValueError("second moments need alpha_n +- v > 2")
    m2m = inverse_gamma_moment(alpha_n - v, 2)   # M_2(-v)
    a2 = (n * m2m) ** k
    if u == v:
        return float(a2)
    if not u > v:
        raise ValueError("need u >= v")
    m1p = inverse_gamma_moment(alpha_n + v, 1)   # M_1(+v)
    m1m = inverse_gamma_moment(alpha_n - v, 1)
    m2p = inverse_gamma_moment(alpha_n + v, 2)
    e_inv = u - v                                # E[1/varpi], varpi ~ IG(u-v)
    e_inv2 = (u - v) * (u - v + 1.0)
    if k == 0:
        return float(a2)
    g1 = n * m1p * m1m
    g2m = n * m2m
    g2p = n * m2p
    cross = 0.0
    for l in range(1, k + 1):
        cross += (1.0 / (sqrt_n * m1m)) * g1**l * g2m ** (k + 1 - l)
    cross *= 2.0 * e_inv / sqrt_n
    sq = 0.0
    for l in range(1, k + 1):
        for lp in range(1, k + 1):
            lo, hi = min(l, lp), max(l, lp)
            sq += g2p**lo * g1 ** (hi - lo) * g2m ** (k + 1 - hi)
    sq *= e_inv2 / n
    return float(a2 + cross + sq)
