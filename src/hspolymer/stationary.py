"""Direct samplers for the stationary processes and their moment formulas.

Two families live here. The discrete process z_{u,v}(k) is built from two
independent inverse-gamma multiplicative walks r1, r2 and an independent
boundary weight; its law matches the two-row lattice ratio process, which is
what the cross-checks in the test-suite exercise. It is sampled two ways,
the direct functional and the product decomposition z = p a; each records
only the requested columns k and replays its first walk from a copied
generator in lockstep with the second, one row block at a time. The
continuum process H_{u,v}(X) is the Brownian analogue, sampled on a
delta-grid two different ways (the defining formula and the
Pitman-transform form) that must agree in law; one streaming loop serves
both routes. The scaled initial data at lattice level n are log z_{u,v}
plus a deterministic shift.

Conventions: walks start at 1 (log 0); when u = v the boundary term is
dropped entirely, matching the 1/varpi := 0 convention, rather than sampling
a degenerate weight.
"""

from __future__ import annotations

import copy
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


# doubles per gamma block: a z_{u,v} draw holds its walks this many doubles
# at a time, replica rows in order, so its peak memory is what it returns
# plus about one block
_GAMMA_BLOCK = 1 << 18


def _block_rows(k: int, walks: int = 1) -> int:
    """Replica rows per block when `walks` walks of k steps share one block."""
    return max(1, _GAMMA_BLOCK // (walks * max(k, 1)))


def _row_blocks(n: int, rows: int):
    """(r0, r1) for the row blocks of n replica rows, `rows` at a time."""
    for r0 in range(0, n, rows):
        yield r0, min(r0 + rows, n)


def _fill_neg_log_gamma(gen: np.random.Generator, theta: float,
                        block: np.ndarray) -> None:
    """Write -log Gamma(theta) draws into the C-contiguous block, in row order."""
    gen.standard_gamma(theta, out=block)
    np.log(block, out=block)
    np.negative(block, out=block)


def _skip_gamma(gen: np.random.Generator, theta: float, n: int) -> None:
    """Advance gen past n Gamma(theta) draws, one block at a time."""
    buf = np.empty(min(n, _GAMMA_BLOCK))
    for i in range(0, n, _GAMMA_BLOCK):
        gen.standard_gamma(theta, out=buf[:n - i])


def _step_blocks(gen: np.random.Generator, theta: float, n: int, k: int,
                 rows: int):
    """Yield (r0, r1, steps): -log Gamma(theta) draws for rows r0:r1 of an
    (n, k) array, in one reused buffer. Successive blocks draw the same
    numbers as one (n, k) call; a walk with no steps yields no block."""
    if k == 0:
        return
    buf = np.empty((min(rows, n), k))
    for r0, r1 in _row_blocks(n, rows):
        steps = buf[:r1 - r0]
        _fill_neg_log_gamma(gen, theta, steps)
        yield r0, r1, steps


def _replayed_blocks(gen: np.random.Generator, theta: float, n: int, k: int,
                     rows: int):
    """The _step_blocks of an (n, k) walk, drawn from a copy of gen; gen
    itself skips past those n * k draws, so what it draws next can be read
    in lockstep with the replayed blocks."""
    replay = copy.deepcopy(gen)
    _skip_gamma(gen, theta, n * k)
    return _step_blocks(replay, theta, n, k, rows)


def _recorded_ks(k_max: int, k_record) -> list:
    """The recorded ks as a list (default 0..k_max); ValueError unless each
    is an int in 0..k_max."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if k_record is None:
        return list(range(k_max + 1))
    ks = list(k_record)
    if not ks:
        raise ValueError("k_record is empty")
    for k in ks:
        if not isinstance(k, (int, np.integer)):
            raise ValueError(f"recorded k = {k!r} is not an int")
        if k < 0:
            raise ValueError("recorded k must be nonnegative")
        if k > k_max:
            raise ValueError("recorded k beyond k_max")
    return [int(k) for k in ks]


def _take(walk: np.ndarray, ks: list, dest: np.ndarray) -> None:
    """dest[:, j] = column ks[j] of a walk block whose column k - 1 holds
    walk column k; columns with k = 0 are left for the caller to set."""
    np.take(walk, [max(k - 1, 0) for k in ks], axis=1, out=dest, mode="clip")


def _log_ig_walk(theta: float, k_max: int, rng: RngStream, n: int,
                 k_record=None) -> np.ndarray:
    """Log of an inverse-gamma multiplicative walk from 1 (column 0 = 0):
    the columns k_record (default 0..k_max) in request order, (n, len),
    holding one gamma block of the walk at a time."""
    ks = _recorded_ks(k_max, k_record)
    out = np.zeros((n, len(ks)))
    for r0, r1, w in _step_blocks(rng.gen, theta, n, k_max, _block_rows(k_max)):
        np.cumsum(w, axis=1, out=w)
        _take(w, ks, out[r0:r1])
    out[:, [j for j, k in enumerate(ks) if k == 0]] = 0.0
    return out


def _log_varpi(u: float, v: float, rng: RngStream, n: int) -> np.ndarray | None:
    """log varpi for n draws of varpi ~ IG(u-v); None when u = v (1/varpi := 0)."""
    if u == v:
        return None
    return -np.log(rng.gen.standard_gamma(u - v, size=n))


def sample_zuv_path(params: DiscreteStationaryParams, k_max: int, rng: RngStream,
                    n_replicas: int = 1, k_record=None) -> np.ndarray:
    """Sample log z_{u,v}(k) for k = 0..k_max, replicated.

    z(k) = r2(k) + (1/varpi) sum_{l=1}^{k} r1(l) r2(k) / r2(l-1), where r1
    and r2 are independent IG(alpha+v) and IG(alpha-v) multiplicative walks
    from 1 and varpi ~ IG(u-v) is independent of both. For u = v the sum
    term is dropped. Returns the columns k_record (default 0..k_max) in
    request order: shape (n_replicas, len(k_record)).

    The draws are r2's steps, then r1's, then varpi, replica rows in order.
    The walks are held one row block at a time: r2 is replayed from a copy
    of the generator in lockstep with r1, after the original has skipped
    past r2's draws.
    """
    a, u, v = params.alpha, params.u, params.v
    if u == v:
        return _log_ig_walk(a - v, k_max, rng, n_replicas, k_record)
    ks = _recorded_ks(k_max, k_record)
    R, gen = n_replicas, rng.gen
    out = np.zeros((R, len(ks)))
    lse = np.zeros((R, len(ks)))
    rows = _block_rows(k_max, walks=2)
    # w runs through log r1(l), then t_l = r1(l)/r2(l-1) (r2(0) = 1), then
    # the cumulative logsumexp over l = 1..k
    for (r0, r1, w2), (_, _, w) in zip(_replayed_blocks(gen, a - v, R, k_max, rows),
                                       _step_blocks(gen, a + v, R, k_max, rows)):
        np.cumsum(w2, axis=1, out=w2)
        np.cumsum(w, axis=1, out=w)
        np.subtract(w[:, 1:], w2[:, :-1], out=w[:, 1:])
        np.logaddexp.accumulate(w, axis=1, out=w)
        _take(w2, ks, out[r0:r1])
        _take(w, ks, lse[r0:r1])
    # log(1 + lse/varpi), added to log r2
    np.subtract(lse, _log_varpi(u, v, rng, R)[:, None], out=lse)
    np.logaddexp(0.0, lse, out=lse)
    np.add(out, lse, out=out)
    out[:, [j for j, k in enumerate(ks) if k == 0]] = 0.0
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


def sample_zuv_pra(params: DiscreteStationaryParams, k_max: int, rng: RngStream,
                   n_replicas: int = 1, k_record=None) -> PraPath:
    """Sample the alternative decomposition z(k) = p(k) a(k).

    p(k) is an IG(alpha-v) multiplicative walk with steps xi; r(k) = zeta_1
    prod_{i=2}^{k} zeta_i/xi_{i-1} is a beta-prime multiplicative walk
    started from an IG(alpha+v) variate; a(k) = 1 + (1/varpi) sum_{j<=k}
    r(j). The product has the same law as the direct z_{u,v} sampler, path
    by path in k. Needs u > v. Returns the columns k_record (default
    0..k_max) in request order; at k = 0, log_p and log_a are 0 and log_r
    is -inf (r starts at k = 1).

    The draws are xi, then zeta, then varpi, replica rows in order. The
    walks are held one row block at a time: xi is replayed from a copy of
    the generator in lockstep with zeta, after the original has skipped
    past xi's draws.
    """
    if params.u == params.v:
        raise ValueError("the p/r/a decomposition needs u > v")
    ks = _recorded_ks(k_max, k_record)
    a, v, R, gen = params.alpha, params.v, n_replicas, rng.gen
    log_p = np.zeros((R, len(ks)))
    log_r = np.zeros((R, len(ks)))
    log_a = np.zeros((R, len(ks)))
    rows = _block_rows(k_max, walks=2)
    # w runs through log zeta, then log r(j) = log zeta_1 + sum_{i=2}^{j}
    # (log zeta_i - log xi_{i-1}), then its running logsumexp; x runs
    # through log xi, then log p
    for (r0, r1, x), (_, _, w) in zip(_replayed_blocks(gen, a - v, R, k_max, rows),
                                      _step_blocks(gen, a + v, R, k_max, rows)):
        tail = w[:, 1:]
        np.subtract(tail, x[:, :-1], out=tail)
        np.cumsum(tail, axis=1, out=tail)
        np.add(tail, w[:, :1], out=tail)
        np.cumsum(x, axis=1, out=x)
        _take(x, ks, log_p[r0:r1])
        _take(w, ks, log_r[r0:r1])
        np.logaddexp.accumulate(w, axis=1, out=w)
        _take(w, ks, log_a[r0:r1])
    # log a = log(1 + lse/varpi)
    np.subtract(log_a, _log_varpi(params.u, v, rng, R)[:, None], out=log_a)
    np.logaddexp(0.0, log_a, out=log_a)
    at_0 = [j for j, k in enumerate(ks) if k == 0]
    log_p[:, at_0] = 0.0
    log_r[:, at_0] = -np.inf
    log_a[:, at_0] = 0.0
    return PraPath(log_p=log_p, log_r=log_r, log_a=log_a)


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
    log_z = sample_zuv_path(params, max(ks, default=0), rng, n_replicas, k_record=ks)
    return np.array(ks) * (0.5 * np.log(n)) + log_z


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
