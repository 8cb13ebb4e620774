"""The octant model, once for every weight law: parameter layout, weights,
the row sweep and its oracles, and the stationary increments.

Sites (i, j) with i >= j >= 1 carry parameters theta(i, j) built from
(circ; a_1..a_N): a rule of a_i and a_j off the diagonal and of circ and
a_i on it. A weight law supplies that site rule, the open interval its
parameters must lie in, its per-site draw and its semiring sum.
OctantParams is the log-gamma polymer: log inverse-gamma weights, whose
partition function z(n, m) sums, over up-right paths from (1,1) to (n,m)
inside the octant, the product of the weights along the path. Partition
arithmetic is in log domain, since z grows or decays geometrically in n+m
and would leave double range within a few hundred steps. The recurrence is
one row sweep, replicated_rows, with logaddexp as its sum; lpp's
exponential and geometric laws run the same sweep with np.maximum for last
passage, the zero-temperature limit.

Divergent boundary weights (parameter sum zero) are pinned to the unit of
the path product (log-weight 0, passage-time weight 0) and exempt from
validation. The stationary objects are ratios in which those weights
cancel, so pinning is exactly the removal the definitions perform.
"""
from __future__ import annotations

import dataclasses
import itertools
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from math import comb

import numpy as np

from .rng import RngStream


@dataclass(frozen=True)
class OctantParams:
    """Parameters (alpha_circ; alpha_1..alpha_N) on the octant, under the
    log-gamma law: inverse-gamma weights of shape alpha_i + alpha_j off the
    diagonal and alpha_circ + alpha_i on it.

    exemptions lists the pinned sites, which are neither validated nor
    drawn. theta holds the site parameters as an (N+1, N+1) array, NaN off
    the octant and at pinned sites; construction refuses a drawn site whose
    parameter lies outside the law's interval. A subclass changes the law
    through the class attributes: the site rule combine, the open interval
    bounds, the per-site draw (parameter, stream, size) and the semiring
    sum plus.
    """

    alpha_circ: float
    alphas: np.ndarray
    exemptions: frozenset = frozenset()
    theta: np.ndarray = dataclasses.field(init=False, repr=False,
                                          compare=False)

    combine = np.add
    bounds = (0.0, np.inf)
    plus = np.logaddexp

    @staticmethod
    def draw(theta, rng: RngStream, size):
        """Log-weights at site parameter theta."""
        return -np.log(rng.gen.standard_gamma(theta, size=size))

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("alphas must be a non-empty 1-d array")
        n = a.size
        pinned = frozenset(self.exemptions)
        for (i, j) in pinned:
            if not 1 <= j <= i <= n:
                raise ValueError(f"exempt site ({i},{j}) outside the octant")
        # rows and columns indexed from 1, as the sites are
        a1 = np.concatenate(([np.nan], a))
        site = self.combine(a1[:, None], a1[None, :])
        diag = np.arange(1, n + 1)
        site[diag, diag] = self.combine(self.alpha_circ, a)
        drawn = np.zeros((n + 1, n + 1), dtype=bool)
        drawn[1:, 1:] = np.tri(n, dtype=bool)
        for ij in pinned:
            drawn[ij] = False
        lo, hi = self.bounds
        bad = drawn & ~((lo < site) & (site < hi))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"site parameter at ({i},{j}) is {site[i, j]}, "
                             f"outside ({lo}, {hi})")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "exemptions", pinned)
        object.__setattr__(self, "theta", np.where(drawn, site, np.nan))

    @property
    def size(self) -> int:
        return self.alphas.size


@dataclass
class WeightField:
    """Sampled log-weights on the octant, sites (i, j) with 1 <= j <= i <= N."""

    log_w: np.ndarray

    @property
    def size(self) -> int:
        return self.log_w.shape[0] - 1


@dataclass
class PartitionGrid:
    """log z(n, m) on the octant; off-octant entries are -inf."""

    log_z: np.ndarray


def sample_weight_field(params: OctantParams, rng: RngStream) -> WeightField:
    """Draw all octant weights for the given parameters."""
    return WeightField(log_w=_draw_sites(params, params.size, rng))


def _draw_sites(params: OctantParams, max_n: int, rng: RngStream) -> np.ndarray:
    """Dense (max_n+1, max_n+1) weights on rows 1..max_n, NaN off the
    octant: one draw of the law over the drawn sites in row-major order
    (row by row, each in column order), and 0.0 at the pinned sites."""
    if not 1 <= max_n <= params.size:
        raise ValueError(f"need 1 <= max_n <= {params.size}, got {max_n}")
    theta = params.theta[: max_n + 1, : max_n + 1]
    w = np.full(theta.shape, np.nan)
    drawn = ~np.isnan(theta)
    th = theta[drawn]
    w[drawn] = params.draw(th, rng, th.shape)
    for (i, j) in params.exemptions:
        if i <= max_n:
            w[i, j] = 0.0
    return w


# ---------------------------------------------------------------------------
# The octant recurrence, once. It is a row sweep over a replica axis in a
# (plus, +) semiring: plus = logaddexp gives log z of the polymer, and
# plus = maximum gives last-passage times, its zero-temperature limit.
# Monte Carlo suites need 1e5+ independent grids, so callers record only the
# sites they need and may sample each row's weights on the fly.
# ---------------------------------------------------------------------------


def replicated_rows(row_logw, max_n: int, max_m: int, n_replicas: int, record,
                    plus=np.logaddexp) -> dict:
    """Row sweep of the partition recurrence over a replica axis.

    row_logw(n) must return log-weights of row n as an (n_replicas, M+1)
    array with M = min(n, max_m) and column 0 ignored. record maps a row
    index n to the column indices to capture. Returns {(n, m): (R,) array}.
    The in-row dependency on (n, m-1) is resolved by a running plus over
    columns after factoring out the cumulative weight sum, which also
    reproduces the diagonal rule since the entry (n-1, n) is -inf. Rows are
    held as [column, replica], so each step of that running plus is one
    contiguous vector operation; it is the same sequence of operations as
    plus.accumulate along the column axis, so every value is bit-identical.

    With n_replicas > 1, row n + 1 is drawn on one helper thread while row
    n is swept (numpy releases the GIL in the draws and the ufuncs). Each
    row is still requested exactly once, rows 1..max_n in order, so a
    provider's generator sees the same calls in the same order; a provider
    must not overwrite an array it has returned. A provider that raises
    stops the sweep with its exception, and the thread is joined before
    this returns. One replica (the dense oracles, whose provider only
    slices) stays on the calling thread.
    """
    out = {}
    prev = np.full((max_m + 1, n_replicas), -np.inf)
    with (ThreadPoolExecutor(max_workers=1) if n_replicas > 1
          else nullcontext()) as pool:
        for n, lw in zip(range(1, max_n + 1), _rows_ahead(row_logw, max_n, pool)):
            m_hi = min(n, max_m)
            lw = np.ascontiguousarray(lw.T)
            cur = np.full((max_m + 1, n_replicas), -np.inf)
            if n == 1:
                cur[1] = lw[1]
            else:
                c = np.empty((m_hi + 1, n_replicas))
                c[0] = 0.0
                c[1] = lw[1]
                for m in range(2, m_hi + 1):
                    np.add(c[m - 1], lw[m], out=c[m])
                # the running plus runs in cur itself, so the row drawn
                # ahead costs no more memory than the temporary it replaces
                y = cur[1 : m_hi + 1]
                np.subtract(prev[1 : m_hi + 1], c[:m_hi], out=y)
                for m in range(1, m_hi):
                    plus(y[m - 1], y[m], out=y[m])
                y += c[1:]
            for m in record.get(n, ()):
                out[(n, m)] = cur[m].copy()
            prev = cur
    return out


def _rows_ahead(row_logw, max_n: int, pool):
    """row_logw(1..max_n), each called once and in order. With a pool, row
    n + 1 is submitted to its thread before row n is handed out, and no row
    is submitted after one that raised."""
    if pool is None:
        yield from map(row_logw, range(1, max_n + 1))
        return
    ahead = pool.submit(row_logw, 1)
    for n in range(1, max_n + 1):
        lw = ahead.result()
        if n < max_n:
            ahead = pool.submit(row_logw, n + 1)
        yield lw


def _sweep_grid(w: np.ndarray, max_n: int, max_m: int, plus=np.logaddexp,
                off=-np.inf) -> np.ndarray:
    """Every octant value up to (max_n, max_m) of the sweep over one dense
    (N+1, N+1) weight array; entries off the octant are set to off."""
    every = {n: range(1, min(n, max_m) + 1) for n in range(1, max_n + 1)}
    grid = np.full((max_n + 1, max_m + 1), off)
    rows = replicated_rows(lambda n: w[None, n, : min(n, max_m) + 1],
                           max_n, max_m, 1, every, plus)
    for (n, m), v in rows.items():
        grid[n, m] = v[0]
    return grid


def partition_recurrence(field: WeightField, max_n: int, max_m: int) -> PartitionGrid:
    """Fill log z(n, m) by the recurrence
    z(n,m) = w(n,m) (z(n-1,m) + z(n,m-1)), with z(n,n) = w(n,n) z(n,n-1).
    """
    if not max_n >= max_m >= 1:
        raise ValueError("need max_n >= max_m >= 1")
    if field.size < max_n:
        raise ValueError("weight field does not cover the requested range")
    return PartitionGrid(log_z=_sweep_grid(field.log_w, max_n, max_m))


def _octant_paths(start, end):
    """All up-right paths between octant points, as site lists (inclusive)."""
    (a, b), (ap, bp) = start, end
    if ap < a or bp < b:
        return []
    right, up = ap - a, bp - b
    total = right + up
    if total > 22:
        raise ValueError("path enumeration guard exceeded")
    paths = []
    for ups in map(set, itertools.combinations(range(total), up)):
        i, j = a, b
        sites = [(i, j)]
        for step in range(total):
            if step in ups:
                j += 1
            else:
                i += 1
            if i < j:
                break
            sites.append((i, j))
        else:
            paths.append(sites)
    return paths


def _path_sums(w: np.ndarray, start, end) -> np.ndarray:
    """Weight sums along every up-right octant path from start to end, both
    sites included; the brute-force oracle of both semirings."""
    return np.array([sum(w[i, j] for i, j in p) for p in _octant_paths(start, end)])


def _log_sum_over_paths(log_w: np.ndarray, start, end) -> float:
    sums = _path_sums(log_w, start, end)
    if not sums.size:
        return -np.inf
    peak = sums.max()
    return float(peak + np.log(np.sum(np.exp(sums - peak))))


def partition_bruteforce(field: WeightField, n: int, m: int) -> float:
    """log z(n, m) by explicit enumeration of all admissible paths."""
    if comb(n + m - 2, m - 1) > 10**6:
        raise ValueError("instance too large for brute force")
    return _log_sum_over_paths(field.log_w, (1, 1), (n, m))


def point_to_point_partition(field: WeightField, start, end) -> float:
    """log of the partition function from start to end, both sites included."""
    (a, b), (ap, bp) = start, end
    if not (a >= b >= 1 and ap >= bp >= 1):
        raise ValueError("endpoints must be octant points")
    return _log_sum_over_paths(field.log_w, start, end)


def burke_step(U, V, w):
    """The local update map (U, V, w) -> (U', V', w').

    U' = w (1 + U/V), V' = w (1 + V/U), w' = (1/U + 1/V)^{-1}. With
    independent U ~ IG(alpha+u), V ~ IG(alpha-u), w ~ IG(2 alpha) the output
    triple has the same joint law; that fixed point is what the stationary
    grids are built on. Evaluated in log domain; accepts arrays.
    """
    logU = np.log(np.asarray(U, dtype=float))
    logV = np.log(np.asarray(V, dtype=float))
    logw = np.log(np.asarray(w, dtype=float))
    logU2 = logw + np.logaddexp(0.0, logU - logV)
    logV2 = logw + np.logaddexp(0.0, logV - logU)
    logw2 = -np.logaddexp(-logU, -logV)
    return np.exp(logU2), np.exp(logV2), np.exp(logw2)


def one_row_params(alpha: float, u: float, max_n: int) -> OctantParams:
    """Specialization alpha_circ=u, alpha_1=-u, alpha_i=alpha for i>=2,
    with site (1,1) pinned (its parameter sum is zero by construction)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not -alpha < u < alpha:
        raise ValueError(f"need u in (-alpha, alpha), got u={u}, alpha={alpha}")
    if max_n < 1:
        raise ValueError("one-row specialization needs max_n >= 1")
    alphas = np.full(max_n, alpha)
    alphas[0] = -u
    return OctantParams(alpha_circ=u, alphas=alphas, exemptions=frozenset({(1, 1)}))


def two_row_params(alpha: float, u: float, v: float, max_n: int) -> OctantParams:
    """Specialization alpha_circ=u, alpha_1=v, alpha_2=-v, alpha_i=alpha for
    i>=3. Site (2,1) is always pinned; (1,1) is pinned too when u+v <= 0
    (its weight cancels from every ratio, and its law is undefined there).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not u > -alpha:
        raise ValueError(f"need u > -alpha, got u={u}")
    if not -alpha < v < alpha:
        raise ValueError(f"need v in (-alpha, alpha), got v={v}")
    if not v < u:
        raise ValueError(
            "need v < u; the v=u case is reachable only as a limit and is "
            "covered by the direct sampler"
        )
    if max_n < 2:
        raise ValueError("two-row specialization needs max_n >= 2")
    alphas = np.full(max_n, alpha)
    alphas[0] = v
    alphas[1] = -v
    exempt = {(2, 1)}
    if u + v <= 0:
        exempt.add((1, 1))
    return OctantParams(alpha_circ=u, alphas=alphas, exemptions=frozenset(exempt))


def make_row_logw(params: OctantParams, max_m: int, n_replicas: int, rng: RngStream,
                  capture: dict | None = None):
    """Row-weight provider for replicated_rows from octant parameters of any
    law: each row's sites are drawn in column order, n_replicas at a time,
    and pinned sites get weight 0.

    capture, if given, receives weights of single sites as {(i, j): (R,)
    array} as the sweep passes them (used to divide out boundary weights).
    """
    theta = params.theta

    def row(n: int) -> np.ndarray:
        m_hi = min(n, max_m)
        # one contiguous row per column; returned as an (R, M+1) view
        buf = np.empty((m_hi + 1, n_replicas))
        buf[0] = np.nan
        for m in range(1, m_hi + 1):
            if (n, m) in params.exemptions:
                buf[m] = 0.0
            else:
                buf[m] = params.draw(theta[n, m], rng, n_replicas)
        if capture is not None:
            for (i, j) in list(capture):
                if i == n and j <= m_hi and capture[(i, j)] is None:
                    capture[(i, j)] = buf[j].copy()
        return buf.T

    return row


def stationary_increments(params_for, defect_rows: int, m: int, offsets,
                          n_replicas: int, rng: RngStream) -> np.ndarray:
    """Monte Carlo draws of Z(m+k, m) - Z(m, m) for k in offsets, where Z is
    log z for the polymer and the passage time for last passage.

    params_for(size) gives the stationary parameters on rows 1..size, whose
    first defect_rows rows carry the defect parameters; the base row m must
    lie at or past them. offsets is a nonempty list of k >= 0. Returns an
    (n_replicas, len(offsets)) array, column c for offsets[c], jointly
    sampled so the law across offsets is the process law.
    """
    offsets = [int(k) for k in offsets]
    if not offsets or min(offsets) < 0:
        raise ValueError("offsets must be a nonempty list of k >= 0")
    if m < defect_rows:
        raise ValueError(f"stationarity holds from m >= {defect_rows}, got m={m}")
    max_n = m + max(offsets)
    params = params_for(max_n)
    record = {m + k: [m] for k in [0] + offsets}
    rows = replicated_rows(make_row_logw(params, m, n_replicas, rng),
                           max_n, m, n_replicas, record, params.plus)
    base = rows[(m, m)]
    return np.stack([rows[(m + k, m)] - base for k in offsets], axis=1)


def permutation_symmetry_experiment(params: OctantParams, permutation, row_m: int,
                                    offsets, n_samples: int, rng: RngStream):
    """Paired samples of (Z(m+k, m))_k under original and permuted row
    parameters, as two (n_samples, len(offsets)) arrays, column c for
    offsets[c].

    permutation is a sequence sigma with sigma[i-1] = image of index i; it
    must fix every index above row_m. The two arrays come from distinct
    substreams, so they are independent and the downstream two-sample KS
    comparison is clean; rerunning with the same stream reproduces both.
    """
    sigma = list(permutation)
    n = params.size
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("permutation must be a rearrangement of 1..N")
    for i in range(row_m + 1, n + 1):
        if sigma[i - 1] != i:
            raise ValueError(f"permutation moves index {i} > m={row_m}")
    permuted = type(params)(params.alpha_circ, params.alphas[np.array(sigma) - 1],
                            params.exemptions)
    offsets = [int(k) for k in offsets]
    max_n = row_m + max(offsets)
    record = {row_m + k: [row_m] for k in offsets}

    def run(p: OctantParams, stream: RngStream) -> np.ndarray:
        rows = replicated_rows(make_row_logw(p, row_m, n_samples, stream),
                               max_n, row_m, n_samples, record, p.plus)
        return np.stack([rows[(row_m + k, row_m)] for k in offsets], axis=1)

    return run(params, rng.substream(0)), run(permuted, rng.substream(1))
