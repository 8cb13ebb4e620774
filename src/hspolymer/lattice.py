"""Half-space polymer on the octant: weights, partition recurrence, oracles.

The model lives on lattice sites (i, j) with i >= j >= 1. Site weights are
inverse-gamma with shape alpha_i + alpha_j off the diagonal and
alpha_circ + alpha_i on it. The partition function z(n, m) sums, over up-right
paths from (1,1) to (n,m) that stay inside the octant, the product of the
weights along the path. All partition arithmetic is done in log domain; z
grows or decays geometrically in n+m and would leave double range within a
few hundred steps otherwise. The recurrence lives in one row sweep,
replicated_rows, whose semiring sum is logaddexp here; lpp runs the same
sweep with np.maximum for last passage, the zero-temperature limit.

Divergent boundary weights (parameter sum zero) are represented by pinning
the site's log-weight to 0 and exempting it from validation. The stationary
objects are defined as ratios in which those weights cancel, so pinning is
exactly the removal the definitions perform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .rng import RngStream
from .stats import SampleSet


@dataclass
class OctantParams:
    """Inhomogeneity parameters (alpha_circ; alpha_1..alpha_N).

    exemptions lists sites whose weight is pinned to 1 (log-weight 0); their
    parameter sums are excluded from the positivity validation.
    """

    alpha_circ: float
    alphas: np.ndarray
    exemptions: frozenset = frozenset()

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        if self.alphas.ndim != 1 or self.alphas.size < 1:
            raise ValueError("alphas must be a non-empty 1-d array")
        self.validate()

    @property
    def size(self) -> int:
        return self.alphas.size

    def alpha(self, i: int) -> float:
        return float(self.alphas[i - 1])

    def theta(self, i: int, j: int) -> float:
        """Weight shape at octant site (i, j)."""
        if i == j:
            return self.alpha_circ + self.alpha(i)
        return self.alpha(i) + self.alpha(j)

    def validate(self):
        n = self.size
        a = self.alphas
        for i in range(1, n + 1):
            if (i, i) not in self.exemptions and not self.alpha_circ + a[i - 1] > 0:
                raise ValueError(
                    f"alpha_circ + alpha_{i} = {self.alpha_circ + a[i-1]} <= 0"
                )
        # pairwise sums; vectorized, then exemptions removed
        s = a[:, None] + a[None, :]
        bad_i, bad_j = np.nonzero(s <= 0)
        for bi, bj in zip(bad_i + 1, bad_j + 1):
            if bi > bj and (bi, bj) not in self.exemptions:
                raise ValueError(f"alpha_{bi} + alpha_{bj} = {s[bi-1, bj-1]} <= 0")


@dataclass
class WeightField:
    """Sampled log-weights on the octant, sites (i, j) with 1 <= j <= i <= N."""

    log_w: np.ndarray
    params: OctantParams
    exemptions: frozenset = frozenset()

    @property
    def size(self) -> int:
        return self.log_w.shape[0] - 1

    def logw(self, i: int, j: int) -> float:
        if not (1 <= j <= i <= self.size):
            raise IndexError(f"site ({i},{j}) outside the octant")
        return float(self.log_w[i, j])


@dataclass
class PartitionGrid:
    """log z(n, m) on the octant; off-octant entries are -inf."""

    log_z: np.ndarray

    @property
    def max_n(self) -> int:
        return self.log_z.shape[0] - 1

    @property
    def max_m(self) -> int:
        return self.log_z.shape[1] - 1

    def logz(self, n: int, m: int) -> float:
        return float(self.log_z[n, m])


@dataclass
class DownRightPath:
    """Octant points p_1..p_k moving east (1,0) or south (0,-1)."""

    points: list

    def __post_init__(self):
        pts = [tuple(p) for p in self.points]
        if not pts:
            raise ValueError("empty path")
        for (n0, m0), (n1, m1) in zip(pts, pts[1:]):
            step = (n1 - n0, m1 - m0)
            if step not in ((1, 0), (0, -1)):
                raise ValueError(f"illegal down-right step {step}")
        for n, m in pts:
            if n < m:
                raise ValueError(f"point ({n},{m}) above the diagonal")
        self.points = pts


def sample_weight_field(params: OctantParams, rng: RngStream) -> WeightField:
    """Draw all octant weights for the given parameters.

    Off-diagonal site (i,j), i>j, gets log of an inverse-gamma variate with
    shape alpha_i + alpha_j; the diagonal uses alpha_circ + alpha_i.
    Exempted sites are pinned to log-weight 0 and never sampled.
    """
    n = params.size
    a = params.alphas
    theta = np.full((n + 1, n + 1), np.nan)
    ii, jj = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    octant = ii >= jj
    theta[1:, 1:][octant] = (a[ii - 1] + a[jj - 1])[octant]
    diag = np.arange(1, n + 1)
    theta[diag, diag] = params.alpha_circ + a
    for (i, j) in params.exemptions:
        theta[i, j] = np.nan
    log_w = np.full((n + 1, n + 1), np.nan)
    mask = np.isfinite(theta)
    if np.any(theta[mask] <= 0):
        raise ValueError("nonpositive weight shape at a non-exempt site")
    log_w[mask] = -np.log(rng.gen.standard_gamma(theta[mask]))
    for (i, j) in params.exemptions:
        if not (1 <= j <= i <= n):
            raise ValueError(f"exempt site ({i},{j}) outside the octant")
        log_w[i, j] = 0.0
    return WeightField(log_w=log_w, params=params, exemptions=params.exemptions)


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
    The in-row dependency on (n, m-1) is resolved by one plus.accumulate
    after factoring out the cumulative weight sum, which also reproduces the
    diagonal rule since the entry (n-1, n) is -inf.
    """
    out = {}
    prev = np.full((n_replicas, max_m + 1), -np.inf)
    for n in range(1, max_n + 1):
        m_hi = min(n, max_m)
        lw = row_logw(n)
        cur = np.full((n_replicas, max_m + 1), -np.inf)
        if n == 1:
            cur[:, 1] = lw[:, 1]
        else:
            c = np.concatenate(
                [np.zeros((n_replicas, 1)), np.cumsum(lw[:, 1 : m_hi + 1], axis=1)],
                axis=1,
            )
            b = prev[:, 1 : m_hi + 1] - c[:, :m_hi]
            y = plus.accumulate(b, axis=1)
            cur[:, 1 : m_hi + 1] = y + c[:, 1 : m_hi + 1]
        for m in record.get(n, ()):
            out[(n, m)] = cur[:, m].copy()
        prev = cur
    return out


def _sweep_dense(w: np.ndarray, max_n: int, max_m: int, record,
                 plus=np.logaddexp) -> dict:
    """replicated_rows over a dense weight array indexed [row, replica, column]."""
    return replicated_rows(lambda n: w[n, :, : min(n, max_m) + 1],
                           max_n, max_m, w.shape[1], record, plus)


def _sweep_grid(w: np.ndarray, max_n: int, max_m: int, plus=np.logaddexp,
                off=-np.inf) -> np.ndarray:
    """Every octant value up to (max_n, max_m) of the sweep over one dense
    (N+1, N+1) weight array; entries off the octant are set to off."""
    every = {n: range(1, min(n, max_m) + 1) for n in range(1, max_n + 1)}
    grid = np.full((max_n + 1, max_m + 1), off)
    for (n, m), v in _sweep_dense(w[:, None, :], max_n, max_m, every, plus).items():
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
    alphas = np.full(max_n, alpha)
    alphas[0] = -u
    return OctantParams(alpha_circ=u, alphas=alphas, exemptions=frozenset({(1, 1)}))


def one_row_stationary_grid(alpha, u, max_n, max_m, rng: RngStream) -> PartitionGrid:
    """Grid of the one-parameter stationary partition function.

    The ratio z(n,m)/w(1,1) is realized directly by pinning (1,1), so the
    grid entries are the stationary values themselves.
    """
    params = one_row_params(alpha, u, max_n)
    fld = sample_weight_field(params, rng)
    return partition_recurrence(fld, max_n, max_m)


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


def two_row_stationary_grid(alpha, u, v, max_n, max_m, rng: RngStream) -> PartitionGrid:
    """Grid of the two-parameter stationary partition function."""
    params = two_row_params(alpha, u, v, max_n)
    fld = sample_weight_field(params, rng)
    return partition_recurrence(fld, max_n, max_m)


def increments_along_path(grid: PartitionGrid, path: DownRightPath, origin) -> list:
    """log z((m,m)+p_i) - log z((m,m)+p_1) along a down-right path."""
    m0, m1 = origin
    if m0 != m1:
        raise ValueError("origin must sit on the diagonal")
    out = []
    for n, m in path.points:
        nn, mm = n + m0, m + m0
        if not (1 <= mm <= grid.max_m and mm <= nn <= grid.max_n):
            raise IndexError(f"shifted point ({nn},{mm}) outside the grid")
        out.append(grid.logz(nn, mm))
    base = out[0]
    return [x - base for x in out]


def make_row_logw(params: OctantParams, max_m: int, n_replicas: int, rng: RngStream,
                  capture: dict | None = None):
    """Row-weight provider for replicated_rows from octant parameters.

    capture, if given, receives log-weights of single sites as {(i, j): (R,)
    array} as the sweep passes them (used to divide out boundary weights).
    """
    gen = rng.gen

    def row(n: int) -> np.ndarray:
        m_hi = min(n, max_m)
        lw = np.empty((n_replicas, m_hi + 1))
        lw[:, 0] = np.nan
        for m in range(1, m_hi + 1):
            if (n, m) in params.exemptions:
                lw[:, m] = 0.0
            else:
                lw[:, m] = -np.log(gen.standard_gamma(params.theta(n, m), size=n_replicas))
        if capture is not None:
            for (i, j) in list(capture):
                if i == n and j <= m_hi and capture[(i, j)] is None:
                    capture[(i, j)] = lw[:, j].copy()
        return lw

    return row


def stationary_row_samples(kind: str, alpha: float, u: float, v: float | None,
                           m: int, offsets, n_replicas: int, rng: RngStream) -> np.ndarray:
    """Monte Carlo draws of log z_stat(m+k, m) - log z_stat(m, m).

    kind selects the one-row or two-row specialization. offsets is a list of
    k >= 0; column m is recorded at rows m+k and the base row m. Returns an
    (n_replicas, len(offsets)) array of log-ratios, jointly sampled so the
    law across offsets is the process law.
    """
    offsets = sorted(set(int(k) for k in offsets))
    if offsets[0] < 0:
        raise ValueError("offsets must be nonnegative")
    max_n = m + offsets[-1]
    if kind == "one_row":
        params = one_row_params(alpha, u, max_n)
        if m < 1:
            raise ValueError("one-row base needs m >= 1")
    elif kind == "two_row":
        params = two_row_params(alpha, u, v, max_n)
        if m < 2:
            raise ValueError("two-row stationarity holds from m >= 2")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    record = {m + k: [m] for k in offsets}
    if m not in record:
        record[m] = [m]
    rows = replicated_rows(make_row_logw(params, m, n_replicas, rng),
                           max_n, m, n_replicas, record)
    base = rows[(m, m)]
    return np.stack([rows[(m + k, m)] - base for k in offsets], axis=1)


def permutation_symmetry_experiment(params: OctantParams, permutation, row_m: int,
                                    offsets, n_samples: int, rng: RngStream):
    """Paired samples of (log z(m+k, m))_k under original and permuted alphas.

    permutation is a sequence sigma with sigma[i-1] = image of index i; it
    must fix every index above row_m. The two sample sets come from distinct
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
    permuted_alphas = params.alphas[np.array(sigma) - 1]
    params_perm = OctantParams(params.alpha_circ, permuted_alphas, params.exemptions)

    offsets = sorted(set(int(k) for k in offsets))
    max_n = row_m + offsets[-1]
    record = {row_m + k: [row_m] for k in offsets}

    def run(p: OctantParams, stream: RngStream) -> dict:
        rows = replicated_rows(make_row_logw(p, row_m, n_samples, stream),
                               max_n, row_m, n_samples, record)
        return {k: SampleSet(rows[(row_m + k, row_m)], label=f"k={k}")
                for k in offsets}

    original = run(params, rng.substream(0))
    permuted = run(params_perm, rng.substream(1))
    return original, permuted
