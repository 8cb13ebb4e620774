"""Half-space last passage percolation: geometric and exponential models.

Same octant geometry as the polymer, with sums replaced by maxima and
products by sums: every passage time comes from lattice's row sweep run with
np.maximum as its semiring sum, and the brute-force oracle shares lattice's
path enumeration. Weights are geometric (parametrized by q_i q_j) or
exponential (rate a_i + a_j), with the boundary parameter folded in on the
diagonal. Four stationary constructions mirror the polymer ones: defect
parameters on the first one or two rows, with the passage time re-centered
by the corner weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import sample_exponential, sample_geometric
from .lattice import _path_sums, _sweep_dense, _sweep_grid, replicated_rows
from .rng import RngStream


@dataclass(frozen=True)
class LppGeomParams:
    """Geometric half-space LPP: P(g = k) = (1-p) p^k with p = q_i q_j
    off-diagonal and p = q_circ q_i on the diagonal."""

    q_circ: float
    qs: tuple

    def __post_init__(self):
        object.__setattr__(self, "qs", tuple(float(q) for q in self.qs))

    def q_prod(self, i: int, j: int) -> float:
        if i == j:
            return self.q_circ * self.qs[i - 1]
        return self.qs[i - 1] * self.qs[j - 1]

    def validate(self, size: int, exemptions=frozenset()):
        for i in range(1, size + 1):
            for j in range(1, i + 1):
                if (i, j) in exemptions:
                    continue
                p = self.q_prod(i, j)
                if not 0.0 < p < 1.0:
                    raise ValueError(f"geometric parameter at {(i, j)} is {p}")


@dataclass(frozen=True)
class LppExpParams:
    """Exponential half-space LPP: rate a_i + a_j off-diagonal, a_circ + a_i
    on the diagonal."""

    a_circ: float
    a_s: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_s", tuple(float(a) for a in self.a_s))

    def rate(self, i: int, j: int) -> float:
        if i == j:
            return self.a_circ + self.a_s[i - 1]
        return self.a_s[i - 1] + self.a_s[j - 1]

    def validate(self, size: int, exemptions=frozenset()):
        for i in range(1, size + 1):
            for j in range(1, i + 1):
                if (i, j) in exemptions:
                    continue
                r = self.rate(i, j)
                if not r > 0.0:
                    raise ValueError(f"exponential rate at {(i, j)} is {r}")


@dataclass
class LppGrid:
    """Passage times G(n, m) over the octant, NaN off it."""

    times: np.ndarray
    exemptions: frozenset = field(default_factory=frozenset)


def sample_lpp_weights(params, max_n: int, rng: RngStream,
                       exemptions=frozenset()) -> np.ndarray:
    """Dense (max_n+1, max_n+1) weight array, NaN off the octant, exempted
    sites set to 0."""
    params.validate(max_n, exemptions)
    w = np.full((max_n + 1, max_n + 1), np.nan)
    geom = isinstance(params, LppGeomParams)
    for i in range(1, max_n + 1):
        for j in range(1, i + 1):
            if (i, j) in exemptions:
                w[i, j] = 0.0
            elif geom:
                w[i, j] = sample_geometric(params.q_prod(i, j), rng)
            else:
                w[i, j] = sample_exponential(params.rate(i, j), rng)
    return w


def lpp_recurrence(weights: np.ndarray, max_n: int, max_m: int | None = None) -> LppGrid:
    """Max-plus dynamic programming over the octant.

    G(n, m) = w(n, m) + max(G(n-1, m), G(n, m-1)) for n > m, and
    G(n, n) = w(n, n) + G(n, n-1); G(1, 1) = w(1, 1).
    """
    if max_m is None:
        max_m = max_n
    return LppGrid(times=_sweep_grid(weights, max_n, max_m, np.maximum, off=np.nan))


def lpp_bruteforce(weights: np.ndarray, n: int, m: int) -> float:
    """Passage time by explicit path enumeration; oracle for small sizes."""
    sums = _path_sums(weights, (1, 1), (n, m))
    return float(sums.max()) if sums.size else -np.inf


def _stationary_setup(kind: str, bulk: float, p1: float, p2: float | None):
    """Parameter rows and exemptions for the four stationary constructions.

    Kinds: "geom_one" (bulk q, row parameter r, q_1 = 1/r), "geom_two"
    (r and s, q_1 = s, q_2 = 1/s), "exp_one" (bulk a, parameter u,
    a_1 = -u), "exp_two" (u and v, a_1 = v, a_2 = -v). Subtracted corner
    sites are exempted (pinned to weight 0) and the passage time is already
    the recentred one.
    """
    if kind == "geom_one":
        q, r = bulk, p1
        if not (0 < q * r < 1 and 0 < q / r < 1):
            raise ValueError("need q r and q / r in (0, 1)")
        def mk(size):
            return LppGeomParams(q_circ=r, qs=(1.0 / r,) + (q,) * (size - 1))
        exempt = frozenset({(1, 1)})
    elif kind == "geom_two":
        q, r, s = bulk, p1, p2
        for prod in (q * r, q * s, q / s, r / s):
            if not 0 < prod < 1:
                raise ValueError("need q r, q s, q / s, r / s in (0, 1)")
        def mk(size):
            return LppGeomParams(q_circ=r, qs=(s, 1.0 / s) + (q,) * (size - 2))
        exempt = frozenset({(1, 1), (2, 1)})
    elif kind == "exp_one":
        a, u = bulk, p1
        if not (a + u > 0 and a - u > 0):
            raise ValueError("need a + u > 0 and a - u > 0")
        def mk(size):
            return LppExpParams(a_circ=u, a_s=(-u,) + (a,) * (size - 1))
        exempt = frozenset({(1, 1)})
    elif kind == "exp_two":
        a, u, v = bulk, p1, p2
        if not (a + u > 0 and a + v > 0 and a - v > 0 and u - v > 0):
            raise ValueError("need a + u > 0, a +- v > 0, u > v")
        def mk(size):
            return LppExpParams(a_circ=u, a_s=(v, -v) + (a,) * (size - 2))
        exempt = frozenset({(1, 1), (2, 1)})
    else:
        raise ValueError(f"unknown stationary kind {kind!r}")
    return mk, exempt


def _unpack_stationary(kind: str, params: dict):
    if kind.startswith("geom"):
        bulk, p1 = params["q"], params["r"]
    else:
        bulk, p1 = params["a"], params["u"]
    if kind.endswith("two"):
        p2 = params["s"] if kind.startswith("geom") else params["v"]
    else:
        p2 = None
    return bulk, p1, p2


def stationary_lpp_grid(kind: str, params: dict, rng: RngStream) -> LppGrid:
    """Sample a stationary LPP grid of one of the four kinds.

    params carries the model parameters by name ("q"/"r"/"s" for geometric,
    "a"/"u"/"v" for exponential) plus "max_n" and optional "max_m". The
    returned times are the recentred passage times: the subtracted corner
    sites carry weight 0, so G here is already G - g(1,1) (one-row kinds)
    or G - g(1,1) - g(2,1) (two-row kinds).
    """
    bulk, p1, p2 = _unpack_stationary(kind, params)
    max_n = params["max_n"]
    mk, exempt = _stationary_setup(kind, bulk, p1, p2)
    model = mk(max_n)
    w = sample_lpp_weights(model, max_n, rng, exemptions=exempt)
    grid = lpp_recurrence(w, max_n, params.get("max_m"))
    grid.exemptions = exempt
    return grid


def stationary_row_samples_lpp(kind: str, bulk: float, p1: float, m: int,
                               offsets, n_replicas: int, rng: RngStream,
                               p2: float | None = None) -> dict:
    """Replicated increments G(m+k, m) - G(m, m) for k in offsets.

    Row-streaming max-plus sweep over all replicas at once; memory is
    O(n_replicas * width). Returns {k: (n_replicas,) array}.
    """
    min_m = 1 if kind.endswith("one") else 2
    if m < min_m:
        raise ValueError(f"{kind} needs m >= {min_m}")
    offsets = sorted(set(int(k) for k in offsets))
    if offsets[0] != 0:
        raise ValueError("offsets must be nonnegative and include 0 to recentre")
    max_n = m + offsets[-1]
    mk, exempt = _stationary_setup(kind, bulk, p1, p2)
    params = mk(max_n)
    params.validate(max_n, exempt)
    R = n_replicas
    geom = isinstance(params, LppGeomParams)

    def row_weights(n):
        width = min(n, m)
        out = np.empty((R, width + 1))
        out[:, 0] = np.nan
        for j in range(1, width + 1):
            if (n, j) in exempt:
                out[:, j] = 0.0
            elif geom:
                out[:, j] = sample_geometric(params.q_prod(n, j), rng, size=R)
            else:
                out[:, j] = sample_exponential(params.rate(n, j), rng, size=R)
        return out

    rows = replicated_rows(row_weights, max_n, m, R,
                           {m + k: [m] for k in offsets}, plus=np.maximum)
    base = rows[(m, m)]
    return {k: rows[(m + k, m)] - base for k in offsets}


def loggamma_to_exp_limit_check(a_circ: float, a_s, epsilon_list, rng: RngStream,
                                n: int = 4, m: int = 3,
                                n_replicas: int = 10 ** 5) -> dict:
    """Zero-temperature limit: eps * log Z at inverse-gamma shapes eps * a
    compared in law against the exponential passage time with rates a.

    For each eps the polymer octant is sampled with shapes eps * (a_i + a_j)
    and eps * log Z(n, m) is collected over replicas; an independent batch
    of exponential G(n, m) values is the reference. Returns per-eps KS
    statistics plus the reference threshold; the sequence should decrease
    along a decreasing eps grid (reported, not asserted here).
    """
    from .stats import SampleSet, ks_two_sample

    a_s = tuple(float(a) for a in a_s)
    eps_sorted = list(epsilon_list)
    if any(b >= a for a, b in zip(eps_sorted, eps_sorted[1:])):
        raise ValueError("epsilon grid must be decreasing")
    exp_params = LppExpParams(a_circ=a_circ, a_s=a_s)
    exp_params.validate(n)
    R = n_replicas
    sites = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    # dense weight cubes indexed [row, replica, column], swept in one call
    w_exp = np.full((n + 1, R, n + 1), np.nan)
    for (i, j) in sites:
        w_exp[i, :, j] = sample_exponential(exp_params.rate(i, j), rng, size=R)
    g = _sweep_dense(w_exp, n, m, {n: [m]}, np.maximum)[(n, m)]
    ref = SampleSet(g, label=f"exp_G({n},{m})")
    out = {"n": n, "m": m, "n_replicas": R, "ks": {}}
    for eps in eps_sorted:
        logw = np.full((n + 1, R, n + 1), np.nan)
        for (i, j) in sites:
            th = eps * exp_params.rate(i, j)
            # G_th = G_{th+1} U^{1/th} in law; sampling the log this way
            # avoids the underflow of tiny-shape gamma draws
            boost = np.log(rng.gen.standard_gamma(th + 1.0, size=R))
            logw[i, :, j] = -(boost + np.log(rng.gen.random(size=R)) / th)
        z = eps * _sweep_dense(logw, n, m, {n: [m]})[(n, m)]
        res = ks_two_sample(SampleSet(z, label=f"eps={eps}"), ref)
        out["ks"][eps] = {"statistic": res.statistic, "threshold": res.threshold}
    return out

