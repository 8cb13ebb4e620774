"""Half-space last passage percolation: geometric and exponential models.

Same octant model as the polymer, with sums replaced by maxima and products
by sums: the two parameter classes are lattice.OctantParams with their own
site rule, admissible interval, per-site draw and np.maximum as semiring
sum, so validation, pinned sites, the row-weight provider, the row sweep,
the stationary increments and the brute-force path enumeration are
lattice's. Weights are geometric (parametrized by q_i q_j) or exponential
(rate a_i + a_j), with the boundary parameter folded in on the diagonal.
The circ and row parameters are stored as alpha_circ and alphas, as in
OctantParams. Four stationary constructions mirror the polymer ones: defect
parameters on the first one or two rows, with the corner weights pinned
to 0. The zero-temperature limit's samples draw their polymer side
through a third such class, the log-gamma law at shapes eps times the
exponential site parameters, so both sides ride the same provider and
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import sample_exponential, sample_geometric
from .lattice import (OctantParams, _draw_sites, _path_sums, _sweep_grid,
                      make_row_logw, replicated_rows, stationary_increments)
from .rng import RngStream


class LppGeomParams(OctantParams):
    """Geometric half-space LPP on (q_circ; q_1..q_N): P(g = k) = (1-p) p^k
    with p = q_i q_j off the diagonal and p = q_circ q_i on it."""

    combine = np.multiply
    bounds = (0.0, 1.0)
    plus = np.maximum
    draw = staticmethod(sample_geometric)


class LppExpParams(OctantParams):
    """Exponential half-space LPP on (a_circ; a_1..a_N): rate a_i + a_j off
    the diagonal and a_circ + a_i on it."""

    plus = np.maximum
    draw = staticmethod(sample_exponential)


@dataclass(frozen=True)
class _SmallShapeParams(OctantParams):
    """The log-gamma polymer at shapes eps * (a_i + a_j) off the diagonal
    and eps * (a_circ + a_i) on it: the exponential law's site parameter,
    scaled by eps, for the zero-temperature limit."""

    eps: float = field(kw_only=True)

    def combine(self, a, b):
        return self.eps * (a + b)

    @staticmethod
    def draw(theta, rng: RngStream, size):
        # G_th = G_{th+1} U^{1/th} in law; sampling the log this way avoids
        # the underflow of tiny-shape gamma draws
        boost = np.log(rng.gen.standard_gamma(theta + 1.0, size=size))
        return -(boost + np.log(rng.gen.random(size=size)) / theta)


@dataclass
class LppGrid:
    """Passage times G(n, m) over the octant, NaN off it."""

    times: np.ndarray


def sample_lpp_weights(params: OctantParams, max_n: int, rng: RngStream) -> np.ndarray:
    """Dense (max_n+1, max_n+1) weight array, NaN off the octant."""
    return _draw_sites(params, max_n, rng)


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


def stationary_params(kind: str, bulk: float, p1: float, p2: float | None,
                      size: int) -> OctantParams:
    """Parameters on rows 1..size of the four stationary constructions.

    Kinds: "geom_one" (bulk q, row parameter r, q_1 = 1/r), "geom_two"
    (r and s, q_1 = s, q_2 = 1/s), "exp_one" (bulk a, parameter u,
    a_1 = -u), "exp_two" (u and v, a_1 = v, a_2 = -v). The subtracted
    corner sites are pinned (weight 0), so the passage time is already the
    recentred one.
    """
    if kind == "geom_one":
        q, r = bulk, p1
        if not (0 < q * r < 1 and 0 < q / r < 1):
            raise ValueError("need q r and q / r in (0, 1)")
        return LppGeomParams(r, (1.0 / r,) + (q,) * (size - 1), {(1, 1)})
    if kind == "geom_two":
        q, r, s = bulk, p1, p2
        if not all(0 < prod < 1 for prod in (q * r, q * s, q / s, r / s)):
            raise ValueError("need q r, q s, q / s, r / s in (0, 1)")
        return LppGeomParams(r, (s, 1.0 / s) + (q,) * (size - 2), {(1, 1), (2, 1)})
    if kind == "exp_one":
        a, u = bulk, p1
        if not (a + u > 0 and a - u > 0):
            raise ValueError("need a + u > 0 and a - u > 0")
        return LppExpParams(u, (-u,) + (a,) * (size - 1), {(1, 1)})
    if kind == "exp_two":
        a, u, v = bulk, p1, p2
        if not (a + u > 0 and a + v > 0 and a - v > 0 and u - v > 0):
            raise ValueError("need a + u > 0, a +- v > 0, u > v")
        return LppExpParams(u, (v, -v) + (a,) * (size - 2), {(1, 1), (2, 1)})
    raise ValueError(f"unknown stationary kind {kind!r}")


def stationary_row_samples_lpp(kind: str, bulk: float, p1: float, m: int,
                               offsets, n_replicas: int, rng: RngStream,
                               p2: float | None = None) -> np.ndarray:
    """Replicated increments G(m+k, m) - G(m, m) of a stationary kind, with
    m >= 1 for the one-row kinds and m >= 2 for the two-row ones; see
    lattice.stationary_increments."""
    return stationary_increments(
        lambda size: stationary_params(kind, bulk, p1, p2, size),
        1 if kind.endswith("_one") else 2, m, offsets, n_replicas, rng)


def zero_temperature_samples(a_circ: float, a_s, epsilon_list, rng: RngStream,
                             n: int = 4, m: int = 3,
                             n_replicas: int = 10 ** 5) -> np.ndarray:
    """Corner samples of the zero-temperature limit, (n_replicas, 1 +
    len(epsilon_list)): column 0 is the exponential passage time G(n, m) at
    rates a, column 1 + i is eps_i * log Z(n, m) of an independent polymer
    at inverse-gamma shapes eps_i * a. Along a decreasing eps grid the
    polymer columns approach column 0 in law."""
    if np.any(np.diff(epsilon_list) >= 0):
        raise ValueError("epsilon grid must be decreasing")

    def corner(params: OctantParams) -> np.ndarray:
        # max_m = n draws every site of rows 1..n, row by row in column order
        rows = make_row_logw(params, n, n_replicas, rng)
        return replicated_rows(rows, n, n, n_replicas, {n: [m]}, params.plus)[(n, m)]

    ref = corner(LppExpParams(a_circ, a_s))
    return np.stack([ref] + [eps * corner(_SmallShapeParams(a_circ, a_s, eps=eps))
                             for eps in epsilon_list], axis=1)
