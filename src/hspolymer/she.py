"""Reflected-walk kernels, boundary weights, and modified partition functions.

The base object is a random walk on Z_{>=0} reflected at the origin: from 0
it steps to 1 with weight 1, from w > 0 it steps to w +- 1 with weight 1/2
each, so path weights are prod_{r=s}^{t-1} 2^{-1{S_r>0}} and the plain
kernel is an honest probability kernel. Boundary weights X(i) multiply in at
every visit to the origin at times i in [s, t); bulk weights enter through
factors 1 + beta*omega(r, w) at positive heights. The modified partition
function is computed three independent ways (direct DP, chaos series, mild
recursion) that must agree exactly, which is the backbone correctness check
of the whole module.

All kernels vanish off the parity sublattice s + x == t + y (mod 2); the
endpoint time t never contributes a factor.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .rng import RngStream

CHAOS_GUARD = 12


@dataclass
class BoundaryWeights:
    """Origin-visit factors X(i) at times i in [start, start + len(values))."""

    start: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        bad = np.flatnonzero(~(self.values >= 0))
        if bad.size:
            k = bad[0]
            raise ValueError(f"boundary weight at {self.start + k} is negative: "
                             f"{self.values[k]}")

    def window(self, s: int, t: int) -> np.ndarray:
        """X(i) for i in [s, t); ValueError unless the weights cover it."""
        if s < self.start or t > self.start + len(self.values):
            raise ValueError(f"boundary weights must cover [{s}, {t})")
        return self.values[s - self.start:t - self.start]


@dataclass
class BulkWeights:
    """Disorder omega(r, w) at times r in [start, start + rows) and heights
    w = 1..columns, held in column w - 1, with inverse temperature beta."""

    start: int
    values: np.ndarray
    beta: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        bad = np.argwhere(~(1.0 + self.beta * self.values >= 0.0))
        if bad.size:
            a, b = bad[0]
            raise ValueError(
                f"1 + beta*omega < 0 at {(self.start + int(a), int(b) + 1)}")

    def window(self, s: int, t: int, cap: int) -> np.ndarray:
        """omega(r, w) as a (t - s, cap + 1) array over r in [s, t) and
        w = 0..cap, zero at the origin; ValueError unless the field covers
        heights 1..cap at those times."""
        rows, heights = self.values.shape
        if s < self.start or t > self.start + rows or cap > heights:
            raise ValueError(f"bulk weights must cover [{s}, {t}) x [1, {cap}]")
        om = np.zeros((t - s, cap + 1))
        om[:, 1:] = self.values[s - self.start:t - self.start, :cap]
        return om


def _parity_ok(s: int, x: int, t: int, y: int) -> bool:
    return (s + x) % 2 == (t + y) % 2


def _checked_cap(s: int, x: int, t: int, y: int) -> int:
    """Truncation height of a DP from (s, x) to (t, y): no path from x climbs
    past it, so nothing is dropped. Refuses t <= s and negative heights."""
    if t <= s:
        raise ValueError("need t > s")
    if x < 0 or y < 0:
        raise ValueError("heights must be nonnegative")
    return max(x, y) + (t - s)


def _factor_rows(s: int, t: int, cap: int, boundary, bulk) -> np.ndarray:
    """The DP factors g[r - s, w] over r in [s, t) and w = 0..cap: X(r), or
    1 without boundary weights, at the origin; 0.5 * (1 + beta*omega(r, w)),
    or 0.5 without a bulk field, above it."""
    g = np.full((t - s, cap + 1), 0.5)
    if bulk is not None:
        g *= 1.0 + bulk.beta * bulk.window(s, t, cap)
    g[:, 0] = 1.0 if boundary is None else boundary.window(s, t)
    return g


def _sweep(f: np.ndarray, rows, inject: np.ndarray | None = None):
    """Yield the reflected-walk DP's mass at every time, the start first.

    f holds the mass over heights 0..cap on its last axis, any leading axes
    a batch, and may change in place. Each factor row (boundary factor at 0,
    halved bulk factor above) broadcasts against f; mass at the cap moving
    up is dropped. inject[..., r] is added at height r at time r, before
    that state is yielded. A yielded state is never changed afterwards.
    """
    n_in = 0 if inject is None else inject.shape[-1]
    if n_in:
        f[..., 0] += inject[..., 0]
    yield f
    for r, row in enumerate(rows, 1):
        h = f * row
        f = np.zeros_like(h)
        f[..., 1:] += h[..., :-1]
        f[..., :-1] += h[..., 1:]
        if r < n_in:
            f[..., r] += inject[..., r]
        yield f


def _run_dp(f: np.ndarray, rows, inject: np.ndarray | None = None) -> np.ndarray:
    """The last state of _sweep(f, rows, inject)."""
    for f in _sweep(f, rows, inject):
        pass
    return f


def _partition(boundary, bulk, s: int, x: int, t: int, y: int) -> float:
    """Direct DP from (s, x) to (t, y); boundary or bulk may be None."""
    cap = _checked_cap(s, x, t, y)
    f = _run_dp(np.eye(cap + 1)[x], _factor_rows(s, t, cap, boundary, bulk))
    return float(f[y]) if _parity_ok(s, x, t, y) else 0.0


def reflected_kernel(s: int, x: int, t: int, y: int) -> float:
    """Transition probability of the reflected walk; 0 off-parity."""
    return _partition(None, None, s, x, t, y)


def boundary_kernel(weights: BoundaryWeights, s: int, x: int, t: int, y: int) -> float:
    """Reflected kernel with X(i) collected at origin visits, i in [s, t)."""
    return _partition(weights, None, s, x, t, y)


@dataclass
class KernelTable:
    """All pair transition weights p_X(r1, w1; r2, w2) on a window.

    Stored as matrices per time pair; entries vanish off-parity by
    construction. The zero-step table is the identity.
    """

    s: int
    t: int
    cap: int
    tables: dict = field(default_factory=dict)

    def value(self, r1: int, w1: int, r2: int, w2: int) -> float:
        if not (self.s <= r1 <= r2 <= self.t):
            raise ValueError("time pair outside table window")
        if w1 < 0 or w2 < 0:
            raise ValueError("heights must be nonnegative")
        if w1 > self.cap or w2 > self.cap:
            return 0.0
        return float(self.tables[(r1, r2)][w1, w2])

    def matrix(self, r1: int, r2: int) -> np.ndarray:
        return self.tables[(r1, r2)]


def build_kernel_table(boundary: BoundaryWeights | None, s: int, t: int,
                       cap: int) -> KernelTable:
    """One forward sweep from every start time, giving all p_X time pairs."""
    g = _factor_rows(s, t, cap, boundary, None)
    tables = {}
    for r1 in range(s, t + 1):
        for r2, mass in enumerate(_sweep(np.eye(cap + 1), g[r1 - s:]), r1):
            tables[(r1, r2)] = mass
    return KernelTable(s=s, t=t, cap=cap, tables=tables)


def modified_partition_direct(boundary: BoundaryWeights, bulk: BulkWeights,
                              s: int, x: int, t: int, y: int) -> float:
    """Partition function by direct DP: boundary-weighted walk measure with
    bulk factors 1 + beta*omega at every time in [s, t)."""
    return _partition(boundary, bulk, s, x, t, y)


def modified_partition_chaos(boundary: BoundaryWeights, bulk: BulkWeights,
                             s: int, x: int, t: int, y: int) -> float:
    """Partition function by the chaos series.

    Sum over k of beta^k sum over increasing time tuples s <= r_1 < ... <
    r_k < t and heights of products of p_X kernels chained through the
    omega factors. The k = 0 term is p_X(s, x; t, y) itself. Exact (not
    truncated): the series terminates at k = t - s.
    """
    cap = _checked_cap(s, x, t, y)
    if t - s > CHAOS_GUARD:
        raise ValueError(f"chaos series guarded to t - s <= {CHAOS_GUARD}")
    kt = build_kernel_table(boundary, s, t, cap)
    omega = bulk.window(s, t, cap)
    if not _parity_ok(s, x, t, y):
        return 0.0
    beta = bulk.beta
    # terms[k] holds the order-k chains' terms, each chain after its prefix
    terms = [[kt.value(s, x, t, y)]] + [[] for _ in range(s, t)]

    def extend(r: int, vec: np.ndarray, k: int) -> None:
        """Record the chain ending at r, whose mass after omega(r, .) is
        vec, then every chain extending it; a vanishing vec ends them all."""
        if not vec.any():
            return
        terms[k].append(beta ** k * float(vec @ kt.matrix(r, t)[:, y]))
        for r2 in range(r + 1, t):
            extend(r2, (vec @ kt.matrix(r, r2)) * omega[r2 - s, :], k + 1)

    for r in range(s, t):
        extend(r, kt.matrix(s, r)[x, :] * omega[r - s, :], 1)
    # ascending order, each order's chains in lexicographic order
    total = 0.0
    for term in chain.from_iterable(terms):
        total += term
    return total


def modified_partition_mild(boundary: BoundaryWeights, bulk: BulkWeights,
                            s: int, x: int, t: int, y: int) -> float:
    """Partition function by the mild (Duhamel) recursion.

    z(s,x;t,y) = p_X(s,x;t,y) + sum_{r=s}^{t-1} sum_w p_X(r,w;t,y)
    beta omega(r,w) z(s,x;r,w), building z(s,x;r,.) for increasing r.
    """
    cap = _checked_cap(s, x, t, y)
    kt = build_kernel_table(boundary, s, t, cap)
    omega = bulk.window(s, t, cap)
    if not _parity_ok(s, x, t, y):
        return 0.0
    beta = bulk.beta
    # z[r - s] holds z(s, x; r, .) as a vector over heights
    zvecs = [None] * (t - s + 1)
    zvecs[0] = np.eye(cap + 1)[x]
    for r in range(s + 1, t + 1):
        vec = kt.matrix(s, r)[x, :].copy()
        for rp in range(s, r):
            src = zvecs[rp - s] * omega[rp - s, :]
            if beta != 0.0 and np.any(src):
                vec += beta * (src @ kt.matrix(rp, r))
        zvecs[r - s] = vec
    return float(zvecs[t - s][y])


def composition_check(boundary: BoundaryWeights, bulk: BulkWeights,
                      s: int, x: int, t: int, y: int) -> float:
    """Max absolute defect of z(s,x;t,y) = sum_w z(s,x;r,w) z(r,w;t,y)
    over interior cut times r. One sweep from (s, x) gives every z(s,x;r,.)
    and, per cut, one sweep from every height x reaches by r gives
    z(r,.;t,y), both at the whole's cap, which no path from them reaches."""
    cap = _checked_cap(s, x, t, y)
    g = _factor_rows(s, t, cap, boundary, bulk)
    lefts = list(_sweep(np.eye(cap + 1)[x], g))
    whole = float(lefts[-1][y])
    worst = 0.0
    for r in range(s + 1, t):
        left = lefts[r - s][:x + (r - s) + 1]
        right = _run_dp(np.eye(cap + 1)[:left.size], g[r - s:])[:, y]
        glued = 0.0
        for w in range(left.size):
            if left[w] != 0.0 and _parity_ok(r, w, t, y):
                glued += left[w] * right[w]
        worst = max(worst, abs(glued - whole))
    return worst


@dataclass
class InitialDataResult:
    value: float
    tail_bound: float
    truncated: bool


def gaussian_envelope(tau: float, dx: float, c: float = 4.0) -> float:
    """Envelope c * tau^{-1/2} exp(-dx^2 / (c tau)) used for tail reports."""
    return c / math.sqrt(tau) * math.exp(-dx * dx / (c * tau))


def partition_with_initial_data(kind: str, init: dict,
                                boundary: BoundaryWeights, bulk: BulkWeights,
                                t: int, y: int, x_truncation: int) -> InitialDataResult:
    """Partition function started from initial data.

    kind "vertical": sum_x init[x] z(0, x; t, y) over even x >= 0; kind
    "diagonal": sum_x init[x] z(x, x; t, y) over x >= 0, where the x-th
    term starts on the time-space diagonal. Terms with x > x_truncation
    are dropped and a Gaussian-envelope bound on the dropped mass is
    reported. One forward DP evaluates the sum by linearity (vertical: seeded
    mass vector; diagonal: mass injected at time x); t = 0 gives init itself.
    """
    if t < 0:
        raise ValueError("need t >= 0")
    if y < 0 or any(x0 < 0 for x0 in init):
        raise ValueError("heights must be nonnegative")
    cap = max(x_truncation, y) + t
    truncated = any(x > x_truncation for x in init)
    tail = 0.0
    if truncated:
        for x0, val in init.items():
            if x0 > x_truncation:
                tau = max(t - (x0 if kind == "diagonal" else 0), 1)
                tail += val * gaussian_envelope(float(tau), float(abs(x0 - y)))
    f = np.zeros(cap + 1)
    g = _factor_rows(0, t, cap, boundary, bulk)
    if kind == "vertical":
        for x0, val in init.items():
            if x0 % 2:
                raise ValueError("vertical initial data lives on even heights")
            if x0 <= x_truncation:
                f[x0] = val
        f = _run_dp(f, g)
    elif kind == "diagonal":
        # a term starting at time t is its bare value; later ones vanish
        f = _run_dp(f, g, np.array([init.get(x0, 0.0) for x0 in
                                    range(min(x_truncation, t) + 1)], dtype=float))
    else:
        raise ValueError(f"unknown initial data kind {kind!r}")
    value = float(f[y])
    return InitialDataResult(value=value, tail_bound=tail, truncated=truncated)


def _square_root(n: int, least: int = 1) -> int:
    """sqrt(n) as an int; ValueError unless n is a perfect square >= least."""
    if n < least or int(round(math.sqrt(n))) ** 2 != n:
        raise ValueError(f"n must be a perfect square >= {least}, got {n}")
    return int(round(math.sqrt(n)))


def _lattice_index(scale: float, value: float, name: str) -> int:
    """scale * value as an int; ValueError unless it is a nonnegative integer
    to within 1e-9. name labels the product in the message."""
    w = scale * value
    k = int(round(w))
    if abs(w - k) > 1e-9 or k < 0:
        raise ValueError(f"{name} = {w} is not a nonnegative integer")
    return k


@dataclass(frozen=True)
class ScalingParams:
    """Lattice size and the two scaled parameters of the sheet."""

    n: int
    mu: float
    beta: float

    def __post_init__(self):
        _square_root(self.n, least=4)

    @property
    def sqrt_n(self) -> float:
        return float(_square_root(self.n))

    @property
    def beta_n(self) -> float:
        return self.n ** -0.25 * self.beta / math.sqrt(2.0)

    @property
    def boundary_level(self) -> float:
        return 1.0 - self.mu / self.sqrt_n


def _scaled_lattice_points(params: ScalingParams, S, X, T_list, Y_list):
    """The lattice points behind a sheet table: s = nS, the starts
    sqrt(n) X, the ends nT and the end heights sqrt(n) Y, each a nonnegative
    integer, every end after s and every point on the even sublattice."""
    n, rn = params.n, params.sqrt_n
    s = _lattice_index(n, S, "nS")
    xs = [_lattice_index(rn, x, "sqrt(n)X") for x in X]
    ts = [_lattice_index(n, T, "nT") for T in T_list]
    ys = [_lattice_index(rn, Y, "sqrt(n)Y") for Y in Y_list]
    if min(ts) <= s:
        raise ValueError("need T > S")
    if any((s + x) % 2 for x in xs) or any((t + y) % 2 for t in ts for y in ys):
        raise ValueError("scaled points must sit on the even sublattice")
    return s, xs, ts, ys


def _fill_bulk(om: np.ndarray, rngs) -> None:
    """Fill om[i], a block of bulk rows, with stream i's next Uniform(-sqrt3,
    sqrt3) draws, in place.

    Each stream writes its raw variates U into its own rows; one map then
    turns the whole block into low + (high - low) * U with (low, high) =
    (-sqrt3, sqrt3), the operations Generator.uniform applies per stream.
    """
    for i, one in enumerate(rngs):
        one.gen.random(out=om[i])
    low, high = -math.sqrt(3.0), math.sqrt(3.0)
    om *= high - low
    om += low


def scaled_sheet_table(params: ScalingParams, S: float, X: Sequence[float],
                       T_list, Y_list,
                       rng: Sequence[RngStream | None] | None = None) -> np.ndarray:
    """The scaled sheet (sqrt(n)/2) z(nS, sqrt(n)X; nT, sqrt(n)Y) 2^{1{Y=0}}
    on a (replica, X, T, Y) grid from a single forward DP sweep.

    The sheet has one environment: the constant boundary level 1 - mu/sqrt(n)
    and i.i.d. Uniform(-sqrt3, sqrt3) bulk noise at beta_n. The matching
    inverse-gamma laws are drawn and checked in scaling, not here. beta = 0
    is fully deterministic; otherwise every replica needs a stream.

    X is a nonempty 1-D sequence of start heights. All starts ride the
    same sweep in one environment: each stream's bulk weights are shared by
    every start, which is the sheet's joint law in X. rng is None (nothing
    random: one replica) or a nonempty sequence of streams, one per
    replica; replica i is exactly the table a call with [rng[i]] alone
    gives. The table has shape (replicas, len(X), len(T_list), len(Y_list)).

    The truncation height is cap = min(max(x, y) + ceil(8 sqrt(n (T - S))),
    x + n (T - S)) with x the largest scaled start, y the largest scaled Y
    and T the largest T, and the bulk field spans heights 1..cap. A start
    sequence therefore gives each start's own table exactly when that start
    alone gets the same cap, as it does when no start exceeds max(Y_list)
    and the first term is the smaller.

    Each stream draws its bulk rows in blocks of consecutive rows.
    """
    if rng is not None and not isinstance(rng, Sequence):
        raise ValueError("rng must be None or a sequence of streams")
    rngs = [None] if rng is None else list(rng)
    if not rngs:
        raise ValueError("need at least one rng stream")
    if np.ndim(X) != 1 or np.size(X) == 0:
        raise ValueError("X must be a nonempty 1-D sequence of start heights")
    rn = params.sqrt_n
    s, xs, ts, ys = _scaled_lattice_points(params, S, X, T_list, Y_list)
    x_top, t_max, y_max = max(xs), max(ts), max(ys)
    t_span = max(T_list) - S
    cap = int(max(x_top, y_max) + math.ceil(8.0 * math.sqrt(t_span) * rn))
    cap = min(cap, x_top + (t_max - s))
    if params.beta != 0.0 and any(r is None for r in rngs):
        raise ValueError("positive beta needs an rng")
    n_rep, steps = len(rngs), t_max - s
    beta_n = params.beta_n
    # one block of bulk rows over all replicas holds at most a quarter of one
    # replica's field, so the batch needs less memory than one whole field
    block = max(1, steps // (4 * n_rep))
    om = np.empty((n_rep, block, cap)) if params.beta != 0.0 else None
    out = np.zeros((n_rep, len(xs), len(T_list), len(Y_list)))
    want = {}
    for a, t in enumerate(ts):
        want.setdefault(t, []).append(a)
    # f is [replica, start, height]; g broadcasts over the starts
    f = np.zeros((n_rep, len(xs), cap + 1))
    f[:, np.arange(len(xs)), xs] = 1.0
    g = np.full((n_rep, 1, cap + 1), 0.5)
    g[:, 0, 0] = params.boundary_level

    def rows():
        for k in range(steps):
            if params.beta != 0.0:
                if k % block == 0:
                    _fill_bulk(om[:, :min(block, steps - k)], rngs)
                # the halved bulk factor; without bulk noise g[..., 1:] stays 0.5
                np.multiply(1.0 + beta_n * om[:, k % block], 0.5, out=g[:, 0, 1:])
            yield g

    for t, mass in enumerate(_sweep(f, rows()), s):
        for a in want.get(t, ()):
            for b, yy in enumerate(ys):
                val = mass[..., yy] if yy <= cap else 0.0
                out[..., a, b] = (rn / 2.0) * val * (2.0 if yy == 0 else 1.0)
    return out


def robin_heat_kernel(mu: float, S: float, X: float, T: float, Y: float) -> float:
    """Half-line heat kernel with boundary condition dP/dY = mu P at Y = 0.

    Closed form: with tau = T - S and phi_tau the centered Gaussian density
    of variance tau,
        P = phi_tau(X - Y) + phi_tau(X + Y)
            - mu exp(-(X+Y)^2/(2 tau)) erfcx((X + Y + mu tau)/sqrt(2 tau)),
    which satisfies the heat equation in (T, Y), the Robin condition at
    Y = 0, and the delta initial condition as tau -> 0; mu = 0 reduces to
    the Neumann reflection formula.
    """
    from scipy.special import erfcx

    tau = T - S
    if tau <= 0:
        raise ValueError("need T > S")
    if X < 0 or Y < 0:
        raise ValueError("need X, Y >= 0")
    phi = lambda z: math.exp(-z * z / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau)
    base = phi(X - Y) + phi(X + Y)
    if mu == 0.0:
        return base
    z = X + Y
    corr = mu * math.exp(-z * z / (2.0 * tau)) * float(
        erfcx((z + mu * tau) / math.sqrt(2.0 * tau)))
    return base - corr


def robin_kernel_property_report(mu: float) -> dict:
    """Certify the closed-form Robin kernel against its defining properties.

    Three numerical checks: the heat-equation residual dP/dT - (1/2)
    d^2P/dY^2 by central differences away from the boundary, the boundary
    condition dP/dY = mu P at Y = 0 by a one-sided second-order stencil,
    and the delta initial condition by small-tau moment matching (mass,
    mean, variance of Y under P(tau; x0, .)). Residuals scale with the
    stencil order; callers assert against discretization-order thresholds.
    """
    tau, x0, h = 0.5, 0.7, 1e-3
    ys = [0.2, 0.5, 0.9, 1.4]
    pde = 0.0
    for y in ys:
        p_t = (robin_heat_kernel(mu, 0.0, x0, tau + h, y)
               - robin_heat_kernel(mu, 0.0, x0, tau - h, y)) / (2 * h)
        p_yy = (robin_heat_kernel(mu, 0.0, x0, tau, y + h)
                - 2 * robin_heat_kernel(mu, 0.0, x0, tau, y)
                + robin_heat_kernel(mu, 0.0, x0, tau, y - h)) / (h * h)
        pde = max(pde, abs(p_t - 0.5 * p_yy))
    p0 = robin_heat_kernel(mu, 0.0, x0, tau, 0.0)
    p1 = robin_heat_kernel(mu, 0.0, x0, tau, h)
    p2 = robin_heat_kernel(mu, 0.0, x0, tau, 2 * h)
    dp = (-3.0 * p0 + 4.0 * p1 - p2) / (2 * h)
    bc = abs(dp - mu * p0)
    # delta limit: at tiny tau the kernel from x0 > 0 concentrates at x0
    tau0 = 1e-4
    grid = np.linspace(max(0.0, x0 - 0.05), x0 + 0.05, 2001)
    vals = np.array([robin_heat_kernel(mu, 0.0, x0, tau0, y) for y in grid])
    trap = getattr(np, "trapezoid", None) or np.trapz
    mass = trap(vals, grid)
    mean = trap(vals * grid, grid) / mass
    var = trap(vals * (grid - mean) ** 2, grid) / mass
    return {
        "mu": mu,
        "pde_residual": float(pde),
        "boundary_residual": float(bc),
        "delta_mass_defect": float(abs(mass - 1.0)),
        "delta_mean_defect": float(abs(mean - x0)),
        "delta_var_defect": float(abs(var - tau0)),
    }


def neumann_normalization_defect() -> float:
    """|integral of the mu = 0 kernel over the half-line - 1|."""
    from scipy.integrate import quad

    tau, x0 = 0.7, 0.9
    val, _ = quad(lambda y: robin_heat_kernel(0.0, 0.0, x0, tau, y),
                  0.0, x0 + 40.0 * math.sqrt(tau), limit=200)
    return abs(val - 1.0)


def monotone_coupling_check(boundary_low: BoundaryWeights,
                            boundary_mid: BoundaryWeights,
                            boundary_high: BoundaryWeights,
                            bulk: BulkWeights, s: int, t: int, x_max: int) -> dict:
    """Exact pointwise monotonicity of z in the boundary weights.

    Checks z_low <= z_mid <= z_high at every (s', x; t', y) with
    s <= s' < t' <= t, x <= x_max and y <= x_max + (t' - s'), sharing the
    bulk field. The inputs must already be pointwise ordered.
    """
    boundaries = (boundary_low, boundary_mid, boundary_high)
    lo, mid, hi = (b.window(s, t) for b in boundaries)
    unordered = np.flatnonzero(~((lo <= mid) & (mid <= hi)))
    if unordered.size:
        raise ValueError(f"boundaries not ordered at time {s + unordered[0]}")
    # the factors at the window's largest cap as [time, boundary, 1, height],
    # so each row broadcasts over the three boundaries and every start height
    cap = x_max + (t - s)
    gs = np.stack([_factor_rows(s, t, cap, b, bulk)
                   for b in boundaries], axis=1)[:, :, None, :]
    checked = 0
    worst = 0.0
    for s2 in range(s, t):
        # one sweep per start time, each state read up to its own cap
        states = _sweep(np.eye(cap + 1)[:x_max + 1], gs[s2 - s:])
        for t2, mass in enumerate(islice(states, 1, None), s2 + 1):
            lo, mid, hi = mass[..., :x_max + (t2 - s2) + 1]
            checked += lo.size
            worst = max(worst, float(np.max(lo - mid)), float(np.max(mid - hi)))
    return {"pass": worst == 0.0, "checked": checked, "max_violation": worst}
