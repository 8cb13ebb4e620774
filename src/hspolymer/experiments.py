"""Experiment catalog: named, seeded suites behind the command line runner.

Each experiment draws its Monte Carlo samples through a registry of
module-level sampler functions so batches can be checkpointed and spread
over a worker pool; batch i of a sampler always uses the stream
(seed, base + i), which makes reruns reproducible regardless of worker
scheduling. Aggregation and KS evaluation happen in the parent process.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lattice, lpp, scaling, she, stationary
from .distributions import (exponential_cdf, inverse_gamma_cdf, normal_cdf,
                            sample_gamma, sample_inverse_gamma)
from .rng import RngStream
from .stats import KsResult, KsSuite, SampleSet, ks_one_sample, ks_threshold, \
    ks_two_sample, moment_compare

# ---------------------------------------------------------------------------
# sampler registry (module-level for picklability)

def _s_burke(rng, n, alpha, u):
    U = sample_inverse_gamma(alpha + u, rng, size=n)
    V = sample_inverse_gamma(alpha - u, rng, size=n)
    w = sample_inverse_gamma(2.0 * alpha, rng, size=n)
    U2, V2, w2 = lattice.burke_step(U, V, w)
    return np.stack([U2, V2, w2], axis=1)


def _s_one_row(rng, n, alpha, u, m, offsets):
    return lattice.stationary_row_samples("one_row", alpha, u, None, m,
                                          offsets, n, rng)


def _s_two_row(rng, n, alpha, u, v, m, offsets):
    return lattice.stationary_row_samples("two_row", alpha, u, v, m,
                                          offsets, n, rng)


def _s_zuv(rng, n, alpha, u, v, ks):
    p = stationary.DiscreteStationaryParams(alpha=alpha, u=u, v=v)
    path = stationary.sample_zuv_path(p, max(ks), rng, n_replicas=n)
    return path[:, list(ks)]


def _s_zuv_ratio(rng, n, alpha, u, v, k):
    p = stationary.DiscreteStationaryParams(alpha=alpha, u=u, v=v)
    path = stationary.sample_zuv_path(p, k + 1, rng, n_replicas=n)
    return path[:, k + 1] - path[:, k]


def _s_zuv_pra(rng, n, alpha, u, v, ks):
    p = stationary.DiscreteStationaryParams(alpha=alpha, u=u, v=v)
    pra = stationary.sample_zuv_pra(p, max(ks), rng, n_replicas=n)
    return pra.log_z[:, list(ks)]


def _s_zuv_a(rng, n, alpha, u, v, k):
    p = stationary.DiscreteStationaryParams(alpha=alpha, u=u, v=v)
    pra = stationary.sample_zuv_pra(p, k, rng, n_replicas=n)
    return np.exp(pra.log_a[:, k])


def _s_ig_walk(rng, n, theta, ks):
    steps = -np.log(rng.gen.standard_gamma(theta, size=(n, max(ks))))
    walk = np.cumsum(steps, axis=1)
    walk = np.concatenate([np.zeros((n, 1)), walk], axis=1)
    return walk[:, list(ks)]


def _s_gamma_limit(rng, n, u, v):
    top = sample_gamma(u - v, rng, size=n)
    bot = sample_gamma(2.0 * v, rng, size=n)
    return 1.0 + top / bot


def _s_huv(rng, n, u, v, delta, x_max, xs, route):
    p = stationary.ContinuumStationaryParams(u=u, v=v, delta=delta, x_max=x_max)
    fn = stationary.sample_Huv_pitman if route == "pitman" else stationary.sample_Huv_path
    return fn(p, rng, n_replicas=n, x_record=xs)["H"]


def _s_scaled_init(rng, n_samp, n, u, v, xs):
    return stationary.scaled_initial_data(n, u, v, xs, rng, n_replicas=n_samp)


def _s_scaled_sq(rng, n_samp, n, u, v, x):
    logv = stationary.scaled_initial_data(n, u, v, [x], rng, n_replicas=n_samp)
    return np.exp(2.0 * logv[:, 0])


def _s_scaled_proc(rng, n_samp, n, u, v, T, xs):
    config = scaling.KpzScalingConfig(n=n, u=u, v=v)
    return scaling.scaled_stationary_process(config, T, xs, rng,
                                             n_replicas=n_samp)


def _s_lpp_rows(rng, n, kind, bulk, p1, m, offsets, p2=None):
    got = lpp.stationary_row_samples_lpp(kind, bulk, p1, m, [0] + list(offsets),
                                         n, rng, p2=p2)
    return np.stack([got[k] for k in offsets], axis=1)


def _s_matching(rng, n, alpha, u, v, t, y):
    rep = scaling.matching_identity_check(alpha, u, v, t, y, n, rng)
    return np.stack([rep["lhs_log"], rep["rhs_log"]], axis=1)


SAMPLERS = {
    "burke": _s_burke,
    "one_row": _s_one_row,
    "two_row": _s_two_row,
    "zuv": _s_zuv,
    "zuv_ratio": _s_zuv_ratio,
    "zuv_pra": _s_zuv_pra,
    "zuv_a": _s_zuv_a,
    "ig_walk": _s_ig_walk,
    "gamma_limit": _s_gamma_limit,
    "huv": _s_huv,
    "scaled_init": _s_scaled_init,
    "scaled_sq": _s_scaled_sq,
    "scaled_proc": _s_scaled_proc,
    "lpp_rows": _s_lpp_rows,
    "matching": _s_matching,
}

_DEFAULT_BATCH = 50_000


@dataclass
class RunContext:
    out_dir: Path | None = None
    workers: int = 1
    emit_csv: bool = False

    def checkpoint_dir(self) -> Path | None:
        if self.out_dir is None:
            return None
        d = Path(self.out_dir) / "checkpoints"
        d.mkdir(parents=True, exist_ok=True)
        return d


def _stable_base(tag: str) -> int:
    h = hashlib.sha1(tag.encode()).digest()
    return int.from_bytes(h[:4], "big") * 1000


def _digest(sampler: str, kwargs: dict, seed: int, batch: int) -> str:
    blob = json.dumps({"s": sampler, "k": kwargs, "seed": seed, "b": batch},
                      sort_keys=True, default=str)
    return hashlib.sha1(blob.encode()).hexdigest()[:10]


def _run_batch(sampler: str, kwargs: dict, seed: int, stream_id: int, size: int):
    rng = RngStream(seed, stream_id)
    return SAMPLERS[sampler](rng, size, **kwargs)


def collect_samples(sampler: str, kwargs: dict, seed: int, n_total: int,
                    ctx: RunContext, tag: str | None = None,
                    batch: int = _DEFAULT_BATCH) -> np.ndarray:
    """Draw n_total samples in deterministic batches, optionally in parallel
    and with per-batch checkpoints under the run's output directory."""
    tag = tag or sampler
    base = _stable_base(tag)
    sizes = []
    left = n_total
    while left > 0:
        sizes.append(min(batch, left))
        left -= sizes[-1]
    ckpt = ctx.checkpoint_dir()
    dig = _digest(sampler, kwargs, seed, batch)
    parts: list = [None] * len(sizes)
    missing = []
    for i, size in enumerate(sizes):
        if ckpt is not None:
            path = ckpt / f"{tag}_{dig}_{i:04d}.npy"
            if path.exists():
                parts[i] = np.load(path)
                continue
        missing.append(i)
    if missing:
        if ctx.workers > 1 and len(missing) > 1:
            with ProcessPoolExecutor(max_workers=ctx.workers) as pool:
                futs = {i: pool.submit(_run_batch, sampler, kwargs, seed,
                                       base + i, sizes[i]) for i in missing}
                for i, fut in futs.items():
                    parts[i] = fut.result()
        else:
            for i in missing:
                parts[i] = _run_batch(sampler, kwargs, seed, base + i, sizes[i])
        if ckpt is not None:
            for i in missing:
                np.save(ckpt / f"{tag}_{dig}_{i:04d}.npy", parts[i])
    return np.concatenate(parts, axis=0)


def _resampler(sampler: str, kwargs: dict, n: int, column=None, ref=None,
               ref_kwargs=None, cdf=None):
    """Build a KsSuite retry callback drawing fresh batches from a stream."""

    def rerun(stream: RngStream) -> KsResult:
        arr = SAMPLERS[sampler](stream, n, **kwargs)
        a = arr if column is None else arr[:, column]
        if cdf is not None:
            return ks_one_sample(SampleSet(a, label="retry"), cdf)
        brr = SAMPLERS[ref](stream.substream(1), n, **(ref_kwargs or kwargs))
        b = brr if column is None else brr[:, column]
        return ks_two_sample(SampleSet(a, label="retry-a"),
                             SampleSet(b, label="retry-b"))

    return rerun


def _result(test: str, statistic: float, threshold: float, extra=None) -> dict:
    out = {"test": test, "statistic": float(statistic),
           "threshold": float(threshold),
           "pass": bool(statistic <= threshold)}
    if extra:
        out.update(extra)
    return out


def _emit_grid_csv(ctx: RunContext, name: str, log_z: np.ndarray):
    """grid.csv schema: n, m, log_z over the sampled octant."""
    if not ctx.emit_csv or ctx.out_dir is None:
        return
    import csv

    path = Path(ctx.out_dir) / f"{name}_grid.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "m", "log_z"])
        for i in range(1, log_z.shape[0]):
            for j in range(1, min(i, log_z.shape[1] - 1) + 1):
                w.writerow([i, j, repr(float(log_z[i, j]))])


def _emit_samples_csv(ctx: RunContext, name: str, arrays: dict, seed: int):
    """samples.csv schema: replica, k, value, seed."""
    if not ctx.emit_csv or ctx.out_dir is None:
        return
    import csv

    path = Path(ctx.out_dir) / f"{name}_samples.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replica", "k", "value", "seed"])
        for k, arr in arrays.items():
            arr = np.asarray(arr)
            if arr.ndim == 1:
                for i, val in enumerate(arr):
                    w.writerow([i, k, repr(float(val)), seed])
            else:
                for i in range(arr.shape[0]):
                    for j in range(arr.shape[1]):
                        w.writerow([i, f"{k}[{j}]", repr(float(arr[i, j])), seed])


# ---------------------------------------------------------------------------
# experiments

def exp_burke(params: dict, seeds: list, ctx: RunContext) -> dict:
    alphas = params["alpha_grid"]
    n = int(params["n_samples"])
    seed = seeds[0]
    suite = KsSuite(name="burke")
    for alpha in alphas:
        for u_spec in params["u_spec"]:
            u = 0.5 * alpha if u_spec == "half" else float(u_spec)
            kw = {"alpha": alpha, "u": u}
            arr = collect_samples("burke", kw, seed, n, ctx,
                                  tag=f"burke_a{alpha}_u{u}")
            for col, (label, theta) in enumerate(
                    [("Uprime", alpha + u), ("Vprime", alpha - u),
                     ("wprime", 2.0 * alpha)]):
                cdf = (lambda th: (lambda x: inverse_gamma_cdf(x, th)))(theta)
                res = ks_one_sample(SampleSet(arr[:, col], label=label), cdf)
                suite.add(f"alpha={alpha},u={u}:{label}", res,
                          _resampler("burke", kw, n, column=col, cdf=cdf))
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    return {"results": rep["results"], "pass": rep["pass"], "retried": rep["retried"]}


def _pairwise_m_suite(suite: KsSuite, sampler: str, base_kw: dict, m_list,
                      offsets, n: int, seed: int, ctx: RunContext, tag: str):
    arrs = {}
    for m in m_list:
        kw = dict(base_kw, m=m, offsets=list(offsets))
        arrs[m] = collect_samples(sampler, kw, seed, n, ctx, tag=f"{tag}_m{m}")
    for ci, k in enumerate(offsets):
        for i in range(len(m_list)):
            for j in range(i + 1, len(m_list)):
                m1, m2 = m_list[i], m_list[j]
                res = ks_two_sample(
                    SampleSet(arrs[m1][:, ci], label=f"m={m1},k={k}"),
                    SampleSet(arrs[m2][:, ci], label=f"m={m2},k={k}"))
                suite.add(f"{tag}:k={k}:m{m1}-vs-m{m2}", res,
                          _resampler(sampler, dict(base_kw, m=m1, offsets=list(offsets)),
                                     n, column=ci, ref=sampler,
                                     ref_kwargs=dict(base_kw, m=m2, offsets=list(offsets))))
    return arrs


def exp_one_row(params: dict, seeds: list, ctx: RunContext) -> dict:
    alpha, u = params["alpha"], params["u"]
    n = int(params["n_samples"])
    m_list, offsets = params["m_list"], params["offsets"]
    seed = seeds[0]
    suite = KsSuite(name="one-row-stationarity")
    base = {"alpha": alpha, "u": u}
    arrs = _pairwise_m_suite(suite, "one_row", base, m_list, offsets, n, seed,
                             ctx, "onerow")
    # increment law: the first off-diagonal ratio is inverse-gamma(alpha - u)
    cdf = lambda x: inverse_gamma_cdf(x, alpha - u)
    for m in m_list:
        kw = dict(base, m=m, offsets=[1])
        arr = collect_samples("one_row", kw, seed, n, ctx, tag=f"onerow_inc_m{m}")
        res = ks_one_sample(SampleSet(np.exp(arr[:, 0]), label=f"inc m={m}"), cdf)
        suite.add(f"onerow:increment-ig:m={m}", res,
                  _resampler("one_row", kw, n, column=0, cdf=lambda x, c=cdf: c(np.exp(x))))
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    _emit_samples_csv(ctx, "one_row", {f"m{m}": a for m, a in arrs.items()}, seed)
    return {"results": rep["results"], "pass": rep["pass"], "retried": rep["retried"]}


def exp_two_row(params: dict, seeds: list, ctx: RunContext) -> dict:
    alpha, u, v = params["alpha"], params["u"], params["v"]
    n = int(params["n_samples"])
    m_list, offsets = params["m_list"], params["offsets"]
    seed = seeds[0]
    suite = KsSuite(name="two-row-stationarity")
    base = {"alpha": alpha, "u": u, "v": v}
    arrs = _pairwise_m_suite(suite, "two_row", base, m_list, offsets, n, seed,
                             ctx, "tworow")
    # base row m=2 against the direct z_{u,v} sampler, marginally per offset
    direct_kw = {"alpha": alpha, "u": u, "v": v, "ks": list(offsets)}
    direct = collect_samples("zuv", direct_kw, seed, n, ctx, tag="tworow_direct")
    m0 = m_list[0]
    for ci, k in enumerate(offsets):
        res = ks_two_sample(SampleSet(arrs[m0][:, ci], label=f"lattice k={k}"),
                            SampleSet(direct[:, ci], label=f"direct k={k}"))
        suite.add(f"tworow:k={k}:m{m0}-vs-direct", res,
                  _resampler("two_row", dict(base, m=m0, offsets=list(offsets)),
                             n, column=ci, ref="zuv", ref_kwargs=direct_kw))
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    _emit_samples_csv(ctx, "two_row", {f"m{m_list[0]}": arrs[m_list[0]],
                                       "direct": direct}, seed)
    if ctx.emit_csv and ctx.out_dir is not None:
        gp = lattice.two_row_params(alpha, u, v, 12)
        f = lattice.sample_weight_field(gp, RngStream(seed, 0x971D))
        grid = lattice.partition_recurrence(f, 12, 12)
        _emit_grid_csv(ctx, "two_row", grid.log_z)
    return {"results": rep["results"], "pass": rep["pass"], "retried": rep["retried"]}


def exp_permutation(params: dict, seeds: list, ctx: RunContext) -> dict:
    alphas = list(params["alphas"]) + [params["bulk_alpha"]] * max(params["offsets"])
    octant = lattice.OctantParams(params["alpha_circ"], np.array(alphas, dtype=float))
    octant.validate()
    n = int(params["n_samples"])
    seed = seeds[0]
    suite = KsSuite(name="permutation-symmetry")
    m = int(params["m"])
    for pi, sigma in enumerate(params["perms"]):
        full_sigma = list(sigma) + list(range(m + 1, len(alphas) + 1))
        rng = RngStream(seed, _stable_base(f"perm{pi}"))
        orig, perm = lattice.permutation_symmetry_experiment(
            octant, full_sigma, m, params["offsets"], n, rng)
        for k in params["offsets"]:
            res = ks_two_sample(orig[k], perm[k])

            def rerun(stream, sigma=full_sigma, k=k):
                o2, p2 = lattice.permutation_symmetry_experiment(
                    octant, sigma, m, params["offsets"], n, stream)
                return ks_two_sample(o2[k], p2[k])

            suite.add(f"perm{pi}:k={k}", res, rerun)
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    return {"results": rep["results"], "pass": rep["pass"], "retried": rep["retried"]}


# frozen finite-size tolerance multipliers for the two asymptotic-law checks
# (tail ratio at k = 200, boundary series limit at n = 400); calibrated once
# against the observed statistics and recorded in the build notes
TAIL_TOL_MULT = 1.5
ALIMIT_TOL_MULT = 1.5


def exp_zuv(params: dict, seeds: list, ctx: RunContext) -> dict:
    alpha = params["alpha"]
    n = int(params["n_samples"])
    seed = seeds[0]
    suite = KsSuite(name="zuv-properties")
    # antisymmetric point u = -v: the process is an inverse-gamma walk
    u0 = params["u_walk"]
    walk_kw = {"alpha": alpha, "u": u0, "v": -u0, "ks": [1, 5]}
    ref_kw = {"theta": alpha - u0, "ks": [1, 5]}
    zw = collect_samples("zuv", walk_kw, seed, n, ctx, tag="zuv_walk")
    ig = collect_samples("ig_walk", ref_kw, seed, n, ctx, tag="zuv_walk_ref")
    for ci, k in enumerate([1, 5]):
        res = ks_two_sample(SampleSet(zw[:, ci], label=f"z k={k}"),
                            SampleSet(ig[:, ci], label=f"walk k={k}"))
        suite.add(f"uv-antisymmetric:k={k}", res,
                  _resampler("zuv", walk_kw, n, column=ci, ref="ig_walk",
                             ref_kwargs=ref_kw))
    # sign symmetry in v
    u1, v1 = params["u_sym"], params["v_sym"]
    kw_p = {"alpha": alpha, "u": u1, "v": v1, "ks": [1, 4]}
    kw_m = {"alpha": alpha, "u": u1, "v": -v1, "ks": [1, 4]}
    zp = collect_samples("zuv", kw_p, seed, n, ctx, tag="zuv_vplus")
    zm = collect_samples("zuv", kw_m, seed, n, ctx, tag="zuv_vminus")
    for ci, k in enumerate([1, 4]):
        res = ks_two_sample(SampleSet(zp[:, ci], label=f"+v k={k}"),
                            SampleSet(zm[:, ci], label=f"-v k={k}"))
        suite.add(f"v-sign-symmetry:k={k}", res,
                  _resampler("zuv", kw_p, n, column=ci, ref="zuv", ref_kwargs=kw_m))
    # product decomposition route
    u2, v2 = params["u_pra"], params["v_pra"]
    kw_z = {"alpha": alpha, "u": u2, "v": v2, "ks": [1, 4]}
    zd = collect_samples("zuv", kw_z, seed, n, ctx, tag="zuv_direct")
    zpra = collect_samples("zuv_pra", kw_z, seed, n, ctx, tag="zuv_pra")
    for ci, k in enumerate([1, 4]):
        res = ks_two_sample(SampleSet(zd[:, ci], label=f"direct k={k}"),
                            SampleSet(zpra[:, ci], label=f"pra k={k}"))
        suite.add(f"pra-route:k={k}", res,
                  _resampler("zuv", kw_z, n, column=ci, ref="zuv_pra",
                             ref_kwargs=kw_z))
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    results = rep["results"]
    ok = rep["pass"]
    # tail ratio law at large k, with a documented finite-k tolerance
    k_tail = int(params["k_tail"])
    tail_kw = {"alpha": alpha, "u": u2, "v": v2, "k": k_tail}
    tail = collect_samples("zuv_ratio", tail_kw, seed, n, ctx, tag="zuv_tail")
    theta_tail = alpha - abs(v2)
    res = ks_one_sample(SampleSet(np.exp(tail), label="tail ratio"),
                        lambda x: inverse_gamma_cdf(x, theta_tail))
    thr = TAIL_TOL_MULT * res.threshold
    results.append(_result(f"tail-ratio:k={k_tail}", res.statistic, thr))
    ok = ok and results[-1]["pass"]
    # boundary series limit 1 + G_{u-v}/G_{2v} for positive v
    u3, v3 = params["u_alim"], params["v_alim"]
    n_alim = int(params["n_alim"])
    a_kw = {"alpha": alpha, "u": u3, "v": v3, "k": n_alim}
    av = collect_samples("zuv_a", a_kw, seed, n, ctx, tag="zuv_alim")
    gl = collect_samples("gamma_limit", {"u": u3, "v": v3}, seed, n, ctx,
                         tag="zuv_alim_ref")
    res = ks_two_sample(SampleSet(av, label="a(n)"), SampleSet(gl, label="limit"))
    thr = ALIMIT_TOL_MULT * res.threshold
    results.append(_result(f"a-limit:n={n_alim}", res.statistic, thr))
    ok = ok and results[-1]["pass"]
    return {"results": results, "pass": ok, "retried": rep["retried"]}


def exp_huv(params: dict, seeds: list, ctx: RunContext) -> dict:
    n = int(params["n_samples"])
    delta = float(params["delta"])
    xs = list(params["xs"])
    x_max = max(xs)
    seed = seeds[0]
    suite = KsSuite(name="huv-properties")
    # Brownian marginals at u = -v
    ub = params["u_brownian"]
    bk = {"u": ub, "v": -ub, "delta": delta, "x_max": x_max, "xs": xs,
          "route": "direct"}
    hb = collect_samples("huv", bk, seed, n, ctx, tag="huv_brownian")
    for ci, X in enumerate(xs):
        cdf = (lambda m, s: (lambda x: normal_cdf(x, mean=m, sd=s)))(
            ub * X, math.sqrt(X))
        res = ks_one_sample(SampleSet(hb[:, ci], label=f"H({X})"), cdf)
        suite.add(f"brownian:X={X}", res, _resampler("huv", bk, n, column=ci, cdf=cdf))
    # v sign symmetry
    us, vs = params["u_sym"], params["v_sym"]
    kp = {"u": us, "v": vs, "delta": delta, "x_max": x_max, "xs": xs,
          "route": "direct"}
    km = {"u": us, "v": -vs, "delta": delta, "x_max": x_max, "xs": xs,
          "route": "direct"}
    hp = collect_samples("huv", kp, seed, n, ctx, tag="huv_vplus")
    hm = collect_samples("huv", km, seed, n, ctx, tag="huv_vminus")
    for ci, X in enumerate(xs):
        res = ks_two_sample(SampleSet(hp[:, ci], label=f"+v X={X}"),
                            SampleSet(hm[:, ci], label=f"-v X={X}"))
        suite.add(f"v-sign-symmetry:X={X}", res,
                  _resampler("huv", kp, n, column=ci, ref="huv", ref_kwargs=km))
    # Pitman route agreement
    kpit = dict(km, route="pitman")
    hpit = collect_samples("huv", kpit, seed, n, ctx, tag="huv_pitman")
    for ci, X in enumerate(xs[-2:], start=len(xs) - 2):
        res = ks_two_sample(SampleSet(hm[:, ci], label=f"direct X={X}"),
                            SampleSet(hpit[:, ci], label=f"pitman X={X}"))
        suite.add(f"pitman-route:X={X}", res,
                  _resampler("huv", km, n, column=ci, ref="huv", ref_kwargs=kpit))
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    results = rep["results"]
    ok = rep["pass"]
    # resolution stability: halve delta, KS shift must sit inside MC noise
    X_ref = xs[min(1, len(xs) - 1)]
    half = dict(bk, delta=delta / 2.0, xs=[X_ref])
    hb2 = collect_samples("huv", half, seed, n, ctx, tag="huv_haldelta")
    cdf = lambda x: normal_cdf(x, mean=ub * X_ref, sd=math.sqrt(X_ref))
    d1 = ks_one_sample(SampleSet(hb[:, xs.index(X_ref)], label="d"), cdf).statistic
    d2 = ks_one_sample(SampleSet(hb2[:, 0], label="d/2"), cdf).statistic
    floor = ks_threshold(n)
    results.append(_result(f"delta-halving:X={X_ref}", abs(d1 - d2), floor,
                           extra={"d_at_delta": d1, "d_at_half": d2}))
    ok = ok and results[-1]["pass"]
    return {"results": results, "pass": ok, "retried": rep["retried"]}


# finite-epsilon tolerance (KS distance) for the zero-temperature limit at
# the smallest epsilon on the default grid; calibrated once, documented
EPS_LIMIT_TOL = 0.05


def exp_lpp(params: dict, seeds: list, ctx: RunContext) -> dict:
    n = int(params["n_samples"])
    seed = seeds[0]
    suite = KsSuite(name="lpp-stationarity")
    offsets = params["offsets"]
    kinds = {
        "exp_one": ({"kind": "exp_one", "bulk": params["a"], "p1": params["exp_u"]},
                    params["m_one"]),
        "exp_two": ({"kind": "exp_two", "bulk": params["a"], "p1": params["exp2_u"],
                     "p2": params["exp2_v"]}, params["m_two"]),
        "geom_one": ({"kind": "geom_one", "bulk": params["q"], "p1": params["geom_r"]},
                     params["m_one"]),
        "geom_two": ({"kind": "geom_two", "bulk": params["q"], "p1": params["geom_r"],
                      "p2": params["geom_s"]}, params["m_two"]),
    }
    for name, (base, m_list) in kinds.items():
        _pairwise_m_suite(suite, "lpp_rows", base, m_list, offsets, n, seed,
                          ctx, f"lpp_{name}")
    # exponential increments of the one-row specialization
    a, eu = params["a"], params["exp_u"]
    inc_kw = {"kind": "exp_one", "bulk": a, "p1": eu, "m": 2, "offsets": [1]}
    inc = collect_samples("lpp_rows", inc_kw, seed, n, ctx, tag="lpp_exp_inc")
    cdf = lambda x: exponential_cdf(x, a - eu)
    res = ks_one_sample(SampleSet(inc[:, 0], label="exp_one inc"), cdf)
    suite.add("exp_one:increment-exponential", res,
              _resampler("lpp_rows", inc_kw, n, column=0, cdf=cdf))
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    results = rep["results"]
    ok = rep["pass"]
    # zero-temperature limit: reported KS along the epsilon grid, gated only
    # at the smallest epsilon with the documented finite-epsilon tolerance
    lim = lpp.loggamma_to_exp_limit_check(
        params["lim_a_circ"], params["lim_a_s"], params["lim_eps"],
        RngStream(seed, _stable_base("lpp_limit")),
        n=params["lim_n"], m=params["lim_m"],
        n_replicas=int(params["lim_samples"]))
    eps_min = min(lim["ks"])
    for eps, entry in sorted(lim["ks"].items(), reverse=True):
        gated = eps == eps_min
        thr = EPS_LIMIT_TOL if gated else 1.0
        results.append(_result(f"lpp-limit:eps={eps}", entry["statistic"], thr,
                               extra={"gated": gated}))
        if gated:
            ok = ok and results[-1]["pass"]
    return {"results": results, "pass": ok, "retried": rep["retried"]}


def _random_instance(rng: RngStream, t_span: int, min_height: int = 0):
    """Random boundary and bulk field over [s, s + t_span). The bulk covers
    heights up to max(x, y) + t_span + 1, and at least up to min_height."""
    s = int(rng.gen.integers(0, 3))
    t = s + t_span
    x = int(rng.gen.integers(0, 4))
    y_lo_parity = (s + x + t) % 2
    y = int(2 * rng.gen.integers(0, 3) + y_lo_parity)
    boundary = she.BoundaryWeights(
        values={i: float(np.exp(0.4 * rng.gen.standard_normal()))
                for i in range(s, t)})
    beta = float(rng.gen.uniform(0.05, 0.5))
    cap = max(max(x, y) + t_span + 1, min_height)
    vals = {}
    for r in range(s, t):
        for w in range(1, cap + 1):
            vals[(r, w)] = float(rng.gen.uniform(-np.sqrt(3), np.sqrt(3)))
    bulk = she.BulkWeights(values=vals, beta=beta)
    return boundary, bulk, s, x, t, y


def exp_she(params: dict, seeds: list, ctx: RunContext) -> dict:
    instances = int(params["instances"])
    seed = seeds[0]
    tol = 1e-12
    worst = {"chaos": 0.0, "mild": 0.0, "composition": 0.0, "normalization": 0.0}
    for i in range(instances):
        rng = RngStream(seed, _stable_base("she") + i)
        t_span = int(rng.gen.integers(2, 11))
        boundary, bulk, s, x, t, y = _random_instance(rng, t_span)
        direct = she.modified_partition_direct(boundary, bulk, s, x, t, y)
        chaos = she.modified_partition_chaos(boundary, bulk, s, x, t, y)
        mild = she.modified_partition_mild(boundary, bulk, s, x, t, y)
        scale = max(abs(direct), 1e-290)
        worst["chaos"] = max(worst["chaos"], abs(direct - chaos) / scale)
        worst["mild"] = max(worst["mild"], abs(direct - mild) / scale)
        worst["composition"] = max(
            worst["composition"],
            she.composition_check(boundary, bulk, s, x, t, y) / scale)
        total = sum(she.reflected_kernel(s, x, t, yy)
                    for yy in range(x + t_span + 1))
        worst["normalization"] = max(worst["normalization"], abs(total - 1.0))
    results = [
        _result("direct-vs-chaos", worst["chaos"], tol),
        _result("direct-vs-mild", worst["mild"], tol),
        _result("composition-law", worst["composition"], tol),
        _result("kernel-normalization", worst["normalization"], tol),
    ]
    # exact monotone coupling in the boundary weights on one shared field;
    # the window reads heights up to x_max + (t - s), whatever the
    # instance's own endpoints
    x_max, t_span = 3, 6
    rng = RngStream(seed, _stable_base("she_mono"))
    boundary, bulk, s, x, t, y = _random_instance(rng, t_span, x_max + t_span)
    lo = she.BoundaryWeights({i: 0.5 * v for i, v in boundary.values.items()})
    hi = she.BoundaryWeights({i: 1.5 * v for i, v in boundary.values.items()})
    mono = she.monotone_coupling_check(lo, boundary, hi, bulk,
                                       {"s": s, "t": t, "x_max": x_max})
    results.append(_result("boundary-monotonicity", mono["max_violation"], 0.0,
                           extra={"checked": mono["checked"]}))
    ok = all(r["pass"] for r in results)
    return {"results": results, "pass": ok, "retried": []}


ENVELOPE_C = 4.0


def exp_sheet(params: dict, seeds: list, ctx: RunContext) -> dict:
    n = int(params["n"])
    mus = params["mus"]
    Ts, Xs, Ys = params["Ts"], params["Xs"], params["Ys"]
    results = []
    rows = []
    env_worst = 0.0
    for mu in mus:
        sp = she.ScalingParams(n=n, mu=mu, beta=0.0)
        sup_diff, sup_ref = 0.0, 0.0
        for X in Xs:
            table = she.scaled_sheet_table(sp, 0.0, X, Ts, Ys, "deterministic")
            for a, T in enumerate(Ts):
                for b, Y in enumerate(Ys):
                    got = table[a, b]
                    ref = she.robin_heat_kernel(mu, 0.0, X, T, Y)
                    sup_diff = max(sup_diff, abs(got - ref))
                    sup_ref = max(sup_ref, abs(ref))
                    env = ENVELOPE_C / math.sqrt(T) * math.exp(
                        -(X - Y) ** 2 / (ENVELOPE_C * T))
                    env_worst = max(env_worst, got / env)
                    rows.append((0.0, X, T, Y, got, ref, mu))
        results.append(_result(f"kernel-vs-robin:mu={mu}", sup_diff / sup_ref,
                               float(params["kernel_tol"])))
    results.append(_result("gaussian-envelope", env_worst, 1.0,
                           extra={"C": ENVELOPE_C}))
    for mu in params["robin_check_mus"]:
        propr = she.robin_kernel_property_report(mu)
        results.append(_result(f"robin-pde:mu={mu}", propr["pde_residual"],
                               float(params["pde_tol"])))
        results.append(_result(f"robin-bc:mu={mu}", propr["boundary_residual"],
                               float(params["bc_tol"])))
    results.append(_result("robin-neumann-normalization",
                           she.neumann_normalization_defect(), 1e-8))
    # resolution study: variance of the random sheet across n (reported)
    seed = seeds[0]
    var_study = {}
    for nn in params["var_ns"]:
        reps = int(params["var_replicas"])
        vals = np.empty(reps)
        for i in range(reps):
            rng = RngStream(seed, _stable_base(f"sheet_var{nn}") + i)
            vals[i] = she.scaled_sheet(she.ScalingParams(n=nn, mu=0.0, beta=1.0),
                                       0.0, 0.0, 1.0, 0.0, "deterministic", rng)
        var_study[nn] = float(np.var(vals))
    ok = all(r["pass"] for r in results)
    if ctx.emit_csv and ctx.out_dir is not None:
        import csv

        with open(Path(ctx.out_dir) / "sheet_kernels.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "x", "t", "y", "value"])
            for (S, X, T, Y, got, ref, mu) in rows:
                w.writerow([S, repr(X), repr(T), repr(Y), repr(got)])
    return {"results": results, "pass": ok, "retried": [],
            "variance_study": var_study}


def exp_kpz(params: dict, seeds: list, ctx: RunContext) -> dict:
    n = int(params["n"])
    u, v = params["u"], params["v"]
    Ts = params["Ts"]
    Xs = list(params["Xs"])
    nsamp = int(params["n_samples"])
    seed = seeds[0]
    xs_full = [0.0] + Xs
    suite = KsSuite(name="kpz-scaling")
    ens = {}
    for T in Ts:
        kw = {"n": n, "u": u, "v": v, "T": T, "xs": xs_full}
        arr = collect_samples("scaled_proc", kw, seed, nsamp, ctx,
                              tag=f"kpz_T{T}", batch=20000)
        ens[T] = arr[:, 1:] - arr[:, :1]
    T0 = Ts[0]
    for Tb in Ts[1:]:
        for ci, X in enumerate(Xs):
            res = ks_two_sample(SampleSet(ens[T0][:, ci], label=f"T={T0},X={X}"),
                                SampleSet(ens[Tb][:, ci], label=f"T={Tb},X={X}"))

            def rerun(stream, Ta=T0, Tb_=Tb, ci_=ci):
                kwa = {"n": n, "u": u, "v": v, "T": Ta, "xs": xs_full}
                kwb = {"n": n, "u": u, "v": v, "T": Tb_, "xs": xs_full}
                a = _s_scaled_proc(stream, nsamp, **kwa)
                b = _s_scaled_proc(stream.substream(1), nsamp, **kwb)
                return ks_two_sample(
                    SampleSet(a[:, ci_ + 1] - a[:, 0], label="retry-a"),
                    SampleSet(b[:, ci_ + 1] - b[:, 0], label="retry-b"))

            suite.add(f"T-invariance:X={X}:T{T0}-vs-T{Tb}", res, rerun)
    # direct-route check at T = 0 against the explicit initial-data sampler
    init_kw = {"n": n, "u": u, "v": v, "xs": xs_full}
    init = collect_samples("scaled_init", init_kw, seed, nsamp, ctx,
                           tag="kpz_init", batch=20000)
    init_inc = init[:, 1:] - init[:, :1]
    for ci, X in enumerate(Xs):
        res = ks_two_sample(SampleSet(ens[T0][:, ci], label=f"lattice X={X}"),
                            SampleSet(init_inc[:, ci], label=f"direct X={X}"))

        def rerun(stream, ci_=ci):
            kwa = {"n": n, "u": u, "v": v, "T": T0, "xs": xs_full}
            a = _s_scaled_proc(stream, nsamp, **kwa)
            b = _s_scaled_init(stream.substream(1), nsamp, **init_kw)
            return ks_two_sample(
                SampleSet(a[:, ci_ + 1] - a[:, 0], label="retry-a"),
                SampleSet(b[:, ci_ + 1] - b[:, 0], label="retry-b"))

        suite.add(f"T0-vs-initial-data:X={X}", res, rerun)
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    results = rep["results"]
    ok = rep["pass"]
    # resolution report: distance between levels n and 4n (not gated)
    if params.get("resolution_check", True):
        nsmall = int(params.get("res_samples", 20000))
        X_ref = Xs[0]
        lo = collect_samples("scaled_init", {"n": n // 4, "u": u, "v": v,
                                             "xs": [0.0, X_ref]},
                             seed, nsmall, ctx, tag="kpz_res_lo")
        hi = collect_samples("scaled_init", {"n": n, "u": u, "v": v,
                                             "xs": [0.0, X_ref]},
                             seed, nsmall, ctx, tag="kpz_res_hi")
        d = ks_two_sample(SampleSet(lo[:, 1] - lo[:, 0], label="n/4"),
                          SampleSet(hi[:, 1] - hi[:, 0], label="n")).statistic
        results.append({"test": f"resolution:n{n // 4}-vs-n{n}:X={X_ref}",
                        "statistic": float(d), "threshold": 1.0, "pass": True,
                        "gated": False})
    return {"results": results, "pass": ok, "retried": rep["retried"]}


def exp_matching(params: dict, seeds: list, ctx: RunContext) -> dict:
    alpha, u, v = params["alpha"], params["u"], params["v"]
    n = int(params["n_samples"])
    seed = seeds[0]
    suite = KsSuite(name="matching-identity")
    for (t, y) in params["points"]:
        kw = {"alpha": alpha, "u": u, "v": v, "t": t, "y": y}
        arr = collect_samples("matching", kw, seed, n, ctx,
                              tag=f"match_t{t}y{y}", batch=20000)
        res = ks_two_sample(SampleSet(arr[:, 0], label=f"octant ({t},{y})"),
                            SampleSet(arr[:, 1], label=f"framework ({t},{y})"))

        def rerun(stream, kw=kw):
            a = _s_matching(stream, n, **kw)
            return ks_two_sample(SampleSet(a[:, 0], label="retry-l"),
                                 SampleSet(a[:, 1], label="retry-r"))

        suite.add(f"matching:t={t},y={y}", res, rerun)
    rep = suite.evaluate(RngStream(seed, 0xDEAD))
    return {"results": rep["results"], "pass": rep["pass"], "retried": rep["retried"]}


# frozen bounds on the scaled moment gaps of the matching bulk law; the even
# gaps scale with sqrt(n), the odd ones with n^{1/4}, and the bounds cover
# the pre-asymptotic bump at n = 100 with a 1.3x margin
BULK_GAP_BOUNDS = {1: 1e-12, 2: 0.7, 3: 4.3, 4: 31.0, 5: 71.0, 6: 940.0,
                   7: 1990.0, 8: 41000.0}
BOUNDARY_VAR_BOUND = 1.3


def exp_moments(params: dict, seeds: list, ctx: RunContext) -> dict:
    seed = seeds[0]
    results = []
    # analytic second moment of the scaled initial data vs Monte Carlo
    nsamp = int(params["mc_samples"])
    for (n, u, v, X) in params["second_moment_points"]:
        target = stationary.second_moment_analytic(n, u, v, X)
        kw = {"n": n, "u": u, "v": v, "x": X}
        sq = collect_samples("scaled_sq", kw, seed, nsamp, ctx,
                             tag=f"mom_n{n}_u{u}_v{v}_x{X}", batch=200000)
        cmp = moment_compare(SampleSet(sq, label="sq"), 1, target)
        results.append(_result(
            f"second-moment:n={n},u={u},v={v},X={X}", cmp["statistic"], 3.0,
            extra={"estimate": cmp["estimate"], "target": cmp["target"],
                   "se": cmp["se"]}))
    # exact moment expansions of the matching weight laws across n
    reps = {n: scaling.bulk_weight_matching_moments(n)
            for n in params["moment_ns"]}
    for n, rep in reps.items():
        results.append(_result(f"bulk-mean-zero:n={n}",
                               0.0 if rep["mean_exact_zero"] else 1.0, 0.5))
        results.append(_result(
            f"bulk-var-formula:n={n}",
            0.0 if rep["var_matches_formula"] else 1.0, 0.5,
            extra={"var": rep["var"]}))
        for order, entry in rep["moments"].items():
            bound = BULK_GAP_BOUNDS[order]
            results.append(_result(
                f"bulk-moment-gap:n={n},order={order}", entry["gap_scaled"],
                bound, extra={"value": entry["value"], "limit": entry["limit"]}))
    # the scaled gap must not grow along the n grid: direct evidence that
    # the even/odd rate exponents are not underestimated
    ns = sorted(reps)
    for order in reps[ns[0]]["moments"]:
        seq = [reps[n]["moments"][order]["gap_scaled"] for n in ns]
        growth = max((seq[i + 1] - seq[i] for i in range(len(seq) - 1)),
                     default=0.0)
        results.append(_result(f"bulk-gap-rate-monotone:order={order}",
                               growth, 1e-9, extra={"scaled_gaps": seq}))
    for n in params["moment_ns"]:
        brep = scaling.boundary_weight_matching_moments(n, params["boundary_u"])
        results.append(_result(
            f"boundary-drift:n={n}", brep["drift_gap"],
            brep["drift_gap_bound"] * (1.0 + 1e-9),
            extra={"mean": brep["mean"]}))
        results.append(_result(
            f"boundary-var-decay:n={n}", brep["var_times_sqrt_n"],
            BOUNDARY_VAR_BOUND, extra={"var": brep["var"]}))
    # Monte Carlo eighth moment against the exact finite-n value; at n = 1e4
    # the exact value still sits far above the Gaussian limit 105 = 7!!
    # (the order-8 drift constant is large), so the limit itself is only
    # reported while the rate gates above pin the convergence
    n8 = int(params["mc8_n"])
    draws = int(params["mc8_draws"])
    est = scaling.bulk_weight_mc_moment(n8, 8, draws,
                                        RngStream(seed, _stable_base("mom8")))
    exact8 = float(reps[n8]["moments"][8]["value"]) if n8 in reps else \
        float(scaling.bulk_weight_matching_moments(n8)["moments"][8]["value"])
    results.append(_result(f"bulk-8th-moment-mc:n={n8}",
                           abs(est - exact8) / exact8, 0.05,
                           extra={"estimate": est, "exact": exact8,
                                  "gaussian_limit": 105.0,
                                  "drift_to_limit": abs(est - 105.0) / 105.0}))
    ok = all(r["pass"] for r in results)
    return {"results": results, "pass": ok, "retried": []}


# ---------------------------------------------------------------------------
# catalog

@dataclass
class Experiment:
    name: str
    verifies: str
    func: object
    defaults: dict = field(default_factory=dict)


EXPERIMENTS = {
    e.name: e for e in [
        Experiment(
            "burke",
            "fixed point of the local partition update: the updated triple "
            "keeps its inverse-gamma marginals",
            exp_burke,
            {"alpha_grid": [0.8, 1.5, 3.0], "u_spec": [-0.3, 0.0, "half"],
             "n_samples": 100000}),
        Experiment(
            "one-row-stationarity",
            "one-row stationary grid: increment laws do not depend on the "
            "base diagonal point; ratios are inverse-gamma",
            exp_one_row,
            {"alpha": 1.5, "u": 0.3, "m_list": [1, 2, 4], "offsets": [1, 3, 6],
             "n_samples": 50000}),
        Experiment(
            "two-row-stationarity",
            "two-row stationary grid: ratio-process law independent of the "
            "base point from m = 2 on, and equal to the direct boundary "
            "process",
            exp_two_row,
            {"alpha": 1.5, "u": 0.6, "v": -0.4, "m_list": [2, 3, 5],
             "offsets": [1, 3, 6], "n_samples": 50000}),
        Experiment(
            "permutation-symmetry",
            "row partition vector is invariant under permutations of the "
            "first m row parameters",
            exp_permutation,
            {"alphas": [0.9, 1.6, 2.2], "alpha_circ": 0.4, "bulk_alpha": 1.5,
             "m": 3, "offsets": [0, 1, 2], "perms": [[3, 2, 1], [2, 3, 1]],
             "n_samples": 50000}),
        Experiment(
            "zuv-properties",
            "boundary process special cases: inverse-gamma walk at u = -v, "
            "sign symmetry in v, product decomposition, tail ratio law, "
            "gamma-ratio series limit",
            exp_zuv,
            {"alpha": 1.5, "u_walk": 0.5, "u_sym": 0.5, "v_sym": 0.4,
             "u_pra": 0.5, "v_pra": -0.4, "k_tail": 200, "u_alim": 1.0,
             "v_alim": 0.5, "n_alim": 400, "n_samples": 50000}),
        Experiment(
            "huv-properties",
            "continuum boundary process: Brownian marginals at u = -v, sign "
            "symmetry in v, Pitman-transform route, grid-resolution "
            "stability",
            exp_huv,
            {"u_brownian": 0.5, "u_sym": 1.0, "v_sym": 0.5,
             "xs": [0.5, 1.0, 2.0], "delta": 2.0 ** -10, "n_samples": 50000}),
        Experiment(
            "lpp-stationarity",
            "four stationary last-passage specializations: increment laws "
            "independent of the base point; exponential increments; "
            "zero-temperature limit of the polymer",
            exp_lpp,
            {"a": 1.5, "exp_u": 0.4, "exp2_u": 0.7, "exp2_v": -0.3,
             "q": 0.5, "geom_r": 0.8, "geom_s": 0.9,
             "m_one": [1, 2, 4], "m_two": [2, 3, 5], "offsets": [1, 3, 6],
             "lim_a_circ": 0.5, "lim_a_s": [1.0, 1.0, 1.0, 1.0],
             "lim_eps": [0.1, 0.03, 0.01], "lim_n": 4, "lim_m": 3,
             "lim_samples": 30000, "n_samples": 50000}),
        Experiment(
            "she-identities",
            "reflected-walk partition functions: direct, chaos-series, and "
            "mild evaluations agree exactly; composition law; kernel "
            "normalization; boundary monotonicity",
            exp_she,
            {"instances": 100}),
        Experiment(
            "sheet-convergence",
            "noiseless scaled sheet approaches the Robin heat kernel; "
            "Gaussian envelope; Robin kernel property certification",
            exp_sheet,
            {"n": 2 ** 14, "mus": [-0.5, 0.0, 1.0],
             "Ts": [0.25, 0.5, 1.0], "Xs": [0.0, 0.25, 0.5, 1.0],
             "Ys": [0.0, 0.25, 0.5, 1.0], "kernel_tol": 0.02,
             "robin_check_mus": [-1.0, 0.0, 2.0], "pde_tol": 1e-4,
             "bc_tol": 1e-4, "var_ns": [2 ** 8, 2 ** 10],
             "var_replicas": 100}),
        Experiment(
            "kpz-scaling",
            "scaled height increments have the same law at every admissible "
            "time, and at time zero match the explicit initial-data sampler",
            exp_kpz,
            {"n": 256, "u": 0.5, "v": -0.5, "Ts": [0.0, 0.5],
             "Xs": [0.25, 0.5, 1.0], "n_samples": 30000,
             "resolution_check": True, "res_samples": 20000}),
        Experiment(
            "matching-identity",
            "normalized octant partition equals the reflected-walk partition "
            "with boundary-process initial data, in law",
            exp_matching,
            {"alpha": 2.0, "u": 1.0, "v": -0.5, "points": [[1, 0], [3, 2]],
             "n_samples": 50000}),
        Experiment(
            "moments",
            "closed-form second moment of the scaled initial data vs Monte "
            "Carlo; exact moment expansions of the matching weight laws",
            exp_moments,
            {"second_moment_points": [[1024, 1.0, -0.5, 0.5],
                                      [1024, 0.5, 0.5, 0.5],
                                      [4096, 1.0, -0.25, 0.25],
                                      [1024, 2.0, 0.0, 0.5],
                                      [256, 1.5, -1.0, 0.5]],
             "mc_samples": 400000, "moment_ns": [100, 10000, 1000000],
             "boundary_u": 1.0, "mc8_n": 10000, "mc8_draws": 2000000}),
    ]
}


def run_experiment(name: str, params: dict, seeds: list, ctx: RunContext) -> dict:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    if len(seeds) != 1:
        raise ValueError(f"an experiment runs at exactly one seed, got {len(seeds)}")
    exp = EXPERIMENTS[name]
    merged = dict(exp.defaults)
    for k, v in (params or {}).items():
        if k not in merged:
            raise ValueError(f"unknown parameter {k!r} for experiment {name}")
        merged[k] = v
    report = exp.func(merged, seeds, ctx)
    return {
        "experiment": name,
        "verifies": exp.verifies,
        "params": merged,
        "seeds": list(seeds),
        "results": report["results"],
        "pass": report["pass"],
        "retried": report.get("retried", []),
        **{k: v for k, v in report.items()
           if k not in {"results", "pass", "retried"}},
    }
