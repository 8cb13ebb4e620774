"""Experiment catalog: named, seeded suites behind the command line runner.

Each experiment draws its Monte Carlo samples through a registry of
named sampler functions so batches can be checkpointed and drawn ahead on
one thread pool per suite; batch i of a sampler always uses the stream
(seed, base + i), which makes reruns reproducible regardless of thread
scheduling. Aggregation, checkpoint writes and KS evaluation happen on the
calling thread.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import lattice, lpp, scaling, she, stationary
from .distributions import (exponential_cdf, inverse_gamma_cdf, normal_cdf,
                            sample_gamma, sample_inverse_gamma)
from .rng import RngStream
from .stats import KsResult, KsSuite, SampleSet, ks_one_sample, ks_result, \
    ks_threshold, ks_two_sample, moment_compare

# ---------------------------------------------------------------------------
# sampler registry; its names key the checkpoints

def _s_burke(rng, n, alpha, u):
    U = sample_inverse_gamma(alpha + u, rng, size=n)
    V = sample_inverse_gamma(alpha - u, rng, size=n)
    w = sample_inverse_gamma(2.0 * alpha, rng, size=n)
    U2, V2, w2 = lattice.burke_step(U, V, w)
    return np.stack([U2, V2, w2], axis=1)


def _s_one_row(rng, n, alpha, u, m, offsets):
    return lattice.stationary_increments(
        lambda size: lattice.one_row_params(alpha, u, size), 1, m, offsets, n, rng)


def _s_two_row(rng, n, alpha, u, v, m, offsets):
    return lattice.stationary_increments(
        lambda size: lattice.two_row_params(alpha, u, v, size), 2, m, offsets, n,
        rng)


def _s_zuv(rng, n, alpha, u, v, ks):
    p = stationary.DiscreteStationaryParams(alpha=alpha, u=u, v=v)
    return stationary.sample_zuv_path(p, max(ks, default=0), rng, n_replicas=n,
                                      k_record=ks)


def _s_zuv_pra(rng, n, alpha, u, v, ks):
    p = stationary.DiscreteStationaryParams(alpha=alpha, u=u, v=v)
    return stationary.sample_zuv_pra(p, max(ks, default=0), rng, n_replicas=n,
                                     k_record=ks).log_z


def _s_zuv_a(rng, n, alpha, u, v, k):
    p = stationary.DiscreteStationaryParams(alpha=alpha, u=u, v=v)
    return np.exp(stationary.sample_zuv_pra(p, k, rng, n_replicas=n,
                                            k_record=[k]).log_a[:, 0])


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


def _s_scaled_proc(rng, n_samp, n, u, v, T, xs):
    return scaling.scaled_stationary_process(n, u, v, T, xs, rng, n_replicas=n_samp)


def _s_lpp_rows(rng, n, kind, bulk, p1, m, offsets, p2=None):
    return lpp.stationary_row_samples_lpp(kind, bulk, p1, m, offsets, n, rng,
                                          p2=p2)


def _s_lpp_limit(rng, size, **kw):
    return lpp.zero_temperature_samples(rng=rng, n_replicas=size, **kw)


def _s_matching(rng, n, alpha, u, v, t, y):
    return scaling.matching_identity_check(alpha, u, v, t, y, n, rng)


def _s_perm(rng, n, alpha_circ, alphas, sigma, m, offsets):
    """[original columns | permuted columns], one column per offset."""
    octant = lattice.OctantParams(alpha_circ, alphas)
    return np.concatenate(lattice.permutation_symmetry_experiment(
        octant, sigma, m, offsets, n, rng), axis=1)


SAMPLERS = {
    "burke": _s_burke,
    "one_row": _s_one_row,
    "two_row": _s_two_row,
    "zuv": _s_zuv,
    "zuv_pra": _s_zuv_pra,
    "zuv_a": _s_zuv_a,
    "gamma_limit": _s_gamma_limit,
    "huv": _s_huv,
    "scaled_init": _s_scaled_init,
    "scaled_proc": _s_scaled_proc,
    "lpp_rows": _s_lpp_rows,
    "lpp_limit": _s_lpp_limit,
    "matching": _s_matching,
    "perm": _s_perm,
}

_DEFAULT_BATCH = 50_000


@dataclass
class RunContext:
    """Where a run writes and how many threads draw its batches."""
    out_dir: Path | None = None
    workers: int = 1
    emit_csv: bool = False

    def __post_init__(self):
        if (isinstance(self.workers, bool) or not isinstance(self.workers, int)
                or self.workers < 1):
            raise ValueError(f"workers must be an int of at least 1, "
                             f"got {self.workers!r}")

    def checkpoint_dir(self) -> Path | None:
        if self.out_dir is None:
            return None
        d = Path(self.out_dir) / "checkpoints"
        d.mkdir(parents=True, exist_ok=True)
        return d


# stream ids per tag; batch i of a tag draws from stream _stable_base(tag) + i
_STREAMS_PER_TAG = 1000


def _stable_base(tag: str) -> int:
    h = hashlib.sha1(tag.encode()).digest()
    return int.from_bytes(h[:4], "big") * _STREAMS_PER_TAG


@functools.lru_cache(maxsize=None)
def _code_hash() -> str:
    """SHA-1 of the package's module sources, read once per process."""
    h = hashlib.sha1()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest(sampler: str, kwargs: dict, seed: int, batch: int) -> str:
    """Checkpoint key: the draw's inputs and the code (the package version
    among it), so a checkpoint written by other code is never read back."""
    blob = json.dumps({"s": sampler, "k": kwargs, "seed": seed, "b": batch,
                       "code": _code_hash()},
                      sort_keys=True, default=str)
    return hashlib.sha1(blob.encode()).hexdigest()[:10]


def _load(path: Path, check, mmap_mode=None) -> np.ndarray | None:
    """The array saved at path if it loads and check(array) holds, else None:
    a file that is absent, unreadable (e.g. truncated) or not what its
    writer stored is rebuilt by the caller. With mmap_mode="r" only the
    header is read, and a file shorter than its header says is refused."""
    try:
        arr = np.load(path, mmap_mode=mmap_mode)
    except (OSError, ValueError, EOFError):
        return None
    return arr if check(arr) else None


def _run_batch(sampler: str, kwargs: dict, seed: int, stream_id: int, size: int):
    rng = RngStream(seed, stream_id)
    return SAMPLERS[sampler](rng, size, **kwargs)


class _Batch(NamedTuple):
    """Batch i of a draw: its rows, its checkpoint (None without an output
    directory) and the arguments of _run_batch that draw it."""

    i: int
    size: int
    path: Path | None
    args: tuple

    def load(self, mmap_mode=None) -> np.ndarray | None:
        # the digest omits n_total, so the tail batch of another n_total has
        # this name; its rows tell it apart
        if self.path is None:
            return None
        return _load(self.path, lambda a: a.shape[:1] == (self.size,), mmap_mode)


def _batches(sampler: str, kwargs: dict, seed: int, n_total: int,
             ckpt: Path | None, tag: str, batch: int) -> list:
    """The batches of a draw: batch i draws stream _stable_base(tag) + i."""
    n_batches = -(-n_total // batch)
    if n_batches < 1:
        raise ValueError(f"draw {tag!r} needs at least one sample, got {n_total}")
    if n_batches > _STREAMS_PER_TAG:
        raise ValueError(f"{n_batches} batches of {batch} exceed the "
                         f"{_STREAMS_PER_TAG} streams of tag {tag!r}")
    base, dig = _stable_base(tag), _digest(sampler, kwargs, seed, batch)
    out = []
    for i in range(n_batches):
        size = min(batch, n_total - i * batch)
        path = None if ckpt is None else ckpt / f"{tag}_{dig}_{i:04d}.npy"
        out.append(_Batch(i, size, path, (sampler, kwargs, seed, base + i, size)))
    return out


# a suite's pool holds at most this many batches per worker beyond the draw
# being read: enough to keep every worker drawing through that draw's KS
# tests, while the landed batches it holds stay a few batches of memory
_LOOKAHEAD_PER_WORKER = 2


class _BatchPool:
    """The worker threads of one suite, drawing its planned batches ahead.

    The plan maps each declared draw's tag, in the order the gates read
    them, to its missing batches. Reading a draw submits its batches, then
    planned batches of the draws after it until at most
    _LOOKAHEAD_PER_WORKER * workers of theirs are in the pool; so the
    threads draw the next draws while the caller tests the ones that have
    landed. The threads only draw: the calling thread checkpoints each
    batch when its draw is read, and close() saves those that landed but
    were never read. The executor starts at the first submit, and the first
    batch that raises cancels every queued one."""

    def __init__(self, workers: int, plan: dict):
        self.workers = workers
        self.plan = plan  # tag -> [_Batch], not yet submitted
        self.drawn = {}  # Future -> (tag, _Batch), submitted and not yet saved
        self.error = None
        self._lock = threading.Lock()  # guards drawn and error
        self._executor = None

    def _draw(self, args: tuple):
        try:
            return _run_batch(*args)
        except BaseException as exc:
            # before this thread takes its next batch, no queued one may start
            with self._lock:
                if self.error is None:
                    self.error = exc
                for fut in self.drawn:
                    fut.cancel()
            raise

    def submit(self, tag: str, batches) -> dict:
        """Submit batches of the draw tag; {batch index: future}. Once a
        batch has raised, nothing more is submitted."""
        futs = {}
        with self._lock:
            for b in batches:
                if self.error is not None:
                    break
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(max_workers=self.workers)
                fut = self._executor.submit(self._draw, b.args)
                self.drawn[fut] = (tag, b)
                futs[b.i] = fut
        return futs

    def take(self, tag: str) -> dict:
        """{batch index: future} of every submitted batch of the draw tag,
        after topping up the look-ahead beyond it."""
        self.submit(tag, self.plan.pop(tag, []))
        room = _LOOKAHEAD_PER_WORKER * self.workers - sum(
            t != tag for t, _ in self.drawn.values())
        while room > 0 and self.plan:
            later = next(iter(self.plan))
            self.submit(later, [self.plan[later].pop(0)])
            if not self.plan[later]:
                del self.plan[later]
            room -= 1
        return {b.i: fut for fut, (t, b) in self.drawn.items() if t == tag}

    def land(self, futs: dict, put):
        """put(batch, part) on the calling thread for each future of futs,
        {batch index: future}, as it lands, dropping it from futs so that
        no part outlives its copy; then raise the first error of any batch
        of the suite."""
        for fut in as_completed(list(futs.values())):
            _, b = self.drawn[fut]
            del futs[b.i]
            if not fut.cancelled() and fut.exception() is None:
                put(b, fut.result())
            with self._lock:
                del self.drawn[fut]
        if self.error is not None:
            raise self.error

    def close(self):
        """Start no queued batch, join the threads, and checkpoint every
        batch that landed and was never read."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        for fut, (_, b) in self.drawn.items():
            if b.path is not None and not fut.cancelled() and fut.exception() is None:
                _save_atomic(b.path, fut.result())
        self.drawn.clear()


@contextlib.contextmanager
def _suite_pool(draws, seed: int, ctx: RunContext):
    """The pool a suite's draws share, closed on exit: None with one worker
    or no draw, else a _BatchPool planned with the missing batches of draws,
    in their order. Each checkpoint is checked once, from its header."""
    if ctx.workers == 1 or not draws:
        yield None
        return
    ckpt = ctx.checkpoint_dir()
    plan = {}
    for d in draws:
        missing = [b for b in _batches(d.sampler, d.kwargs, seed, d.n, ckpt, d.tag,
                                       d.batch) if b.load(mmap_mode="r") is None]
        if missing:
            plan[d.tag] = missing
    pool = _BatchPool(ctx.workers, plan)
    try:
        yield pool
    finally:
        pool.close()


def collect_samples(sampler: str, kwargs: dict, seed: int, n_total: int,
                    ctx: RunContext, tag: str | None = None,
                    batch: int = _DEFAULT_BATCH, *,
                    pool: _BatchPool | None = None) -> np.ndarray:
    """Draw n_total samples in deterministic batches, with per-batch
    checkpoints under the run's output directory; the one call that returns
    a draw and writes its checkpoints. Without a pool every missing batch
    is drawn on the calling thread. With the suite's pool (_suite_pool),
    the batches its plan found missing were submitted ahead, every other
    batch is read from its checkpoint or submitted now, and the call waits
    for this draw's batches alone. Either way the calling thread
    checkpoints each batch it receives and copies it into one preallocated
    array, so a batch that raises loses only itself and the batches not
    yet drawn."""
    tag = tag or sampler
    out = None

    def put(b: _Batch, part: np.ndarray, save: bool = True):
        nonlocal out
        if save and b.path is not None:
            _save_atomic(b.path, part)
        if out is None:
            out = np.empty((n_total, *part.shape[1:]), part.dtype)
        out[b.i * batch:b.i * batch + b.size] = part

    drawn = pool.take(tag) if pool is not None else {}
    missing = []
    for b in _batches(sampler, kwargs, seed, n_total, ctx.checkpoint_dir(), tag,
                      batch):
        if b.i in drawn:
            continue
        part = b.load()
        if part is not None:
            put(b, part, save=False)
        elif pool is not None:
            missing.append(b)
        else:
            put(b, _run_batch(*b.args))
    if pool is not None:
        drawn.update(pool.submit(tag, missing))
        pool.land(drawn, put)
    return out


def _save_atomic(path: Path, arr: np.ndarray):
    """Write arr to a temp file beside path, then rename it into place, so
    an interrupted write never leaves a partial checkpoint under path."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, arr)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# declared checks
#
# An experiment's report is one list of gates, which _evaluate walks in
# order. A KS side is (draw, column): the column is an index, None for a 1-D
# draw, or a function of the drawn array; b is a second side or a CDF.
#   (label, a, b): a KS check retried under the KsSuite rule; only these
#     enter the suite;
#   (label, a, b, threshold[, extra]): an unretried KS check, gated at a
#     number or at a function of its own KS threshold;
#   a function f(first, ks) returning a result: first maps the label of each
#     earlier KS gate to its first-pass result, and ks(a, b) runs a test;
#   a dict: a value gate, a result the experiment computed.
# _ks runs every KS test and keeps each statistic beside the checkpoints.

class _Draw(NamedTuple):
    """n samples of SAMPLERS[sampler](**kwargs), on the streams of tag."""

    sampler: str
    kwargs: dict
    tag: str
    n: int
    batch: int = _DEFAULT_BATCH


def _collect(d: _Draw, seed: int, ctx: RunContext, pool=None) -> np.ndarray:
    return collect_samples(d.sampler, d.kwargs, seed, d.n, ctx, tag=d.tag,
                           batch=d.batch, pool=pool)


def _side(draw, side) -> SampleSet:
    d, column = side
    arr = draw(d)
    if callable(column):
        arr = column(arr)
    elif column is not None:
        arr = arr[:, column]
    return SampleSet(arr, label=d.tag)


def _reference(cdf) -> str:
    """What names a one-sample reference in a statistic's key: the module,
    name and keywords of a keyword-only functools.partial of a module-level
    function. Anything else raises TypeError, since no key could name its
    behaviour."""
    func = getattr(cdf, "func", None)
    module = getattr(func, "__module__", None)
    name = getattr(func, "__qualname__", None)
    if not (isinstance(cdf, functools.partial) and not cdf.args and module
            and name and getattr(sys.modules.get(module), name, None) is func):
        raise TypeError(f"a KS reference must be a keyword-only "
                        f"functools.partial of a module-level function, "
                        f"got {cdf!r}")
    return "\0".join([module, name, json.dumps(cdf.keywords, sort_keys=True)])


def _ks_key(sides: list, reference: str) -> str:
    """Statistic key: each side's size and values buffer (hashed in place),
    the one-sample reference and the code."""
    h = hashlib.sha1(b"%d" % len(sides))
    for s in sides:
        h.update(b"\0%d\0" % s.values.size)
        h.update(s.values)
    h.update(reference.encode())
    h.update(_code_hash().encode())
    return h.hexdigest()


def _ks(draw, a, b, ckpt: Path | None) -> KsResult:
    """KS test of side a against side b, or against the CDF b. Under a
    checkpoint directory the statistic D is written to ks_<key>.npy once the
    test has returned, and a rerun over the same samples, reference and code
    rebuilds the result from it; a file that is absent, unreadable or holds
    no distance in [0, 1] is recomputed and rewritten."""
    sides = [_side(draw, a)]
    if isinstance(b, tuple):
        sides.append(_side(draw, b))
        reference = ""
    else:
        reference = _reference(b)
    if ckpt is not None:
        path = ckpt / f"ks_{_ks_key(sides, reference)}.npy"
        d = _load(path, lambda a: a.shape == () and a.dtype == np.float64
                  and 0.0 <= a <= 1.0)
        if d is not None:
            return ks_result(float(d), tuple(len(s) for s in sides))
    res = ks_two_sample(*sides) if len(sides) == 2 else ks_one_sample(sides[0], b)
    if ckpt is not None:
        _save_atomic(path, np.array(res.statistic))
    return res


def _retry(a, b, stream: RngStream, *, ckpt: Path | None) -> KsResult:
    """The check on fresh samples: its first draw comes from stream, a
    second, distinct draw from stream.substream(1); a draw shared by both
    sides is drawn once."""
    def fresh(d, s):
        return {d.tag: SAMPLERS[d.sampler](s, d.n, **d.kwargs)}

    arrays = fresh(a[0], stream)
    if isinstance(b, tuple) and b[0].tag not in arrays:
        arrays.update(fresh(b[0], stream.substream(1)))
    return _ks(lambda d: arrays[d.tag], a, b, ckpt)


def _evaluate(name: str, gates: list, seed: int, ctx: RunContext) -> dict:
    """The report fields of an experiment's gates: their results in
    declaration order, the verdict and the suite's retries. Each draw is
    collected once and released after the last gate that reads it; only
    the gated results count toward the verdict. With more than one worker
    the suite's pool draws the batches of the KS gates' draws in gate
    order, ahead of the gate that reads them; a draw that only a function
    gate reads is drawn on the same pool when that gate asks for it."""
    # a run of value gates alone makes no checkpoint directory
    ckpt = None if all(isinstance(g, dict) for g in gates) else ctx.checkpoint_dir()
    # the draws of the KS gates in the order they are read, and the index of
    # the last gate reading each
    declared, last = {}, {}
    for i, g in enumerate(gates):
        if isinstance(g, tuple):
            for side in g[1:3]:
                if isinstance(side, tuple):
                    declared.setdefault(side[0].tag, side[0])
                    last[side[0].tag] = i
    suite = KsSuite(name=name)
    first, results = {}, []
    with _suite_pool(list(declared.values()), seed, ctx) as pool:
        arrays = {}

        def draw(d: _Draw) -> np.ndarray:
            if d.tag not in arrays:
                arrays[d.tag] = _collect(d, seed, ctx, pool)
            return arrays[d.tag]

        for i, gate in enumerate(gates):
            if isinstance(gate, dict):
                results.append(gate)
            elif callable(gate):
                results.append(gate(first, functools.partial(_ks, draw, ckpt=ckpt)))
            else:
                label, a, b, *unretried = gate
                res = first[label] = _ks(draw, a, b, ckpt)
                if unretried:
                    threshold, *extra = unretried
                    if callable(threshold):
                        threshold = threshold(res.threshold)
                    results.append(_result(label, res.statistic, threshold, *extra))
                else:
                    # the suite's result, possibly retried, takes this place
                    results.append(len(suite.checks))
                    suite.add(label, res, functools.partial(_retry, a, b, ckpt=ckpt))
            for tag in [t for t in arrays if last.get(t, i) <= i]:
                del arrays[tag]
    rep = suite.evaluate(RngStream(seed, 0xDEAD) if suite.checks else None)
    results = [rep["results"][r] if isinstance(r, int) else r for r in results]
    ok = rep["pass"] and all(r["pass"] for r in results if r.get("gated", True))
    return {"results": results, "pass": ok, "retried": rep["retried"]}


def _result(test: str, statistic: float, threshold: float, extra=None) -> dict:
    return {"test": test, "statistic": float(statistic),
            "threshold": float(threshold), "pass": bool(statistic <= threshold),
            **(extra or {})}


def _write_csv(ctx: RunContext, filename: str, header: list, rows):
    """Write header and rows under the output directory when CSV dumps are
    on; rows may be a generator, which is then never consumed."""
    if not ctx.emit_csv or ctx.out_dir is None:
        return
    import csv

    with open(Path(ctx.out_dir) / filename, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _emit_samples_csv(ctx: RunContext, name: str, draws: dict, seed: int):
    """samples.csv schema: replica, k, value, seed; one k per column. Each
    draw is read back from the checkpoints, and only if the CSV is written."""
    _write_csv(ctx, f"{name}_samples.csv", ["replica", "k", "value", "seed"],
               ([i, f"{k}[{j}]", repr(float(val)), seed]
                for k, d in draws.items()
                for (i, j), val in np.ndenumerate(_collect(d, seed, ctx))))


# ---------------------------------------------------------------------------
# experiments

def exp_burke(params: dict, seed: int, ctx: RunContext) -> dict:
    n = int(params["n_samples"])
    checks = []
    for alpha in params["alpha_grid"]:
        for u_spec in params["u_spec"]:
            u = 0.5 * alpha if u_spec == "half" else float(u_spec)
            d = _Draw("burke", {"alpha": alpha, "u": u}, f"burke_a{alpha}_u{u}", n)
            for col, (label, theta) in enumerate(
                    [("Uprime", alpha + u), ("Vprime", alpha - u),
                     ("wprime", 2.0 * alpha)]):
                checks.append((f"alpha={alpha},u={u}:{label}", (d, col),
                               functools.partial(inverse_gamma_cdf, theta=theta)))
    return _evaluate("burke", checks, seed, ctx)


def _pairwise_m(sampler: str, base_kw: dict, params: dict, m_key: str, n: int,
                tag: str):
    """One draw per base point m in params[m_key], and a check per offset
    and pair of m."""
    m_list, offsets = params[m_key], params["offsets"]
    if len(m_list) < 2:
        raise ValueError(f"{tag}: parameter {m_key!r} needs at least two base "
                         f"points m, got {m_list}")
    draws = {m: _Draw(sampler, dict(base_kw, m=m, offsets=list(offsets)),
                      f"{tag}_m{m}", n) for m in m_list}
    checks = [(f"{tag}:k={k}:m{m1}-vs-m{m2}", (draws[m1], ci), (draws[m2], ci))
              for ci, k in enumerate(offsets)
              for m1, m2 in itertools.combinations(m_list, 2)]
    return draws, checks


def exp_one_row(params: dict, seed: int, ctx: RunContext) -> dict:
    alpha, u = params["alpha"], params["u"]
    n = int(params["n_samples"])
    base = {"alpha": alpha, "u": u}
    draws, checks = _pairwise_m("one_row", base, params, "m_list", n, "onerow")
    # increment law: the first off-diagonal ratio is inverse-gamma(alpha - u)
    cdf = functools.partial(inverse_gamma_cdf, theta=alpha - u)
    for m in params["m_list"]:
        inc = _Draw("one_row", dict(base, m=m, offsets=[1]), f"onerow_inc_m{m}", n)
        checks.append((f"onerow:increment-ig:m={m}",
                       (inc, lambda a: np.exp(a[:, 0])), cdf))
    rep = _evaluate("one-row-stationarity", checks, seed, ctx)
    _emit_samples_csv(ctx, "one_row", {f"m{m}": d for m, d in draws.items()}, seed)
    return rep


def exp_two_row(params: dict, seed: int, ctx: RunContext) -> dict:
    alpha, u, v = params["alpha"], params["u"], params["v"]
    n = int(params["n_samples"])
    offsets = params["offsets"]
    draws, checks = _pairwise_m("two_row", {"alpha": alpha, "u": u, "v": v},
                                params, "m_list", n, "tworow")
    # base row m=2 against the direct z_{u,v} sampler, marginally per offset
    direct = _Draw("zuv", {"alpha": alpha, "u": u, "v": v, "ks": list(offsets)},
                   "tworow_direct", n)
    m0 = params["m_list"][0]
    checks += [(f"tworow:k={k}:m{m0}-vs-direct", (draws[m0], ci), (direct, ci))
               for ci, k in enumerate(offsets)]
    rep = _evaluate("two-row-stationarity", checks, seed, ctx)
    _emit_samples_csv(ctx, "two_row", {f"m{m0}": draws[m0], "direct": direct}, seed)
    if ctx.emit_csv and ctx.out_dir is not None:
        size = 12
        gp = lattice.two_row_params(alpha, u, v, size)
        f = lattice.sample_weight_field(gp, RngStream(seed, 0x971D))
        log_z = lattice.partition_recurrence(f, size, size).log_z
        # grid.csv schema: n, m, log_z over the sampled octant
        _write_csv(ctx, "two_row_grid.csv", ["n", "m", "log_z"],
                   ([i, j, repr(float(log_z[i, j]))] for i in range(1, size + 1)
                    for j in range(1, i + 1)))
    return rep


def exp_permutation(params: dict, seed: int, ctx: RunContext) -> dict:
    alphas = list(params["alphas"]) + [params["bulk_alpha"]] * max(params["offsets"])
    n, m, offsets = int(params["n_samples"]), int(params["m"]), params["offsets"]
    checks = []
    for pi, sigma in enumerate(params["perms"]):
        kw = {"alpha_circ": params["alpha_circ"], "alphas": alphas, "m": m,
              "sigma": list(sigma) + list(range(m + 1, len(alphas) + 1)),
              "offsets": list(offsets)}
        # one batch: both sides come from substreams of a single stream
        d = _Draw("perm", kw, f"perm{pi}", n, batch=max(n, 1))
        checks += [(f"perm{pi}:k={k}", (d, ci), (d, len(offsets) + ci))
                   for ci, k in enumerate(offsets)]
    return _evaluate("permutation-symmetry", checks, seed, ctx)


# frozen finite-size tolerance multipliers for the two asymptotic-law checks
# (tail ratio at k = 200, boundary series limit at n = 400); calibrated once
# against the observed statistics and recorded in the build notes
TAIL_TOL_MULT = 1.5
ALIMIT_TOL_MULT = 1.5


def exp_zuv(params: dict, seed: int, ctx: RunContext) -> dict:
    alpha = params["alpha"]
    n = int(params["n_samples"])
    n_alim = int(params["n_alim"])
    if n_alim < 1:
        raise ValueError(f"zuv-properties needs n_alim >= 1, got {n_alim}")

    def zuv(tag, u, v, ks, sampler="zuv"):
        return _Draw(sampler, {"alpha": alpha, "u": u, "v": v, "ks": ks}, tag, n)

    # antisymmetric point u = -v: the process is an inverse-gamma walk; the
    # reference is z at u = v = u0, which sample_zuv_path draws as that
    # IG(alpha - u0) walk alone, with no varpi and no sum term
    u0 = params["u_walk"]
    walk = zuv("zuv_walk", u0, -u0, [1, 5])
    ig = zuv("zuv_walk_ref", u0, u0, [1, 5])
    checks = [(f"uv-antisymmetric:k={k}", (walk, ci), (ig, ci))
              for ci, k in enumerate([1, 5])]
    # sign symmetry in v
    u1, v1 = params["u_sym"], params["v_sym"]
    zp, zm = zuv("zuv_vplus", u1, v1, [1, 4]), zuv("zuv_vminus", u1, -v1, [1, 4])
    checks += [(f"v-sign-symmetry:k={k}", (zp, ci), (zm, ci))
               for ci, k in enumerate([1, 4])]
    # product decomposition route
    u2, v2 = params["u_pra"], params["v_pra"]
    zd = zuv("zuv_direct", u2, v2, [1, 4])
    zpra = zuv("zuv_pra", u2, v2, [1, 4], sampler="zuv_pra")
    checks += [(f"pra-route:k={k}", (zd, ci), (zpra, ci))
               for ci, k in enumerate([1, 4])]
    # tail ratio law at large k, with a documented finite-k tolerance
    k_tail = int(params["k_tail"])
    tail = zuv("zuv_tail", u2, v2, [k_tail, k_tail + 1])
    checks.append((f"tail-ratio:k={k_tail}",
                   (tail, lambda a: np.exp(a[:, 1] - a[:, 0])),
                   functools.partial(inverse_gamma_cdf, theta=alpha - abs(v2)),
                   lambda t: TAIL_TOL_MULT * t))
    # boundary series limit 1 + G_{u-v}/G_{2v} for positive v
    u3, v3 = params["u_alim"], params["v_alim"]
    a_n = _Draw("zuv_a", {"alpha": alpha, "u": u3, "v": v3, "k": n_alim},
                "zuv_alim", n)
    limit = _Draw("gamma_limit", {"u": u3, "v": v3}, "zuv_alim_ref", n)
    checks.append((f"a-limit:n={n_alim}", (a_n, None), (limit, None),
                   lambda t: ALIMIT_TOL_MULT * t))
    return _evaluate("zuv-properties", checks, seed, ctx)


def exp_huv(params: dict, seed: int, ctx: RunContext) -> dict:
    n = int(params["n_samples"])
    delta = float(params["delta"])
    xs = list(params["xs"])
    # brownian(X) takes sqrt(X) before any draw could refuse X
    if not all(math.isfinite(X) and X >= 0 for X in xs):
        raise ValueError(f"huv-properties: parameter 'xs': recorded X must be "
                         f"finite and nonnegative, got {xs}")
    x_max = max(xs)

    def huv(tag, u, v, route="direct", delta=delta, xs=xs):
        return _Draw("huv", {"u": u, "v": v, "delta": delta, "x_max": x_max,
                             "xs": xs, "route": route}, tag, n)

    # Brownian marginals at u = -v
    ub = params["u_brownian"]
    hb = huv("huv_brownian", ub, -ub)

    def brownian(X):
        return functools.partial(normal_cdf, mean=ub * X, sd=math.sqrt(X))

    checks = [(f"brownian:X={X}", (hb, ci), brownian(X)) for ci, X in enumerate(xs)]
    # v sign symmetry
    us, vs = params["u_sym"], params["v_sym"]
    hp, hm = huv("huv_vplus", us, vs), huv("huv_vminus", us, -vs)
    checks += [(f"v-sign-symmetry:X={X}", (hp, ci), (hm, ci))
               for ci, X in enumerate(xs)]
    # Pitman route agreement
    hpit = huv("huv_pitman", us, -vs, route="pitman")
    checks += [(f"pitman-route:X={X}", (hm, ci), (hpit, ci))
               for ci, X in enumerate(xs[-2:], start=len(xs) - 2)]
    # resolution stability: halve delta, KS shift must sit inside MC noise
    X_ref = xs[min(1, len(xs) - 1)]
    half = huv("huv_haldelta", ub, -ub, delta=delta / 2.0, xs=[X_ref])

    def delta_halving(first, ks):
        d1 = first[f"brownian:X={X_ref}"].statistic
        d2 = ks((half, 0), brownian(X_ref)).statistic
        return _result(f"delta-halving:X={X_ref}", abs(d1 - d2), ks_threshold(n),
                       extra={"d_at_delta": d1, "d_at_half": d2})

    return _evaluate("huv-properties", checks + [delta_halving], seed, ctx)


# finite-epsilon tolerance (KS distance) for the zero-temperature limit at
# the smallest epsilon on the default grid; calibrated once, documented
EPS_LIMIT_TOL = 0.05


def exp_lpp(params: dict, seed: int, ctx: RunContext) -> dict:
    n, eps_grid = int(params["n_samples"]), params["lim_eps"]
    if np.any(np.diff(eps_grid) >= 0):
        raise ValueError(f"lpp-stationarity needs a decreasing lim_eps, got {eps_grid}")
    kinds = {
        "exp_one": ({"kind": "exp_one", "bulk": params["a"], "p1": params["exp_u"]},
                    "m_one"),
        "exp_two": ({"kind": "exp_two", "bulk": params["a"], "p1": params["exp2_u"],
                     "p2": params["exp2_v"]}, "m_two"),
        "geom_one": ({"kind": "geom_one", "bulk": params["q"], "p1": params["geom_r"]},
                     "m_one"),
        "geom_two": ({"kind": "geom_two", "bulk": params["q"], "p1": params["geom_r"],
                      "p2": params["geom_s"]}, "m_two"),
    }
    checks = []
    for name, (base, m_key) in kinds.items():
        checks += _pairwise_m("lpp_rows", base, params, m_key, n, f"lpp_{name}")[1]
    # exponential increments of the one-row specialization
    a, eu = params["a"], params["exp_u"]
    inc = _Draw("lpp_rows", {"kind": "exp_one", "bulk": a, "p1": eu, "m": 2,
                             "offsets": [1]}, "lpp_exp_inc", n)
    checks.append(("exp_one:increment-exponential", (inc, 0),
                   functools.partial(exponential_cdf, a=a - eu)))
    # zero-temperature limit: reported KS along the epsilon grid, gated only
    # at the smallest epsilon with the documented finite-epsilon tolerance;
    # one batch, so every column comes from one stream
    R = int(params["lim_samples"])
    lim = _Draw("lpp_limit", {"a_circ": params["lim_a_circ"], "a_s": params["lim_a_s"],
                              "epsilon_list": eps_grid, "n": params["lim_n"],
                              "m": params["lim_m"]}, "lpp_limit", R, batch=max(R, 1))
    eps_min = min(eps_grid)
    checks += [(f"lpp-limit:eps={eps}", (lim, 1 + i), (lim, 0),
                EPS_LIMIT_TOL if eps == eps_min else 1.0, {"gated": eps == eps_min})
               for i, eps in enumerate(eps_grid)]
    return _evaluate("lpp-stationarity", checks, seed, ctx)


def _random_instance(rng: RngStream, t_span: int, min_height: int = 0):
    """Random boundary and bulk field over [s, s + t_span). The bulk covers
    heights up to max(x, y) + t_span + 1, and at least up to min_height."""
    s = int(rng.gen.integers(0, 3))
    t = s + t_span
    x = int(rng.gen.integers(0, 4))
    y_lo_parity = (s + x + t) % 2
    y = int(2 * rng.gen.integers(0, 3) + y_lo_parity)
    boundary = she.BoundaryWeights(s, np.exp(0.4 * rng.gen.standard_normal(t_span)))
    beta = float(rng.gen.uniform(0.05, 0.5))
    cap = max(max(x, y) + t_span + 1, min_height)
    bulk = she.BulkWeights(s, rng.gen.uniform(-np.sqrt(3), np.sqrt(3),
                                              size=(t_span, cap)), beta)
    return boundary, bulk, s, x, t, y


def exp_she(params: dict, seed: int, ctx: RunContext) -> dict:
    instances = int(params["instances"])
    if instances < 1:
        raise ValueError(f"she-identities needs instances >= 1, got {instances}")
    tol = 1e-12
    worst = {"polymer": 0.0, "lpp": 0.0, "chaos": 0.0, "mild": 0.0,
             "composition": 0.0, "normalization": 0.0}
    for i in range(instances):
        # octant recurrences against path enumeration on a small octant:
        # n, m, the polymer field, then the last-passage weights
        rng = RngStream(seed, 100 + i)
        n = int(rng.gen.integers(1, 12))
        m = int(rng.gen.integers(1, min(n, 12 - n) + 1))
        octant = lattice.OctantParams(float(rng.gen.uniform(0.2, 1.0)),
                                      rng.gen.uniform(0.6, 2.0, size=n))
        weights = lattice.sample_weight_field(octant, rng)
        log_z = lattice.partition_recurrence(weights, n, n).log_z[n, m]
        bf = lattice.partition_bruteforce(weights, n, m)
        worst["polymer"] = max(worst["polymer"], abs(log_z - bf) / max(abs(bf), 1e-10))
        ep = lpp.LppExpParams(float(rng.gen.uniform(0.2, 1.0)),
                              tuple(rng.gen.uniform(0.6, 2.0, size=n)))
        w = lpp.sample_lpp_weights(ep, n, rng)
        g, gb = lpp.lpp_recurrence(w, n).times[n, m], lpp.lpp_bruteforce(w, n, m)
        worst["lpp"] = max(worst["lpp"], abs(g - gb) / max(abs(gb), 1.0))
        # reflected-walk partition functions on a random instance
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
        p = she._run_dp(np.eye(x + t_span + 1)[x],  # the plain kernel from (s, x)
                        she._factor_rows(s, t, x + t_span, None, None))
        worst["normalization"] = max(worst["normalization"], abs(sum(p.tolist()) - 1.0))
    results = [
        _result("octant-recurrence", worst["polymer"], 1e-10),
        _result("lpp-recurrence", worst["lpp"], 1e-10),
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
    lo = she.BoundaryWeights(s, 0.5 * boundary.values)
    hi = she.BoundaryWeights(s, 1.5 * boundary.values)
    mono = she.monotone_coupling_check(lo, boundary, hi, bulk, s, t, x_max)
    results.append(_result("boundary-monotonicity", mono["max_violation"], 0.0,
                           extra={"checked": mono["checked"]}))
    return _evaluate("she-identities", results, seed, ctx)


ENVELOPE_C = 4.0


def exp_sheet(params: dict, seed: int, ctx: RunContext) -> dict:
    n = int(params["n"])
    mus = params["mus"]
    Ts, Xs, Ys = params["Ts"], params["Xs"], params["Ys"]
    results = []
    rows = []
    env_worst = 0.0
    for mu in mus:
        sp = she.ScalingParams(n=n, mu=mu, beta=0.0)
        sup_diff, sup_ref = 0.0, 0.0
        tables = she.scaled_sheet_table(sp, 0.0, Xs, Ts, Ys)[0]
        for X, table in zip(Xs, tables):
            for a, T in enumerate(Ts):
                for b, Y in enumerate(Ys):
                    got = table[a, b]
                    ref = she.robin_heat_kernel(mu, 0.0, X, T, Y)
                    sup_diff = max(sup_diff, abs(got - ref))
                    sup_ref = max(sup_ref, abs(ref))
                    env = she.gaussian_envelope(T, X - Y, ENVELOPE_C)
                    env_worst = max(env_worst, got / env)
                    rows.append((0.0, X, T, Y, got))
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
    var_study = {}
    for nn in params["var_ns"]:
        reps = int(params["var_replicas"])
        rngs = [RngStream(seed, _stable_base(f"sheet_var{nn}") + i)
                for i in range(reps)]
        vals = she.scaled_sheet_table(she.ScalingParams(n=nn, mu=0.0, beta=1.0),
                                      0.0, [0.0], [1.0], [0.0], rngs)[:, 0, 0, 0]
        var_study[nn] = float(np.var(vals))
    _write_csv(ctx, "sheet_kernels.csv", ["s", "x", "t", "y", "value"],
               ([S, repr(X), repr(T), repr(Y), repr(got)]
                for (S, X, T, Y, got) in rows))
    return {**_evaluate("sheet-convergence", results, seed, ctx),
            "variance_study": var_study}


def _increment(c):
    """Column function: the height increment from x = 0 to the (c+1)-th x."""
    return lambda a: a[:, c + 1] - a[:, 0]


def exp_kpz(params: dict, seed: int, ctx: RunContext) -> dict:
    n = int(params["n"])
    u, v = params["u"], params["v"]
    Ts = params["Ts"]
    Xs = list(params["Xs"])
    if params["resolution_check"]:
        # the report also builds level n // 4 at Xs[0]; refuse before any draw
        r = math.isqrt(n)
        if r * r != n or r % 2 or r < 4:
            raise ValueError(f"kpz-scaling resolution_check builds level n/4, so it "
                             f"needs sqrt(n) even and at least 4, got n = {n}")
        she._lattice_index(r // 2, Xs[0], "resolution_check: sqrt(n/4) Xs[0]")
    nsamp = int(params["n_samples"])
    xs_full = [0.0] + Xs
    procs = {T: _Draw("scaled_proc", {"n": n, "u": u, "v": v, "T": T, "xs": xs_full},
                      f"kpz_T{T}", nsamp, batch=20000) for T in Ts}
    T0 = Ts[0]
    checks = [(f"T-invariance:X={X}:T{T0}-vs-T{Tb}", (procs[T0], _increment(ci)),
               (procs[Tb], _increment(ci)))
              for Tb in Ts[1:] for ci, X in enumerate(Xs)]
    # direct-route check at T = 0 against the explicit initial-data sampler
    init = _Draw("scaled_init", {"n": n, "u": u, "v": v, "xs": xs_full},
                 "kpz_init", nsamp, batch=20000)
    checks += [(f"T0-vs-initial-data:X={X}", (procs[T0], _increment(ci)),
                (init, _increment(ci))) for ci, X in enumerate(Xs)]
    if params["resolution_check"]:
        # resolution report: distance between levels n and 4n (not gated)
        X_ref = Xs[0]
        lo, hi = (_Draw("scaled_init", {"n": nn, "u": u, "v": v, "xs": [0.0, X_ref]},
                        tag, int(params["res_samples"]))
                  for nn, tag in ((n // 4, "kpz_res_lo"), (n, "kpz_res_hi")))
        checks.append((f"resolution:n{n // 4}-vs-n{n}:X={X_ref}", (lo, _increment(0)),
                       (hi, _increment(0)), 1.0, {"gated": False}))
    return _evaluate("kpz-scaling", checks, seed, ctx)


def exp_matching(params: dict, seed: int, ctx: RunContext) -> dict:
    kw = {"alpha": params["alpha"], "u": params["u"], "v": params["v"]}
    n = int(params["n_samples"])
    checks = []
    for (t, y) in params["points"]:
        # both sides come from one draw, so a retry redraws it once
        d = _Draw("matching", dict(kw, t=t, y=y), f"match_t{t}y{y}", n, batch=20000)
        checks.append((f"matching:t={t},y={y}", (d, 0), (d, 1)))
    return _evaluate("matching-identity", checks, seed, ctx)


# frozen bounds on the scaled moment gaps of the matching bulk law; the even
# gaps scale with sqrt(n), the odd ones with n^{1/4}, and the bounds cover
# the pre-asymptotic bump at n = 100 with a 1.3x margin
BULK_GAP_BOUNDS = {1: 1e-12, 2: 0.7, 3: 4.3, 4: 31.0, 5: 71.0, 6: 940.0,
                   7: 1990.0, 8: 41000.0}
BOUNDARY_VAR_BOUND = 1.3


def exp_moments(params: dict, seed: int, ctx: RunContext) -> dict:
    results = []
    # analytic second moment of the scaled initial data vs Monte Carlo
    nsamp = int(params["mc_samples"])
    points = params["second_moment_points"]
    draws = [_Draw("scaled_init", {"n": n, "u": u, "v": v, "xs": [X]},
                   f"mom_n{n}_u{u}_v{v}_x{X}", nsamp, batch=200000)
             for (n, u, v, X) in points]
    with _suite_pool(draws, seed, ctx) as pool:
        for d, (n, u, v, X) in zip(draws, points):
            target = stationary.second_moment_analytic(n, u, v, X)
            logv = _collect(d, seed, ctx, pool)
            cmp = moment_compare(SampleSet(np.exp(2.0 * logv[:, 0]), label="sq"), 1,
                                 target)
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
    return _evaluate("moments", results, seed, ctx)


# ---------------------------------------------------------------------------
# catalog

@dataclass
class Experiment:
    name: str
    verifies: str
    func: object
    defaults: dict = field(default_factory=dict)
    # the overrides of defaults that the acceptance test runs at
    acceptance: dict = field(default_factory=dict)


# entry k is acceptance criterion k, tested as criterion_k in
# tests/test_acceptance.py: CI's -k list of criteria depends on this order
EXPERIMENTS = {
    e.name: e for e in [
        Experiment(
            "she-identities",
            "exact identities: the polymer and last-passage octant "
            "recurrences equal path enumeration; reflected-walk partition "
            "functions: direct, chaos-series, and mild evaluations agree "
            "exactly; composition law; kernel normalization; boundary "
            "monotonicity",
            exp_she,
            {"instances": 100}),
        Experiment(
            "burke",
            "fixed point of the local partition update: the updated triple "
            "keeps its inverse-gamma marginals",
            exp_burke,
            {"alpha_grid": [0.8, 1.5, 3.0], "u_spec": [-0.3, 0.0, "half"],
             "n_samples": 100000},
            {"n_samples": 1000000}),
        Experiment(
            "one-row-stationarity",
            "one-row stationary grid: increment laws do not depend on the "
            "base diagonal point; ratios are inverse-gamma",
            exp_one_row,
            {"alpha": 1.5, "u": 0.3, "m_list": [1, 2, 4], "offsets": [1, 3, 6],
             "n_samples": 50000},
            {"n_samples": 200000}),
        Experiment(
            "two-row-stationarity",
            "two-row stationary grid: ratio-process law independent of the "
            "base point from m = 2 on, and equal to the direct boundary "
            "process",
            exp_two_row,
            {"alpha": 1.5, "u": 0.6, "v": -0.4, "m_list": [2, 3, 5],
             "offsets": [1, 3, 6], "n_samples": 50000},
            {"n_samples": 200000}),
        Experiment(
            "permutation-symmetry",
            "row partition vector is invariant under permutations of the "
            "first m row parameters",
            exp_permutation,
            {"alphas": [0.9, 1.6, 2.2], "alpha_circ": 0.4, "bulk_alpha": 1.5,
             "m": 3, "offsets": [0, 1, 2], "perms": [[3, 2, 1], [2, 3, 1]],
             "n_samples": 50000},
            {"n_samples": 200000}),
        Experiment(
            "zuv-properties",
            "boundary process special cases: inverse-gamma walk at u = -v, "
            "sign symmetry in v, product decomposition, tail ratio law, "
            "gamma-ratio series limit",
            exp_zuv,
            {"alpha": 1.5, "u_walk": 0.5, "u_sym": 0.5, "v_sym": 0.4,
             "u_pra": 0.5, "v_pra": -0.4, "k_tail": 200, "u_alim": 1.0,
             "v_alim": 0.5, "n_alim": 400, "n_samples": 50000},
            {"n_samples": 100000}),
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
             "lim_samples": 30000, "n_samples": 50000},
            {"n_samples": 200000}),
        Experiment(
            "huv-properties",
            "continuum boundary process: Brownian marginals at u = -v, sign "
            "symmetry in v, Pitman-transform route, grid-resolution "
            "stability",
            exp_huv,
            {"u_brownian": 0.5, "u_sym": 1.0, "v_sym": 0.5,
             "xs": [0.5, 1.0, 2.0], "delta": 2.0 ** -10, "n_samples": 50000},
            {"n_samples": 200000}),
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
             "boundary_u": 1.0, "mc8_n": 10000, "mc8_draws": 2000000},
            {"mc_samples": 1000000, "mc8_draws": 10000000}),
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
             "resolution_check": True, "res_samples": 20000},
            {"n_samples": 200000}),
        Experiment(
            "matching-identity",
            "normalized octant partition equals the reflected-walk partition "
            "with boundary-process initial data, in law",
            exp_matching,
            {"alpha": 2.0, "u": 1.0, "v": -0.5, "points": [[1, 0], [3, 2]],
             "n_samples": 50000},
            {"n_samples": 200000}),
    ]
}


def _refused_scalar(default, v) -> str | None:
    """What a parameter whose catalog default is a bool, int or float must
    be, when v is not that; None when v is accepted. A float count or a
    string flag used to run as if it were valid (bool is a subclass of int,
    and a nonempty string is true)."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if isinstance(default, bool):
        return None if isinstance(v, bool) else "true or false"
    if isinstance(default, int):
        return None if number and isinstance(v, int) else "an integer"
    if isinstance(default, float):
        return None if number and math.isfinite(v) else "a finite number"
    return None


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
        kind = _refused_scalar(merged[k], v)
        if kind is not None:
            raise ValueError(f"{name}: parameter {k!r} must be {kind}, got {v!r}")
        # a scalar or an empty axis would fail mid-run or drop every check
        # along it
        if isinstance(merged[k], list) and (not isinstance(v, (list, tuple))
                                            or not v):
            raise ValueError(f"{name}: parameter {k!r} must be a nonempty list, "
                             f"got {v!r}")
        merged[k] = v
    result = exp.func(merged, seeds[0], ctx)
    return {"experiment": name, "verifies": exp.verifies, "params": merged,
            "seeds": list(seeds), **result}
