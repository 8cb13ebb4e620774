"""Per-layer tracing from outside the package.

The tracer wraps public functions of each hspolymer module and rebinds the
wrapper under every name that holds the original in any hspolymer module,
because `scaling` and `experiments` import layer functions by name. A span
keeps its name, start, end, parent and pass id; spans and counters stay in
memory and are reduced once, after the pass. Wrappers read arguments and
return values to count work but never change them and draw no random
numbers, so traced and untraced passes give identical reports.

Pool children forked by `collect_samples` inherit the wrappers, but their
spans die with them: a trace of a run with worker processes covers only the
parent's side.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

MODULES = ("cli", "distributions", "experiments", "lattice", "lpp", "rng",
           "scaling", "she", "special", "stationary", "stats")

# metric -> unit, as BENCHMARK.json declares them; the reduction below
# gives every one of them a value
LAYER_METRICS: dict[str, str] = {
    m["name"]: m["unit"] for m in json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]}

# (metric, numerator, denominator) computed after the sums
_RATIOS = [
    ("lattice.replicated_rows.site_updates_per_s",
     "lattice.replicated_rows.site_updates", "lattice.replicated_rows.busy_s"),
    ("stationary.sample_Huv_path.replica_steps_per_s",
     "stationary.sample_Huv_path.replica_steps", "stationary.sample_Huv_path.busy_s"),
    ("stationary.sample_Huv_pitman.replica_steps_per_s",
     "stationary.sample_Huv_pitman.replica_steps",
     "stationary.sample_Huv_pitman.busy_s"),
    ("stats.retry_frac", "stats.KsSuite.evaluate.retries",
     "stats.KsSuite.evaluate.checks"),
    ("experiments.checkpoint.hit_frac", "experiments.checkpoint.hits",
     "experiments.checkpoint.batches"),
]


def _draws(b, result):
    return {"draws": float(getattr(result, "size", 1))}


def _rows_updates(max_n, max_m, replicas):
    return float(replicas * sum(min(n, max_m) for n in range(1, max_n + 1)))


def _ckpt_listing(b):
    ctx = b["ctx"]
    if ctx.out_dir is None:
        return None
    d = Path(ctx.out_dir) / "checkpoints"
    return set(os.listdir(d)) if d.is_dir() else set()


def _ckpt_counts(b, result, before):
    out = {"samples": float(b["n_total"])}
    if before is None:
        return out
    d = Path(b["ctx"].out_dir) / "checkpoints"
    new = set(os.listdir(d)) - before
    batches = -(-int(b["n_total"]) // int(b["batch"]))
    out.update({
        "experiments.checkpoint.files": float(len(new)),
        "experiments.checkpoint.bytes": float(sum((d / f).stat().st_size for f in new)),
        "experiments.checkpoint.hits": float(batches - len(new)),
        "experiments.checkpoint.batches": float(batches),
    })
    return out


def _sheet_steps(b, result):
    n = b["params"].n
    return {"time_steps": float(max(round(n * T) for T in b["T_list"])
                                - round(n * b["S"]))}


def _huv_steps(b, result):
    p = b["params"]
    return {"replica_steps": float(b["n_replicas"] * round(p.x_max / p.delta))}


def _evaluate_counts(b, result):
    return {"retries": float(len(result["retried"])),
            "checks": float(result["n_checks"])}


# (module, attribute, counter) for plain functions; the counter maps the
# bound arguments and the result to {stat: value}
SPECS = [
    ("experiments", "run_experiment", None),
    ("experiments", "collect_samples", (_ckpt_listing, _ckpt_counts)),
    ("stats", "ks_one_sample", lambda b, r: {"points": float(b["a"].values.size)}),
    ("stats", "ks_two_sample",
     lambda b, r: {"points": float(b["a"].values.size + b["b"].values.size)}),
    ("stats", "ks_threshold", None),
    ("distributions", "inverse_gamma_cdf",
     lambda b, r: {"points": float(getattr(r, "size", 1))}),
    ("distributions", "normal_cdf", None),
    ("distributions", "sample_inverse_gamma", _draws),
    ("distributions", "sample_gamma", _draws),
    ("lattice", "replicated_rows",
     lambda b, r: {"site_updates": _rows_updates(b["max_n"], b["max_m"],
                                                 b["n_replicas"])}),
    ("lattice", "partition_recurrence", None),
    ("lattice", "partition_bruteforce", None),
    ("lpp", "lpp_recurrence", None),
    ("lpp", "lpp_bruteforce", None),
    ("stationary", "sample_Huv_path", _huv_steps),
    ("stationary", "sample_Huv_pitman", _huv_steps),
    ("stationary", "sample_zuv_path",
     lambda b, r: {"replica_steps": float(b["n_replicas"] * b["k_max"])}),
    ("stationary", "sample_zuv_pra",
     lambda b, r: {"replica_steps": float(b["n_replicas"] * b["k_max"])}),
    ("stationary", "scaled_initial_data",
     lambda b, r: {"replica_steps": float(b["n_replicas"] * max(
         round(math.sqrt(b["n"]) * x) for x in b["x_grid"]))}),
    ("scaling", "scaled_stationary_process", None),
    ("scaling", "matching_identity_check", None),
    ("she", "scaled_sheet_table", _sheet_steps),
    ("she", "robin_kernel_property_report", None),
    ("she", "neumann_normalization_defect", None),
]


class Tracer:
    """Installs span-recording wrappers; `uninstall` restores the package."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id, counts]
        self.pass_id = 0
        self.created = {}  # pass id -> RngStream constructions
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter=None, name_of=None):
        sig = inspect.signature(fn) if counter or name_of else None
        before, after = counter if isinstance(counter, tuple) else (None, counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                b = bound.arguments
            state = before(b) if before else None
            span = self._enter(name_of(b) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                span[5] = after(b, result, state) if before else after(b, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind(self, orig, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hspolymer"
                                   or mod_name.startswith("hspolymer.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from hspolymer import cli, lattice, rng, stats

        mods = {name: sys.modules[f"hspolymer.{name}"] for name in MODULES}
        for mod_name, attr, counter in SPECS:
            orig = getattr(mods[mod_name], attr)
            name_of = ((lambda b: f"experiments.run_experiment.{b['name']}")
                       if attr == "run_experiment" else None)
            self._rebind(orig, self._wrap(f"{mod_name}.{attr}", orig, counter,
                                          name_of))

        orig_make = lattice.make_row_logw

        def make_row_logw(params, max_m, n_replicas, rng, capture=None):
            def draws(b, lw):
                sites = [m for m in range(1, lw.shape[1])
                         if (b["n"], m) not in params.exemptions]
                return {"draws": float(n_replicas * len(sites))}

            row = orig_make(params, max_m, n_replicas, rng, capture)
            return self._wrap("lattice.row_weights", row, draws)

        self._rebind(orig_make, functools.wraps(orig_make)(make_row_logw))

        evaluate = stats.KsSuite.evaluate
        self._patch(stats.KsSuite, "evaluate",
                    self._wrap("stats.KsSuite.evaluate", evaluate, _evaluate_counts))

        init = rng.RngStream.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            tracer.created[tracer.pass_id] = tracer.created.get(tracer.pass_id, 0) + 1
            init(obj, *args, **kwargs)

        self._patch(rng.RngStream, "__init__", counted_init)
        self._patch(cli.run, "callback", self._wrap("cli.run", cli.run.callback))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction -------------------------------------------------------

    def totals(self, pass_id: int) -> dict:
        """Sums over one pass: `<span>.calls`, `.busy_s`, `.self_s` and every
        counter. Busy time counts a span only when no span of the same name
        encloses it."""
        out: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] == pass_id and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]

        def add(key, value):
            out[key] = out.get(key, 0.0) + value

        for i, (name, start, end, parent, pid, counts) in enumerate(self.spans):
            if pid != pass_id:
                continue
            dur = end - start
            add(f"{name}.calls", 1.0)
            add(f"{name}.self_s", dur - child_time[i])
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                add(f"{name}.busy_s", dur)
            for key, value in (counts or {}).items():
                add(key if "." in key else f"{name}.{key}", value)
        out["rng.RngStream.created"] = float(self.created.get(pass_id, 0))
        return out


def src_lines(root: Path) -> dict:
    counts = {f"{m}.src_lines": float(len((root / f"{m}.py").read_text().splitlines()))
              for m in MODULES}
    counts["all.src_lines"] = float(sum(
        len(p.read_text().splitlines()) for p in root.glob("*.py")))
    return counts


def layer_values(cold: dict, warm: dict, lines: dict) -> dict:
    """Every value the tracer can give from one traced process: cold-pass
    totals, except the checkpoint hit share, which is the warm pass's."""
    values = dict(cold)
    for key in ("experiments.checkpoint.hits", "experiments.checkpoint.batches"):
        values[key] = warm.get(key, 0.0)
    for name, num, den in _RATIOS:
        values[name] = values.get(num, 0.0) / values[den] if values.get(den) else 0.0
    values.update(lines)
    return values


def layer_metrics(cold: dict, warm: dict, lines: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced process; a
    span the pass never entered reads 0."""
    values = layer_values(cold, warm, lines)
    return {name: values.get(name, 0.0) for name in LAYER_METRICS
            if name != "trace.overhead_s"}
