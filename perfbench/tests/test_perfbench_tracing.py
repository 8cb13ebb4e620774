"""The tracer must be transparent and must give every per-layer metric
that BENCHMARK.json names.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from hspolymer import experiments, scaling, stats  # noqa: E402
from hspolymer.rng import RngStream  # noqa: E402

SEED = 20260801

# small versions of every workload's experiments
SMALL = {
    "one-row-stationarity": {"n_samples": 2000},
    "permutation-symmetry": {"n_samples": 2000},
    "kpz-scaling": {"n": 64, "n_samples": 500, "res_samples": 500},
    "matching-identity": {"n_samples": 2000},
    "zuv-properties": {"n_samples": 1000},
    "huv-properties": {"n_samples": 100, "delta": 2.0 ** -6},
    "sheet-convergence": {"n": 2 ** 8, "var_replicas": 3},
}


def _pass(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "RESUME_PARAMS", {"n_samples": 3000})
    monkeypatch.setattr(workloads, "RESUME_WORKERS", 1)
    out = {}
    for name, params in SMALL.items():
        rep = experiments.run_experiment(name, params, [SEED],
                                         experiments.RunContext())
        out[name] = workloads.fingerprint(rep)
    out["criterion-1"] = workloads.fingerprint(workloads.criterion_1(SEED))
    for phase in ("cold", "warm"):
        out[f"burke-{phase}"] = workloads.fingerprint(
            workloads._cli_run(SEED, tmp_path / "out"))
    return out


def test_traced_pass_gives_untraced_fingerprints(tmp_path, monkeypatch):
    plain = _pass(tmp_path / "plain", monkeypatch)
    originals = (experiments.run_experiment, scaling.make_row_logw,
                 stats.KsSuite.evaluate, RngStream.__init__)
    tracer = tracing.Tracer().install()
    try:
        assert experiments.run_experiment is not originals[0]
        traced = _pass(tmp_path / "traced", monkeypatch)
    finally:
        tracer.uninstall()
    assert (experiments.run_experiment, scaling.make_row_logw,
            stats.KsSuite.evaluate, RngStream.__init__) == originals
    assert traced == plain
    assert plain["burke-cold"] == plain["burke-warm"]

    totals = tracer.totals(0)
    for name in SMALL:
        assert totals[f"experiments.run_experiment.{name}.calls"] >= 1
    # calls made through names imported into other modules are seen too
    for span in ("lattice.replicated_rows", "lattice.row_weights",
                 "stationary.sample_Huv_path", "she.scaled_sheet_table",
                 "lattice.partition_bruteforce", "cli.run"):
        assert totals[f"{span}.calls"] >= 1, span
    # the cold CLI run writes every batch and the warm one reads them all
    hits = totals["experiments.checkpoint.hits"]
    assert totals["experiments.checkpoint.files"] == hits
    assert 2 * hits == totals["experiments.checkpoint.batches"]
    assert totals["rng.RngStream.created"] > 0

    # every per-layer metric of BENCHMARK.json is one the tracer computes
    # (the overhead and the report size are added by run.py and worker.py)
    values = tracing.layer_values(totals, totals,
                                  tracing.src_lines(ROOT / "src" / "hspolymer"))
    missing = set(tracing.LAYER_METRICS) - set(values)
    assert missing == {"trace.overhead_s", "cli.report_bytes"}


def test_self_time_excludes_children_and_busy_time_nested_repeats():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, {"work": 5.0}],
        ["b", 2.0, 3.0, 1, 0, {"work": 1.0}],
        ["a", 20.0, 21.0, -1, 1, None],
    ]
    t = tracer.totals(0)
    assert t["a.calls"] == 1 and t["a.busy_s"] == 10.0 and t["a.self_s"] == 7.0
    assert t["b.calls"] == 2 and t["b.busy_s"] == 3.0 and t["b.self_s"] == 3.0
    assert t["b.work"] == 6.0


def test_uninstall_restores_every_rebound_name():
    def snapshot():
        return {(name, attr): value
                for name, mod in sys.modules.items() if name.startswith("hspolymer")
                for attr, value in vars(mod).items()}

    before = snapshot()
    tracer = tracing.Tracer().install()
    orig = before[("hspolymer.lattice", "replicated_rows")]
    assert scaling.replicated_rows is not orig
    tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
