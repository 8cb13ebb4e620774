import multiprocessing

import numpy as np
import pytest

from hspolymer import experiments
from hspolymer.experiments import RunContext, collect_samples, run_experiment
from hspolymer.rng import RngStream
from hspolymer.stats import KsSuite


BURKE_KW = {"alpha": 1.5, "u": 0.3}


def test_collect_is_deterministic_and_batch_invariant():
    a = collect_samples("burke", BURKE_KW, 99, 700, RunContext(), batch=200)
    b = collect_samples("burke", BURKE_KW, 99, 700, RunContext(), batch=200)
    assert np.array_equal(a, b)
    assert a.shape[0] == 700
    # a different batch size redraws, but stays reproducible
    c = collect_samples("burke", BURKE_KW, 99, 700, RunContext(), batch=300)
    assert np.array_equal(
        c, collect_samples("burke", BURKE_KW, 99, 700, RunContext(), batch=300))


def test_collect_checkpoints_resume(tmp_path):
    ctx = RunContext(out_dir=tmp_path)
    a = collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200)
    parts = sorted((tmp_path / "checkpoints").glob("burke_*.npy"))
    assert len(parts) == 3
    # delete one part; the rerun regenerates it and returns the same array
    parts[1].unlink()
    b = collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200)
    assert np.array_equal(a, b)
    # a full warm rerun reads every part back
    c = collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200)
    assert np.array_equal(a, c)
    # a truncated part (an interrupted write) is regenerated, not an error
    data = parts[2].read_bytes()
    parts[2].write_bytes(data[:len(data) // 2])
    d = collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200)
    assert np.array_equal(a, d)
    assert parts[2].read_bytes() == data
    assert sorted((tmp_path / "checkpoints").iterdir()) == parts


def test_checkpoints_from_other_code_are_regenerated(tmp_path, monkeypatch):
    ctx = RunContext(out_dir=tmp_path)
    fresh = collect_samples("burke", BURKE_KW, 7, 500, RunContext(), batch=200)
    # write checkpoints under another code hash, holding stale values
    with monkeypatch.context() as m:
        m.setattr(experiments, "_code_hash", lambda: "older code")
        collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200)
    stale = sorted((tmp_path / "checkpoints").glob("burke_*.npy"))
    assert len(stale) == 3
    for path in stale:
        np.save(path, np.load(path) + 1.0)
    # this code does not read them: it draws and writes its own parts
    a = collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200)
    assert np.array_equal(a, fresh)
    parts = sorted(set((tmp_path / "checkpoints").glob("burke_*.npy")) - set(stale))
    assert len(parts) == 3

    # a resume under the same code loads every part and draws nothing
    def no_draws(*args):
        raise AssertionError("a checkpointed batch was redrawn")

    monkeypatch.setattr(experiments, "_run_batch", no_draws)
    assert np.array_equal(
        collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200), fresh)


def test_checkpoints_of_a_smaller_run_are_not_read_back(tmp_path):
    # 70 = 50 + 20 rows, 100 = 50 + 50: part 1 has one name in both runs
    ctx = RunContext(out_dir=tmp_path)
    collect_samples("burke", BURKE_KW, 7, 70, ctx, batch=50)
    grown = collect_samples("burke", BURKE_KW, 7, 100, ctx, batch=50)
    assert np.array_equal(
        grown, collect_samples("burke", BURKE_KW, 7, 100, RunContext(), batch=50))


def test_checkpoints_of_a_larger_run_are_not_read_back(tmp_path):
    ctx = RunContext(out_dir=tmp_path)
    collect_samples("burke", BURKE_KW, 7, 100, ctx, batch=50)
    shrunk = collect_samples("burke", BURKE_KW, 7, 70, ctx, batch=50)
    assert shrunk.shape[0] == 70
    assert np.array_equal(
        shrunk, collect_samples("burke", BURKE_KW, 7, 70, RunContext(), batch=50))


def test_collect_refuses_more_batches_than_streams():
    with pytest.raises(ValueError):
        collect_samples("burke", BURKE_KW, 7, 1001, RunContext(), batch=1)
    assert collect_samples("burke", BURKE_KW, 7, 1000, RunContext(),
                           batch=1).shape[0] == 1000


def test_collect_parallel_equals_serial(tmp_path):
    serial = collect_samples("burke", BURKE_KW, 11, 800, RunContext(),
                             batch=200)
    with RunContext(out_dir=tmp_path, workers=4) as ctx:
        par = collect_samples("burke", BURKE_KW, 11, 800, ctx, batch=200)
    assert np.array_equal(serial, par)


_REAL_RUN_BATCH = experiments._run_batch


def _fail_third_batch(sampler, kwargs, seed, stream_id, size):
    """_run_batch, except that batch 2 of the tag "burke" raises. Module
    level, so that a pool child can unpickle it."""
    if stream_id == experiments._stable_base("burke") + 2:
        raise RuntimeError("batch 2 failed")
    return _REAL_RUN_BATCH(sampler, kwargs, seed, stream_id, size)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_batch_is_checkpointed_as_it_lands(tmp_path, monkeypatch, workers):
    fresh = collect_samples("burke", BURKE_KW, 7, 800, RunContext(), batch=200)
    with monkeypatch.context() as m:
        m.setattr(experiments, "_run_batch", _fail_third_batch)
        with pytest.raises(RuntimeError, match="batch 2 failed"):
            with RunContext(out_dir=tmp_path, workers=workers) as ctx:
                collect_samples("burke", BURKE_KW, 7, 800, ctx, batch=200)
    saved = {int(p.stem[-4:])
             for p in (tmp_path / "checkpoints").glob("burke_*.npy")}
    # the batches drawn before the failure survive it; a pool also keeps a
    # batch that was in flight, and starts no queued one
    assert {0, 1} <= saved and 2 not in saved
    assert not list((tmp_path / "checkpoints").glob("*.tmp"))

    drawn = []

    def recording(sampler, kwargs, seed, stream_id, size):
        drawn.append(stream_id - experiments._stable_base("burke"))
        return _REAL_RUN_BATCH(sampler, kwargs, seed, stream_id, size)

    monkeypatch.setattr(experiments, "_run_batch", recording)
    again = collect_samples("burke", BURKE_KW, 7, 800,
                            RunContext(out_dir=tmp_path), batch=200)
    assert sorted(drawn) == sorted({0, 1, 2, 3} - saved)
    assert np.array_equal(again, fresh)


def test_one_pool_serves_a_context_until_it_closes(counted_pools):
    ctx = RunContext(workers=2)
    with ctx:
        a = collect_samples("burke", BURKE_KW, 3, 600, ctx, batch=200)
        b = collect_samples("burke", BURKE_KW, 4, 600, ctx, batch=200)
        # a draw of one batch runs in the parent
        collect_samples("burke", BURKE_KW, 5, 200, ctx, batch=200)
        assert counted_pools.started == 1
    assert multiprocessing.active_children() == []
    # a context used again after it closed starts a new pool
    with ctx:
        assert np.array_equal(
            collect_samples("burke", BURKE_KW, 3, 600, ctx, batch=200), a)
    assert counted_pools.started == 2
    assert multiprocessing.active_children() == []
    assert np.array_equal(
        b, collect_samples("burke", BURKE_KW, 4, 600, RunContext(), batch=200))


@pytest.mark.parametrize("workers", [0, -2, 2.5, 2.0, True, "2", None])
def test_run_context_refuses_bad_workers(workers):
    with pytest.raises(ValueError):
        RunContext(workers=workers)


def test_seed_separates_draws():
    a = collect_samples("burke", BURKE_KW, 1, 300, RunContext())
    b = collect_samples("burke", BURKE_KW, 2, 300, RunContext())
    assert not np.array_equal(a, b)


def test_stable_base_is_stable():
    assert experiments._stable_base("tag") == experiments._stable_base("tag")
    assert experiments._stable_base("a") != experiments._stable_base("b")


def test_catalog_entries_are_complete():
    assert len(experiments.EXPERIMENTS) == 12
    for name, exp in experiments.EXPERIMENTS.items():
        assert exp.name == name
        assert exp.verifies
        assert isinstance(exp.defaults, dict)


def test_run_experiment_validates_inputs():
    with pytest.raises(KeyError):
        run_experiment("nonesuch", {}, [1], RunContext())
    with pytest.raises(ValueError):
        run_experiment("burke", {"bogus_knob": 3}, [1], RunContext())
    for seeds in ([], [1, 2]):
        with pytest.raises(ValueError):
            run_experiment("burke", {}, seeds, RunContext())


def test_run_experiment_small_end_to_end(tmp_path):
    rep = run_experiment("burke", {"n_samples": 4000}, [123],
                         RunContext(out_dir=tmp_path))
    assert rep["experiment"] == "burke"
    assert rep["seeds"] == [123]
    assert rep["params"]["n_samples"] == 4000
    assert isinstance(rep["pass"], bool)
    assert rep["results"]
    for r in rep["results"]:
        assert {"test", "statistic", "threshold", "pass"} <= set(r)


def test_two_row_emits_csv_dumps(tmp_path):
    import csv

    run_experiment("two-row-stationarity", {"n_samples": 2000}, [11],
                   RunContext(out_dir=tmp_path, emit_csv=True))
    with open(tmp_path / "two_row_grid.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "m", "log_z"]
    assert len(rows) - 1 == 78  # all octant sites up to size 12
    with open(tmp_path / "two_row_samples.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["replica", "k", "value", "seed"]


def test_run_experiment_reproducible():
    a = run_experiment("two-row-stationarity", {"n_samples": 3000}, [5],
                       RunContext())
    b = run_experiment("two-row-stationarity", {"n_samples": 3000}, [5],
                       RunContext())
    sa = [(r["test"], r["statistic"]) for r in a["results"]]
    sb = [(r["test"], r["statistic"]) for r in b["results"]]
    assert sa == sb


def test_huv_unsorted_xs_label_their_own_columns():
    # each KS check reads the H column of the X in its label: with the
    # columns sorted, brownian:X=2.0 was tested against the X = 0.5 column
    rep = run_experiment("huv-properties",
                         {"xs": [2.0, 0.5, 1.0], "n_samples": 2000,
                          "delta": 2.0 ** -6}, [5], RunContext())
    assert rep["pass"], [(r["test"], r["statistic"], r["threshold"])
                         for r in rep["results"] if not r["pass"]]


def test_she_monotonicity_field_covers_its_window():
    # at this seed the monotonicity instance has max(x, y) < 2, so a bulk
    # field sized by the instance's own endpoints stopped short of the
    # heights the x_max = 3 window reads
    rep = run_experiment("she-identities", {"instances": 1}, [745539399],
                         RunContext())
    mono = rep["results"][-1]
    assert mono["test"] == "boundary-monotonicity"
    assert mono["pass"] and mono["checked"] > 0


# the nine experiments gated by a KS suite, at small sizes
KS_SMALL = {
    "burke": {"n_samples": 2000},
    "one-row-stationarity": {"n_samples": 1000},
    "two-row-stationarity": {"n_samples": 1000},
    "permutation-symmetry": {"n_samples": 1000},
    "zuv-properties": {"n_samples": 1000, "k_tail": 20, "n_alim": 20},
    "huv-properties": {"n_samples": 200, "delta": 2.0 ** -6},
    "lpp-stationarity": {"n_samples": 1000, "lim_samples": 500},
    "kpz-scaling": {"n": 64, "n_samples": 1000, "res_samples": 500},
    "matching-identity": {"n_samples": 1000},
}


def test_every_ks_check_retries_its_own_comparison(monkeypatch):
    seed = 20260801
    calls = []
    for name, fn in list(experiments.SAMPLERS.items()):
        def counted(rng, size, /, _fn=fn, **kw):
            calls.append(size)
            return _fn(rng, size, **kw)

        monkeypatch.setitem(experiments.SAMPLERS, name, counted)
    checked = {}
    evaluate = KsSuite.evaluate

    def force_every_retry(suite, retry_stream=None):
        for c in suite.checks:
            label, main = c["label"], c["result"]
            assert c["resample"] is not None, label
            a, b = c["resample"].args
            one_draw = not isinstance(b, tuple) or b[0] == a[0]
            calls.clear()
            retry = c["resample"](RngStream(7, 0xBEEF))
            # a paired or one-sample check redraws its one draw once
            assert len(calls) == (1 if one_draw else 2), label
            # same threshold, so the retry compares samples of the same sizes
            assert retry.threshold == main.threshold, label
            if one_draw and a[0].n <= a[0].batch:
                # on the stream of the main draw's only batch, the retry
                # repeats the main comparison exactly
                stream = RngStream(seed, experiments._stable_base(a[0].tag))
                assert c["resample"](stream).statistic == main.statistic, label
            checked[suite.name] = checked.get(suite.name, 0) + 1
        return evaluate(suite, retry_stream)

    monkeypatch.setattr(KsSuite, "evaluate", force_every_retry)
    for name, params in KS_SMALL.items():
        run_experiment(name, params, [seed], RunContext())
    # each suite is named after its experiment
    assert set(checked) == set(KS_SMALL)


def test_sheet_experiment_sweeps_once_per_environment(monkeypatch):
    # every start point of one mu rides one sweep, and each variance-study
    # n is one batched sweep, so per-start sweeps would show as more calls
    from hspolymer import she

    calls = []
    sweep = she.scaled_sheet_table

    def counted(*args, **kwargs):
        calls.append(args[2])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(she, "scaled_sheet_table", counted)
    params = {"n": 256, "mus": [-0.5, 0.0, 1.0], "var_ns": [16, 64],
              "var_replicas": 3}
    rep = run_experiment("sheet-convergence", params, [5], RunContext())
    assert len(calls) == len(params["mus"]) + len(params["var_ns"])
    xs = experiments.EXPERIMENTS["sheet-convergence"].defaults["Xs"]
    assert calls[:len(params["mus"])] == [xs] * len(params["mus"])
    assert sorted(rep["variance_study"]) == params["var_ns"]
