import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hspolymer import experiments, lattice, lpp
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


def test_a_0d_checkpoint_part_is_redrawn(tmp_path):
    # a 0-d array under a part's name used to raise IndexError from the row
    # count check instead of being redrawn
    ctx = RunContext(out_dir=tmp_path)
    a = collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200)
    part = sorted((tmp_path / "checkpoints").glob("burke_*.npy"))[1]
    np.save(part, np.array(0.5))
    assert np.array_equal(
        collect_samples("burke", BURKE_KW, 7, 500, ctx, batch=200), a)
    assert np.load(part).shape == (200, a.shape[1])


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
    par = collect_samples("burke", BURKE_KW, 11, 800,
                          RunContext(out_dir=tmp_path, workers=4), batch=200)
    assert np.array_equal(serial, par)


_REAL_RUN_BATCH = experiments._run_batch


def _fail_third_batch(sampler, kwargs, seed, stream_id, size):
    """_run_batch, except that batch 2 of the tag "burke" raises."""
    if stream_id == experiments._stable_base("burke") + 2:
        raise RuntimeError("batch 2 failed")
    return _REAL_RUN_BATCH(sampler, kwargs, seed, stream_id, size)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_batch_is_checkpointed_as_it_lands(tmp_path, monkeypatch, workers,
                                                no_worker_left):
    fresh = collect_samples("burke", BURKE_KW, 7, 800, RunContext(), batch=200)
    with monkeypatch.context() as m:
        m.setattr(experiments, "_run_batch", _fail_third_batch)
        with pytest.raises(RuntimeError, match="batch 2 failed"):
            collect_samples("burke", BURKE_KW, 7, 800,
                            RunContext(out_dir=tmp_path, workers=workers),
                            batch=200)
    no_worker_left()
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
    # entry k is acceptance criterion k
    assert list(experiments.EXPERIMENTS) == [
        "she-identities", "burke", "one-row-stationarity", "two-row-stationarity",
        "permutation-symmetry", "zuv-properties", "lpp-stationarity",
        "huv-properties", "moments", "sheet-convergence", "kpz-scaling",
        "matching-identity"]
    for name, exp in experiments.EXPERIMENTS.items():
        assert exp.name == name
        assert exp.verifies
        assert isinstance(exp.defaults, dict)
        # an acceptance size overrides a parameter, with the default's type
        for key, value in exp.acceptance.items():
            assert key in exp.defaults, (name, key)
            assert type(value) is type(exp.defaults[key]), (name, key)


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


@pytest.mark.parametrize("sampler,kw", [
    ("zuv", {"alpha": 1.5, "u": 0.8, "v": 0.2}),
    ("zuv", {"alpha": 1.5, "u": 0.4, "v": 0.4}),
    ("zuv_pra", {"alpha": 1.5, "u": 0.8, "v": 0.2}),
], ids=["zuv_gt", "zuv_eq", "zuv_pra"])
@pytest.mark.parametrize("ks", [[-1, 2], [], [2.0, 3]], ids=["neg", "empty", "float"])
def test_walk_samplers_refuse_bad_ks(sampler, kw, ks):
    # numpy's negative indexing returned column k = 2 twice for ks = [-1, 2]
    with pytest.raises(ValueError):
        experiments.SAMPLERS[sampler](RngStream(0), 5, ks=ks, **kw)


def test_huv_delta_halving_reads_the_suite_statistic(monkeypatch):
    calls = []
    real = experiments.ks_one_sample

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, "ks_one_sample", counted)
    rep = run_experiment("huv-properties", {"xs": [0.5, 1.0, 2.0], "n_samples": 200,
                                            "delta": 2.0 ** -6}, [5], RunContext())
    assert rep["retried"] == []
    # the three Brownian marginals and the halved-delta one, no repeat
    assert len(calls) == 4
    results = {r["test"]: r for r in rep["results"]}
    assert results["delta-halving:X=1.0"]["d_at_delta"] == \
        results["brownian:X=1.0"]["statistic"]


@pytest.mark.parametrize("name,params", [
    ("she-identities", {"instances": 2}),
    ("sheet-convergence", {"n": 256, "var_ns": [16], "var_replicas": 2}),
])
def test_a_run_of_value_gates_makes_no_checkpoint_directory(tmp_path, name, params):
    run_experiment(name, params, [7], RunContext(out_dir=tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_she_monotonicity_field_covers_its_window():
    # at this seed the monotonicity instance has max(x, y) < 2, so a bulk
    # field sized by the instance's own endpoints stopped short of the
    # heights the x_max = 3 window reads
    rep = run_experiment("she-identities", {"instances": 1}, [745539399],
                         RunContext())
    mono = rep["results"][-1]
    assert mono["test"] == "boundary-monotonicity"
    assert mono["pass"] and mono["checked"] > 0


@pytest.mark.parametrize("module,oracle,broken,intact", [
    (lattice, "partition_bruteforce", "octant-recurrence", "lpp-recurrence"),
    (lpp, "lpp_bruteforce", "lpp-recurrence", "octant-recurrence"),
], ids=["polymer", "lpp"])
def test_a_planted_enumeration_defect_fails_its_own_gate(monkeypatch, module,
                                                         oracle, broken, intact):
    real = getattr(module, oracle)
    monkeypatch.setattr(module, oracle, lambda *a: real(*a) * (1.0 + 1e-9))
    rep = run_experiment("she-identities", {"instances": 2}, [20260801],
                         RunContext())
    results = {r["test"]: r for r in rep["results"]}
    assert not rep["pass"]
    assert not results[broken]["pass"] and results[intact]["pass"]


def test_octant_gates_equal_the_benchmark_loop():
    # the exact-dp workload keeps its own copy of the octant loop; the two
    # must give the same worst errors
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    want = workloads.criterion_1(20260801)
    rep = run_experiment("she-identities", {}, [20260801], RunContext())
    results = {r["test"]: r for r in rep["results"]}
    assert results["octant-recurrence"]["statistic"] == want["worst_polymer_rel_err"]
    assert results["lpp-recurrence"]["statistic"] == want["worst_lpp_rel_err"]


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


# one burke draw of three one-sample checks, small enough to run often
BURKE_SMALL = {"alpha_grid": [1.5], "u_spec": [0.3], "n_samples": 3000}


def _ks_files(out):
    return sorted((out / "checkpoints").glob("ks_*.npy"))


def test_ks_statistics_from_other_code_are_not_read(tmp_path, monkeypatch):
    fresh = run_experiment("burke", BURKE_SMALL, [7], RunContext())
    with monkeypatch.context() as m:
        m.setattr(experiments, "_code_hash", lambda: "older code")
        run_experiment("burke", BURKE_SMALL, [7], RunContext(out_dir=tmp_path))
    stale = _ks_files(tmp_path)
    assert len(stale) == 3
    for path in stale:
        np.save(path, np.array(0.5))
    # the samples have the same bytes under both codes; the key still differs
    assert run_experiment("burke", BURKE_SMALL, [7],
                          RunContext(out_dir=tmp_path)) == fresh
    assert len(set(_ks_files(tmp_path)) - set(stale)) == 3
    assert all(np.load(path) == 0.5 for path in stale)


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2],
    lambda data: data[:-4],
    lambda data: b"not a numpy file",
    lambda data: b"",
], ids=["truncated-header", "truncated-value", "garbage", "empty"])
def test_unreadable_ks_statistics_are_recomputed(tmp_path, monkeypatch, damage):
    ctx = RunContext(out_dir=tmp_path)
    cold = run_experiment("burke", BURKE_SMALL, [7], ctx)
    paths = _ks_files(tmp_path)
    saved = [p.read_bytes() for p in paths]
    paths[1].write_bytes(damage(saved[1]))
    calls = []
    real = experiments.ks_one_sample

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, "ks_one_sample", counted)
    assert run_experiment("burke", BURKE_SMALL, [7], ctx) == cold
    # the damaged statistic alone is recomputed, and rewritten as it was
    assert len(calls) == 1
    assert [p.read_bytes() for p in paths] == saved
    assert _ks_files(tmp_path) == paths
    assert not list((tmp_path / "checkpoints").glob("*.tmp"))


@pytest.mark.parametrize("value", [np.array([0.01, 0.02]), np.float32(0.01),
                                   np.array(1.5), np.array(np.nan)],
                         ids=["not-0-d", "float32", "above-1", "nan"])
def test_ks_statistics_that_are_no_distance_are_recomputed(tmp_path, value):
    ctx = RunContext(out_dir=tmp_path)
    cold = run_experiment("burke", BURKE_SMALL, [7], ctx)
    paths = _ks_files(tmp_path)
    saved = [p.read_bytes() for p in paths]
    np.save(paths[0], value)
    assert run_experiment("burke", BURKE_SMALL, [7], ctx) == cold
    assert [p.read_bytes() for p in paths] == saved


def _falling_cdf(x, theta):
    """Not a CDF: it falls. Module level, so it can be a KS reference."""
    return 1.0 - np.minimum(x / theta, 1.0)


def test_a_failed_monotonicity_guard_stores_no_statistic(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "inverse_gamma_cdf", _falling_cdf)
    for _ in range(2):
        with pytest.raises(ValueError, match="not monotone"):
            run_experiment("burke", BURKE_SMALL, [7], RunContext(out_dir=tmp_path))
        assert _ks_files(tmp_path) == []
        assert list((tmp_path / "checkpoints").glob("burke_*.npy"))


def _nan_cdf(x, theta):
    """Not a CDF: NaN everywhere."""
    return np.full(np.shape(x), np.nan)


def test_a_nan_cdf_stores_no_statistic(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "inverse_gamma_cdf", _nan_cdf)
    with pytest.raises(ValueError, match="NaN or outside"):
        run_experiment("burke", BURKE_SMALL, [7], RunContext(out_dir=tmp_path))
    assert _ks_files(tmp_path) == []


def test_a_run_without_out_dir_writes_nothing(tmp_path, monkeypatch):
    def no_write(*args):
        raise AssertionError("a file was written")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(experiments, "_save_atomic", no_write)
    run_experiment("burke", BURKE_SMALL, [7], RunContext())
    run_experiment("one-row-stationarity", {"n_samples": 1000}, [7], RunContext())
    assert list(tmp_path.iterdir()) == []


def test_each_sample_and_reference_keeps_its_own_statistic(tmp_path):
    from hspolymer.distributions import inverse_gamma_cdf

    ckpt = RunContext(out_dir=tmp_path).checkpoint_dir()
    d = experiments._Draw("burke", BURKE_KW, "burke", 2000)

    def ks(theta, seed=7):
        values = collect_samples("burke", BURKE_KW, seed, 2000, RunContext())
        return experiments._ks(lambda _: values, (d, 0),
                               functools.partial(inverse_gamma_cdf, theta=theta),
                               ckpt)

    first = ks(1.8)
    assert len(_ks_files(tmp_path)) == 1
    assert ks(2.4).statistic != first.statistic
    assert len(_ks_files(tmp_path)) == 2
    # a hit gives the result the test gave
    assert ks(1.8) == first
    assert len(_ks_files(tmp_path)) == 2
    # another sample of the same size is another statistic
    assert ks(1.8, seed=8).statistic != first.statistic
    assert len(_ks_files(tmp_path)) == 3


def _cdf_with(x, theta):
    return np.clip(x / theta, 0.0, 1.0)


@pytest.mark.parametrize("reference", [
    lambda x: np.clip(x, 0.0, 1.0),
    _cdf_with,
    functools.partial(_cdf_with, 2.0),
    functools.partial(lambda x, theta: np.clip(x / theta, 0.0, 1.0), theta=2.0),
], ids=["lambda", "bare-function", "positional-partial", "partial-of-lambda"])
def test_a_reference_no_key_can_name_is_refused(reference):
    d = experiments._Draw("burke", BURKE_KW, "burke", 100)
    values = np.linspace(0.1, 1.0, 100)
    with pytest.raises(TypeError, match="functools.partial"):
        experiments._ks(lambda _: values, (d, None), reference, None)
    # a keyword-only partial of a module-level function is a reference
    experiments._ks(lambda _: values, (d, None),
                    functools.partial(_cdf_with, theta=2.0), None)
