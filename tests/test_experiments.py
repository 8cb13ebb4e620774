import numpy as np
import pytest

from hspolymer import experiments
from hspolymer.experiments import RunContext, collect_samples, run_experiment


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


def test_collect_parallel_equals_serial(tmp_path):
    serial = collect_samples("burke", BURKE_KW, 11, 800, RunContext(),
                             batch=200)
    par = collect_samples("burke", BURKE_KW, 11, 800,
                          RunContext(out_dir=tmp_path, workers=4), batch=200)
    assert np.array_equal(serial, par)


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


def test_she_monotonicity_field_covers_its_window():
    # at this seed the monotonicity instance has max(x, y) < 2, so a bulk
    # field sized by the instance's own endpoints stopped short of the
    # heights the x_max = 3 window reads
    rep = run_experiment("she-identities", {"instances": 1}, [745539399],
                         RunContext())
    mono = rep["results"][-1]
    assert mono["test"] == "boundary-monotonicity"
    assert mono["pass"] and mono["checked"] > 0
