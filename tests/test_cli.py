import json

import pytest
from click.testing import CliRunner

from hspolymer import experiments
from hspolymer.cli import main
from hspolymer.experiments import EXPERIMENTS


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(path, **overrides):
    cfg = {"experiment": "burke", "params": {"n_samples": 3000}, "seeds": [42]}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_list_shows_whole_catalog(runner):
    res = runner.invoke(main, ["list"])
    assert res.exit_code == 0
    for name in EXPERIMENTS:
        assert name in res.output


def test_run_writes_report(runner, tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    res = runner.invoke(main, ["run", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "burke_report.json").read_text())
    assert rep["experiment"] == "burke"
    assert rep["pass"] is True
    assert rep["seeds"] == [42]
    assert "wallclock_s" in rep


def test_rerun_is_identical_modulo_wallclock(runner, tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert res.exit_code == 0
        rep = json.loads((out / "burke_report.json").read_text())
        rep["wallclock_s"] = None
        texts.append(json.dumps(rep, sort_keys=True))
    assert texts[0] == texts[1]


def test_seed_override_replaces_config_seeds(runner, tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    res = runner.invoke(main, ["run", cfg, "--seed-override", "7",
                               "--out", str(out)])
    assert res.exit_code == 0
    rep = json.loads((out / "burke_report.json").read_text())
    assert rep["seeds"] == [7]


@pytest.mark.parametrize("breakage", ["unknown_key", "not_json", "bad_seeds",
                                      "bad_experiment", "bad_param",
                                      "two_seeds", "bool_seed", "emit_csv_string",
                                      "out_dir_number"])
def test_config_errors_exit_2(runner, tmp_path, breakage):
    path = tmp_path / "c.json"
    if breakage == "unknown_key":
        _write_config(path, typo_key=1)
    elif breakage == "not_json":
        path.write_text("not json {")
    elif breakage == "bad_seeds":
        _write_config(path, seeds="many")
    elif breakage == "bad_experiment":
        _write_config(path, experiment="nonesuch")
    elif breakage == "bad_param":
        _write_config(path, params={"bogus": 1})
    elif breakage == "two_seeds":
        # every experiment runs at one seed; a second would be ignored
        _write_config(path, seeds=[1, 2])
    elif breakage == "bool_seed":
        # JSON true loads as a Python bool, which is an int subclass
        _write_config(path, seeds=[True])
    elif breakage == "emit_csv_string":
        # a non-empty string is truthy: "false" used to write the CSV dumps
        _write_config(path, emit_csv="false")
    elif breakage == "out_dir_number":
        _write_config(path, out_dir=5)
    res = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(runner, tmp_path, workers):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    res = runner.invoke(main, ["run", cfg, "--workers", workers, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["one-row-stationarity",
                                        "two-row-stationarity"])
def test_empty_offsets_exit_2(runner, tmp_path, experiment):
    # an empty offset list used to end in an IndexError, exit 1 ("failed")
    cfg = _write_config(tmp_path / "c.json", experiment=experiment,
                        params={"offsets": [], "n_samples": 2000})
    res = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "offsets" in res.output


@pytest.mark.parametrize("experiment,params", [
    ("one-row-stationarity", {"m_list": [], "n_samples": 2000}),
    ("one-row-stationarity", {"m_list": [2], "n_samples": 2000}),
    ("matching-identity", {"points": [], "n_samples": 2000}),
    ("burke", {"alpha_grid": [], "n_samples": 2000}),
    ("permutation-symmetry", {"perms": [], "n_samples": 2000}),
    ("lpp-stationarity", {"offsets": [], "n_samples": 2000}),
    ("kpz-scaling", {"Ts": [], "n_samples": 2000}),
    ("kpz-scaling", {"Xs": [], "n_samples": 2000}),
    ("sheet-convergence", {"Ts": [], "n": 256}),
    ("sheet-convergence", {"Ys": [], "n": 256}),
    ("huv-properties", {"xs": [], "n_samples": 2000}),
    ("lpp-stationarity", {"lim_eps": [], "n_samples": 2000}),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_empty_axis_exit_2(runner, tmp_path, experiment, params):
    # each of these used to pass with no check run (exit 0), drop every
    # pairwise check, end in an IndexError (exit 1, "failed"), or exit 2
    # with a min() or max() message that named no parameter
    cfg = _write_config(tmp_path / "c.json", experiment=experiment, params=params)
    res = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert repr(next(iter(params))) in res.output
    assert not (tmp_path / "o" / f"{experiment}_report.json").exists()


@pytest.mark.parametrize("x", [float("inf"), float("nan"), -1.0, float("-inf")],
                         ids=["inf", "nan", "negative", "-inf"])
def test_a_non_finite_huv_x_exits_2(runner, tmp_path, monkeypatch, x):
    # an infinite X used to end in an OverflowError (exit 1, "failed"), a
    # NaN in an exit 2 whose message named no parameter, and a negative X
    # in "math domain error" from the reference CDF's sqrt(X)
    def no_draw(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(experiments, "_run_batch", no_draw)
    cfg = _write_config(tmp_path / "c.json", experiment="huv-properties",
                        params={"xs": [0.5, x], "n_samples": 2000})
    res = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "'xs'" in res.output
    assert "recorded X must be finite" in res.output
    assert not (tmp_path / "o" / "huv-properties_report.json").exists()


@pytest.mark.parametrize("experiment,params", [
    ("burke", {"alpha_grid": 1.5}),
    ("burke", {"u_spec": "half"}),
    ("one-row-stationarity", {"offsets": 3}),
    ("kpz-scaling", {"Xs": 0.5}),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_a_scalar_for_a_list_parameter_exits_2(runner, tmp_path, monkeypatch,
                                               experiment, params):
    # a scalar alpha_grid used to raise TypeError out of exp_burke, exit 1
    # ("failed"), after the config had been accepted
    def no_draw(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(experiments, "_run_batch", no_draw)
    cfg = _write_config(tmp_path / "c.json", experiment=experiment,
                        params=dict(params, n_samples=2000))
    res = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert repr(next(iter(params))) in res.output
    assert not (tmp_path / "o" / f"{experiment}_report.json").exists()


@pytest.mark.parametrize("params", [{"n": 256, "Xs": [0.0625, 0.5]}, {"n": 25}],
                         ids=["X-off-level-n/4", "odd-sqrt-n"])
def test_kpz_resolution_check_is_refused_before_any_draw(runner, tmp_path,
                                                         monkeypatch, params):
    # level n // 4 used to be built only after the whole suite had drawn
    def no_draw(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(experiments, "_run_batch", no_draw)
    cfg = _write_config(tmp_path / "c.json", experiment="kpz-scaling",
                        params=dict(params, n_samples=300, res_samples=300))
    res = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "resolution_check" in res.output


def test_a_bad_lim_eps_is_refused_before_any_draw(runner, tmp_path, monkeypatch):
    # an increasing grid used to be refused only by the limit draw, after the
    # 13 row draws, in an error that named no parameter
    def no_draw(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(experiments, "_run_batch", no_draw)
    cfg = _write_config(tmp_path / "c.json", experiment="lpp-stationarity",
                        params={"lim_eps": [0.01, 0.1], "n_samples": 2000,
                                "lim_samples": 500})
    res = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "lim_eps" in res.output
    assert not (tmp_path / "o" / "lpp-stationarity_report.json").exists()


@pytest.mark.parametrize("n_alim", [0, -3])
def test_a_bad_n_alim_is_refused_before_any_draw(runner, tmp_path, monkeypatch,
                                                 n_alim):
    # n_alim = 0 used to be refused only by the a-limit draw, after the seven
    # earlier draws, in an error that named no parameter
    def no_draw(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(experiments, "_run_batch", no_draw)
    cfg = _write_config(tmp_path / "c.json", experiment="zuv-properties",
                        params={"n_alim": n_alim, "n_samples": 2000})
    res = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "n_alim" in res.output
    assert not (tmp_path / "o" / "zuv-properties_report.json").exists()


@pytest.mark.parametrize("experiment,params", [
    ("moments", {"moment_ns": [], "mc_samples": 2000}),
    ("sheet-convergence", {"mus": [], "var_ns": [16], "var_replicas": 2}),
    ("she-identities", {"instances": 0}),
], ids=["moment_ns", "mus", "instances"])
def test_empty_sheet_and_moment_axes_exit_2(runner, tmp_path, experiment, params):
    # empty moment_ns used to end in an IndexError (exit 1, "failed"); empty
    # mus and zero instances used to pass with no check of theirs run
    cfg = _write_config(tmp_path / "c.json", experiment=experiment, params=params)
    res = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "o" / f"{experiment}_report.json").exists()


@pytest.mark.parametrize("via", ["config", "--out"])
def test_an_output_directory_below_a_file_exits_2(runner, tmp_path, monkeypatch,
                                                   via):
    # mkdir used to raise NotADirectoryError out of `polymer run`, exit 1
    # ("failed"), with a traceback
    def no_draw(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(experiments, "_run_batch", no_draw)
    (tmp_path / "f").write_text("")
    out = str(tmp_path / "f" / "out")
    if via == "config":
        res = runner.invoke(main, ["run", _write_config(tmp_path / "c.json",
                                                        out_dir=out)])
    else:
        res = runner.invoke(main, ["run", _write_config(tmp_path / "c.json"),
                                   "--out", out])
    assert res.exit_code == 2, res.output
    assert f"cannot create output directory {out!r}" in res.output


def test_missing_config_file(runner, tmp_path):
    res = runner.invoke(main, ["run", str(tmp_path / "absent.json")])
    assert res.exit_code == 2


def _pooled_config(path):
    # two draws of two batches each (50000 + 1 samples): both need the pool
    return _write_config(path, params={"alpha_grid": [1.5],
                                       "u_spec": [0.0, "half"],
                                       "n_samples": 50001})


def _polymer(*args):
    with pytest.raises(SystemExit) as exc:
        main(["run", *args], prog_name="polymer")
    return exc.value.code


def test_run_starts_a_pool_per_draw_and_a_warm_run_none(tmp_path, counted_pools,
                                                        no_worker_left):
    cfg = _pooled_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert _polymer(cfg, "--workers", "2", "--out", str(out)) == 0
    assert counted_pools.started == 2
    no_worker_left()
    cold = json.loads((out / "burke_report.json").read_text())
    # every batch is checkpointed, so the rerun reads them and starts no pool
    assert _polymer(cfg, "--workers", "2", "--out", str(out)) == 0
    assert counted_pools.started == 2
    no_worker_left()
    warm = json.loads((out / "burke_report.json").read_text())
    cold["wallclock_s"] = warm["wallclock_s"] = None
    assert cold == warm
    # a draw with one batch missing draws it on the calling thread
    sorted((out / "checkpoints").glob("*_0000.npy"))[0].unlink()
    assert _polymer(cfg, "--workers", "2", "--out", str(out)) == 0
    assert counted_pools.started == 2


@pytest.mark.parametrize("experiment,params", [
    ("burke", {"alpha_grid": [1.5], "u_spec": [0.0, "half"], "n_samples": 50001}),
    ("one-row-stationarity", {"m_list": [1, 2], "n_samples": 50001}),
])
def test_two_workers_give_the_one_worker_report(tmp_path, counted_pools,
                                                experiment, params):
    # 50001 samples are two batches per draw, so two workers draw on a pool
    cfg = _write_config(tmp_path / "c.json", experiment=experiment, params=params)
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert _polymer(cfg, "--workers", workers, "--out", str(out)) == 0
        text = (out / f"{experiment}_report.json").read_text()
        texts.append([line for line in text.splitlines()
                      if '"wallclock_s"' not in line])
    assert counted_pools.started > 0
    assert texts[0] == texts[1]


def test_a_larger_rerun_into_one_out_redraws_the_tail_batch(tmp_path):
    # 70000 = 50000 + 20000 samples and 100000 = 50000 + 50000: batch 1 has
    # one checkpoint name in both runs
    def config(name, n):
        return _write_config(tmp_path / name, seeds=[7], params={
            "alpha_grid": [1.5], "u_spec": [0.3], "n_samples": n})

    out = tmp_path / "out"
    assert _polymer(config("small.json", 70000), "--out", str(out)) == 0
    big = config("big.json", 100000)
    assert _polymer(big, "--out", str(out)) == 0
    assert _polymer(big, "--out", str(tmp_path / "fresh")) == 0
    grown, fresh = (json.loads((d / "burke_report.json").read_text())
                    for d in (out, tmp_path / "fresh"))
    assert [r["threshold"] for r in grown["results"]] == \
        [pytest.approx(0.006165, abs=1e-6)] * 3
    grown["wallclock_s"] = fresh["wallclock_s"] = None
    assert grown == fresh


@pytest.mark.parametrize("experiment,params", [
    ("burke", {"alpha_grid": [1.5], "u_spec": [0.3], "n_samples": 3000}),
    ("one-row-stationarity", {"n_samples": 2000}),
    # the zero-temperature limit's three checks included
    ("lpp-stationarity", {"n_samples": 3000, "lim_samples": 3000}),
])
def test_a_warm_run_reads_every_ks_statistic(tmp_path, monkeypatch, experiment,
                                             params):
    from hspolymer import stats

    cfg = _write_config(tmp_path / "c.json", experiment=experiment, params=params)
    out = tmp_path / "out"
    assert _polymer(cfg, "--out", str(out)) == 0
    cold = json.loads((out / f"{experiment}_report.json").read_text())
    ckpt = sorted((out / "checkpoints").iterdir())
    # one stored statistic per result
    assert len([p for p in ckpt if p.name.startswith("ks_")]) == len(cold["results"])

    def no_test(*args, **kwargs):
        raise AssertionError("a sample was drawn or a KS statistic recomputed")

    for owner, name in [(experiments, "_run_batch"), (experiments, "ks_one_sample"),
                        (experiments, "ks_two_sample"), (stats, "ks_two_sample")]:
        monkeypatch.setattr(owner, name, no_test)
    assert _polymer(cfg, "--out", str(out)) == 0
    warm = json.loads((out / f"{experiment}_report.json").read_text())
    cold["wallclock_s"] = warm["wallclock_s"] = None
    assert cold == warm
    assert sorted((out / "checkpoints").iterdir()) == ckpt


_REAL_RUN_BATCH = experiments._run_batch


def _fail_second_tail_batch(sampler, kwargs, seed, stream_id, size):
    """Raises on the one-sample tail batch of the second draw (u = "half")."""
    if size == 1 and kwargs["u"] != 0.0:
        raise RuntimeError("tail batch failed")
    return _REAL_RUN_BATCH(sampler, kwargs, seed, stream_id, size)


def test_error_in_a_pool_child_reaches_the_caller(tmp_path, monkeypatch,
                                                  counted_pools, no_worker_left):
    monkeypatch.setattr(experiments, "_run_batch", _fail_second_tail_batch)
    cfg = _pooled_config(tmp_path / "c.json")
    with pytest.raises(RuntimeError, match="tail batch failed"):
        main(["run", cfg, "--workers", "2", "--out", str(tmp_path / "out")],
             prog_name="polymer")
    assert counted_pools.started == 2
    no_worker_left()
