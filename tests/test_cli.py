import json

import pytest
from click.testing import CliRunner

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
                                      "two_seeds"])
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
    res = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output


def test_missing_config_file(runner, tmp_path):
    res = runner.invoke(main, ["run", str(tmp_path / "absent.json")])
    assert res.exit_code == 2
