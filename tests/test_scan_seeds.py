import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from hspolymer import she

_PATH = Path(__file__).resolve().parents[1] / "tools" / "scan_seeds.py"
_SPEC = importlib.util.spec_from_file_location("scan_seeds", _PATH)
scan_seeds = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scan_seeds)


def _gate_lines(out):
    return {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}


def test_scan_of_she_identities_passes(capsys):
    seeds = [int(s) for s in np.random.default_rng(7).integers(0, 2**31 - 1, 3)]
    assert scan_seeds.draw_seeds(3, 7) == seeds
    code = scan_seeds.main(["she-identities", "--params", '{"instances": 4}',
                            "--seeds", "3", "--draw-seed", "7"])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = _gate_lines(out)
    assert set(lines) == {"octant-recurrence", "lpp-recurrence", "direct-vs-chaos",
                          "direct-vs-mild", "composition-law",
                          "kernel-normalization", "boundary-monotonicity"}
    assert all("failures 0  retries 0" in line for line in lines.values())
    # the monotone gate's threshold is 0: its worst statistic, not a ratio
    assert "worst statistic 0 at seed" in lines["boundary-monotonicity"]
    assert "statistic/threshold" in lines["direct-vs-chaos"]
    assert "passed 3 of 3 seeds" in out


def test_scan_of_a_planted_defect_fails(capsys, monkeypatch):
    real = she.modified_partition_chaos
    monkeypatch.setattr(she, "modified_partition_chaos",
                        lambda *a: real(*a) * (1.0 + 1e-9))
    code = scan_seeds.main(["she-identities", "--params", '{"instances": 2}',
                            "--seeds", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "failures 2" in _gate_lines(out)["direct-vs-chaos"]
    assert "failures 0" in _gate_lines(out)["direct-vs-mild"]
    assert "passed 0 of 2 seeds" in out


def test_scan_counts_retries_and_skips_ungated_failures(capsys, monkeypatch):
    def fake(name, params, seeds, ctx):
        seed = seeds[0]
        bad = seed == first
        return {"pass": not bad,
                "retried": [{"label": "ks"}] if bad else [],
                "results": [
                    {"test": "ks", "statistic": 0.5 + bad, "threshold": 0.1,
                     "pass": not bad},
                    {"test": "report", "statistic": 9.0, "threshold": 1.0,
                     "pass": False, "gated": False},
                ]}

    first = scan_seeds.draw_seeds(3, 11)[0]
    monkeypatch.setattr(scan_seeds, "run_experiment", fake)
    gates, failed = scan_seeds.scan("x", {}, scan_seeds.draw_seeds(3, 11))
    assert failed == [first]
    assert gates["ks"]["failures"] == 1 and gates["ks"]["retries"] == 1
    assert gates["ks"]["worst"] == (pytest.approx(15.0), first)
    assert gates["report"]["failures"] == 0 and not gates["report"]["gated"]
    assert scan_seeds.main(["x", "--seeds", "3", "--draw-seed", "11"]) == 1
    out = capsys.readouterr().out
    assert "failures ungated" in _gate_lines(out)["report"]
    assert f"failed seeds: {first}" in out


@pytest.mark.parametrize("argv", [["she-identities", "--params", "[1]"],
                                  ["she-identities", "--params", "{"],
                                  ["she-identities", "--seeds", "0"]])
def test_bad_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        scan_seeds.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["no-such-experiment", "--seeds", "1"],
                                  ["she-identities", "--seeds", "1",
                                   "--params", json.dumps({"instances": 0})]])
def test_bad_experiment_or_parameter_exits_2(argv, capsys):
    assert scan_seeds.main(argv) == 2
    assert "error:" in capsys.readouterr().err
