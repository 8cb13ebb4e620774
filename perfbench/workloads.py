"""The benchmark's four workloads, driven through the package's public calls.

A workload is a list of steps. Each step runs one catalog experiment (or,
in exact-dp, the exact-identity loop of acceptance criterion 1) and returns
the report the package produced. Parameters override catalog defaults only
where a full catalog pass would not fit a run; every override is a sample
count or a grid resolution, never a threshold or tolerance.

The seed of a run is the experiment seed, so only experiments whose verdict
holds at any seed are kept. Four catalog experiments are left out because
they fail at some seeds (perfbench/README.md, "Experiments left out"):
two-row-stationarity and lpp-stationarity, moments, and she-identities.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hspolymer import cli, experiments, lattice, lpp
from hspolymer.rng import RngStream

# experiment -> parameter overrides, per workload
LATTICE_MC = {
    "one-row-stationarity": {"n_samples": 20000},
    "permutation-symmetry": {"n_samples": 20000},
    "kpz-scaling": {"n_samples": 4000, "res_samples": 4000},
    "matching-identity": {"n_samples": 20000},
}
# huv carries over half of a pass, at a replica count where the H_{u,v}
# step loop's per-element work outweighs its fixed per-step cost
BOUNDARY_MC = {
    "zuv-properties": {"n_samples": 10000},
    "huv-properties": {"n_samples": 3000},
}
EXACT_DP = {
    "sheet-convergence": {"n": 2 ** 12},
}
RESUME_EXPERIMENT = "burke"
RESUME_PARAMS = {"n_samples": 200000}
RESUME_WORKERS = 2
CRITERION_1_OCTANTS = 100


def fingerprint(report: dict) -> str:
    """SHA-256 of a report without its timing field, in the CLI's encoding."""
    body = {k: v for k, v in report.items() if k != "wallclock_s"}
    text = json.dumps(body, indent=2, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def criterion_1(seed: int) -> dict:
    """Octant recurrences against brute-force enumeration on small octants,
    for the polymer and for last passage (acceptance criterion 1's loop)."""
    worst_polymer, worst_lpp = 0.0, 0.0
    for i in range(CRITERION_1_OCTANTS):
        rng = RngStream(seed, 100 + i)
        n = int(rng.gen.integers(1, 12))
        m = int(rng.gen.integers(1, min(n, 12 - n) + 1))
        params = lattice.OctantParams(float(rng.gen.uniform(0.2, 1.0)),
                                      rng.gen.uniform(0.6, 2.0, size=n))
        field = lattice.sample_weight_field(params, rng)
        grid = lattice.partition_recurrence(field, n, n)
        bf = lattice.partition_bruteforce(field, n, m)
        worst_polymer = max(worst_polymer,
                            abs(grid.log_z[n, m] - bf) / max(abs(bf), 1e-10))
        ep = lpp.LppExpParams(float(rng.gen.uniform(0.2, 1.0)),
                              tuple(rng.gen.uniform(0.6, 2.0, size=n)))
        w = lpp.sample_lpp_weights(ep, n, rng)
        g = lpp.lpp_recurrence(w, n)
        gb = lpp.lpp_bruteforce(w, n, m)
        worst_lpp = max(worst_lpp, abs(g.times[n, m] - gb) / max(abs(gb), 1.0))
    return {"experiment": "criterion-1", "seeds": [seed],
            "worst_polymer_rel_err": worst_polymer,
            "worst_lpp_rel_err": worst_lpp,
            "pass": bool(worst_polymer <= 1e-10 and worst_lpp <= 1e-10)}


def _catalog_steps(table: dict):
    return [(name, lambda seed, work, name=name, p=params:
             experiments.run_experiment(name, p, [seed],
                                        experiments.RunContext()))
            for name, params in table.items()]


def report_path(out: Path) -> Path:
    return out / f"{RESUME_EXPERIMENT}_report.json"


def _cli_run(seed: int, out: Path) -> dict:
    """`polymer run` through cli.main; returns the report it wrote."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = out.parent / "resume_config.json"
    cfg.write_text(json.dumps({"experiment": RESUME_EXPERIMENT,
                               "params": RESUME_PARAMS, "seeds": [seed]}))
    try:
        cli.main(["run", str(cfg), "--workers", str(RESUME_WORKERS),
                  "--out", str(out)], prog_name="polymer")
        code = 0
    except SystemExit as exc:
        code = exc.code
    if code not in (0, 1):
        raise RuntimeError(f"polymer run exited with {code}")
    report = json.loads(report_path(out).read_text())
    if (code == 0) != bool(report["pass"]):
        raise RuntimeError("exit status disagrees with the report verdict")
    return report


def steps(workload: str):
    """[(experiment name, fn(seed, work_dir) -> report)] for one pass."""
    if workload == "lattice-mc":
        return _catalog_steps(LATTICE_MC)
    if workload == "boundary-mc":
        return _catalog_steps(BOUNDARY_MC)
    if workload == "exact-dp":
        return [("criterion-1", lambda seed, work: criterion_1(seed))] + \
            _catalog_steps(EXACT_DP)
    if workload == "resume":
        return [(RESUME_EXPERIMENT, lambda seed, work: _cli_run(seed, work / "out"))]
    raise ValueError(f"unknown workload {workload!r}")

