"""Run one experiment at many random seeds and summarise each gate.

    python tools/scan_seeds.py EXPERIMENT [--params JSON] [--seeds N] [--draw-seed S]

The package must be importable (`pip install -e .`, or PYTHONPATH=src). The
seeds are np.random.default_rng(S).integers(0, 2**31 - 1, N). Each seed is
one in-process run at the catalog defaults updated by --params, without an
output directory. For each gate label the scan prints the number of seeds
that failed it, the number that retried it, and its worst
statistic/threshold with that seed; for a gate whose threshold is 0 it
prints the worst statistic. A gate the report marks ungated never counts
as a failure. Exits 0 if every seed passed, 1 if any failed and 2 on a bad
experiment, parameter or option.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from hspolymer.experiments import RunContext, run_experiment


def draw_seeds(n: int, draw_seed: int) -> list:
    return [int(s) for s in np.random.default_rng(draw_seed).integers(0, 2**31 - 1, n)]


def scan(experiment: str, params: dict, seeds: list) -> tuple[dict, list]:
    """Per gate label: its failures and retries, whether it is gated and
    its worst (score, seed), the score being statistic/threshold, or the
    statistic at threshold 0; and the seeds whose report failed."""
    gates, failed = {}, []
    for seed in seeds:
        rep = run_experiment(experiment, params, [seed], RunContext())
        if not rep["pass"]:
            failed.append(seed)
        retried = {r["label"] for r in rep["retried"]}
        for r in rep["results"]:
            g = gates.setdefault(r["test"], {"failures": 0, "retries": 0,
                                             "gated": r.get("gated", True),
                                             "zero": r["threshold"] == 0.0,
                                             "worst": (-np.inf, None)})
            g["failures"] += g["gated"] and not r["pass"]
            g["retries"] += r["test"] in retried
            score = r["statistic"] / (r["threshold"] or 1.0)
            if score > g["worst"][0]:
                g["worst"] = (score, seed)
    return gates, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("experiment")
    ap.add_argument("--params", default="{}",
                    help="JSON object of parameters over the catalog defaults")
    ap.add_argument("--seeds", type=int, default=500, help="number of seeds")
    ap.add_argument("--draw-seed", type=int, default=20261020,
                    help="seed of the generator that draws the seeds")
    args = ap.parse_args(argv)
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        ap.error(f"--params is not JSON: {exc}")
    if not isinstance(params, dict):
        ap.error("--params must be a JSON object")
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    seeds = draw_seeds(args.seeds, args.draw_seed)
    start = time.monotonic()
    try:
        gates, failed = scan(args.experiment, params, seeds)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.experiment}: {len(seeds)} seeds drawn from {args.draw_seed}, "
          f"params {json.dumps(params, sort_keys=True)}")
    width = max(len(label) for label in gates)
    for label, g in gates.items():
        score, seed = g["worst"]
        kind = "statistic" if g["zero"] else "statistic/threshold"
        fails = g["failures"] if g["gated"] else "ungated"
        print(f"  {label:<{width}}  failures {fails}  retries {g['retries']}  "
              f"worst {kind} {score:.4g} at seed {seed}")
    print(f"passed {len(seeds) - len(failed)} of {len(seeds)} seeds "
          f"in {time.monotonic() - start:.1f} s")
    if failed:
        print(f"failed seeds: {' '.join(map(str, failed))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
