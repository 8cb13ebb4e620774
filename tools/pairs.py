"""Paired benchmark runs of a base commit against this checkout.

    python3 tools/pairs.py BASE --workload W [--seed S] [--pairs N] [--seconds T] [--json PATH]

Run inside a git checkout; the head is its working tree, uncommitted
changes included. BASE is anything git names as a commit (HEAD~, a sha, a
branch). The tool checks BASE out with `git worktree add --detach` under a
temporary directory and copies the head's `perfbench/` over the
worktree's, so that one harness measures both sides. It then runs
`perfbench/run.py --workload W --seed S --seconds T` on each side N times,
alternating which side runs first, and reads each run's last line, the
harness's JSON result, and its `reports_changed` line. It adds no metric.

For each metric it prints both medians, both sides' quartiles, the number
of pairs in which the head is lower, and whether a gain may be claimed:
the head lower in at least nine tenths of the pairs, and its median below
the base's by more than the base's interquartile range. For each side it
prints `reports_changed`, `correct` and `failed` of every run. With
--json it also writes every run and the summary to PATH. The worktree is
removed on every exit. Exits 0 when every run completed correct with no
failed experiment and no changed report, 1 otherwise, 2 on a bad BASE.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "head")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, text=True,
                          capture_output=True).stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in root: its metric values, `correct`,
    `failed` and `reports_changed` (an int, or None when the harness has no
    reference for the seed)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, text=True, capture_output=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    changed = next((line.split()[1] for line in lines
                    if line.startswith("reports_changed ")), "n/a")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "reports_changed": int(changed) if changed.isdigit() else None}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list) -> dict:
    """Per metric: each side's median and quartiles, the pairs in which the
    head is lower, and whether that is a gain by the pair rule."""
    names = [m for m in runs[0]["head"]["metrics"]
             if all(m in r[s]["metrics"] for r in runs for s in SIDES)]
    out = {}
    for name in names:
        vals = {s: [r[s]["metrics"][name] for r in runs] for s in SIDES}
        entry = {}
        for s in SIDES:
            q1, q3 = quartiles(vals[s])
            entry[s] = {"median": statistics.median(vals[s]), "q1": q1, "q3": q3}
        lower = sum(h < b for b, h in zip(vals["base"], vals["head"]))
        spread = entry["base"]["q3"] - entry["base"]["q1"]
        entry["head_lower"] = lower
        entry["gain"] = (lower >= 0.9 * len(runs) and
                         entry["base"]["median"] - entry["head"]["median"] > spread)
        out[name] = entry
    return out


def report(runs: list, summary: dict) -> bool:
    """Print the summary; True when every run was correct, failed no
    experiment and changed no report."""
    n = len(runs)
    print(f"{'metric':<14} {'base median [q1, q3]':<32} {'head median [q1, q3]':<32} "
          f"head lower  gain")
    for name, e in summary.items():
        cols = [f"{e[s]['median']:.6g} [{e[s]['q1']:.6g}, {e[s]['q3']:.6g}]"
                for s in SIDES]
        print(f"{name:<14} {cols[0]:<32} {cols[1]:<32} "
              f"{e['head_lower']:>2} of {n:<5} {'yes' if e['gain'] else 'no'}")
    ok = True
    for s in SIDES:
        fields = {k: [r[s][k] for r in runs] for k in ("reports_changed", "correct",
                                                      "failed")}
        ok &= (all(fields["correct"]) and not any(fields["failed"])
               and not any(fields["reports_changed"]))
        print(f"side {s}: " + "  ".join(
            f"{k} {' '.join('n/a' if v is None else str(v).lower() for v in vs)}"
            for k, vs in fields.items()))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", metavar="BASE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20261017)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    try:
        head = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
        base = git(head, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    # a terminated run still removes its worktree
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    tree = tmp / "base"
    runs = []
    try:
        git(head, "worktree", "add", "--detach", str(tree), base)
        shutil.rmtree(tree / "perfbench", ignore_errors=True)
        shutil.copytree(head / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        roots = {"base": tree, "head": head}
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], args.workload, args.seed,
                                      args.seconds)
            runs.append(pair)
            print(f"pair {k + 1} of {args.pairs} done ({order[0]} first)", flush=True)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=head,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=head, capture_output=True)

    summary = summarize(runs)
    print(f"base {base}  head {head} (working tree)  workload {args.workload}  "
          f"seed {args.seed}  {args.pairs} pairs of {args.seconds:g} s")
    ok = report(runs, summary)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"base": base, "workload": args.workload, "seed": args.seed,
             "pairs": args.pairs, "seconds": args.seconds, "runs": runs,
             "summary": summary}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
