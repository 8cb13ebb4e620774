"""Time to verdict for hspolymer, on four workloads.

    python3 perfbench/run.py --workload lattice-mc [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. For `--seconds` seconds the benchmark
starts fresh worker processes one after another (perfbench/worker.py), each
importing the package from `src/` and running the workload's cold pass and
warm pass; it reports the median over those processes. With `--trace 1`
untraced and traced processes alternate: the traced ones give the
per-layer metrics, the untraced ones the tracing overhead. Every verdict is
checked, and every report is fingerprinted. The last line of standard
output is one JSON object; the lines above it are for people (see
perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("lattice-mc", "boundary-mc", "exact-dp", "resume")
DEFAULT_SEED = 20260801  # the acceptance seed
MIN_PROCESSES = 2
RUN_DEADLINE_S = 170.0  # a run must end well inside three minutes
REFERENCE = HERE / "reference_fingerprints.json"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def spawn(index: int, workload: str, seed: int, traced: bool, work: Path,
          deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    pdir = work / f"p{index}"
    result_path = work / f"result{index}.json"
    env = dict(os.environ, **{k: "1" for k in THREAD_PINS})
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(pdir), str(result_path)]
    t_spawn = time.monotonic()
    # own process group, so a timeout also ends the worker's pool children
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    ended = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - t_spawn
    result["process_s"] = ended - t_spawn
    result["traced"] = traced
    shutil.rmtree(pdir, ignore_errors=True)
    return result


def provenance(versions: dict) -> dict:
    info = {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine()}
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append(f"L{(idx / 'level').read_text().strip()}"
                          f"{(idx / 'type').read_text().strip()[0]}="
                          f"{(idx / 'size').read_text().strip()}")
        except OSError:
            pass
    info["caches"] = " ".join(caches) or "unknown"
    try:
        with open("/proc/meminfo") as fh:
            info["mem_total"] = fh.readline().split(":", 1)[1].strip()
    except OSError:
        info["mem_total"] = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        info["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        info["git_sha"] = "unavailable"
    return info


def describe(name, unit, values):
    return (f"{name:<12} {statistics.median(values):.6g} {unit} median over "
            f"n={len(values)} (min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src" / "hspolymer"
    if not (src / "__init__.py").is_file():
        print(f"error: no package at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    budget = min(args.seconds, RUN_DEADLINE_S - 10.0)
    work = Path.cwd() / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        while True:
            traced = bool(args.trace) and len(results) % 2 == 1
            results.append(spawn(len(results), args.workload, args.seed, traced,
                                 work, deadline))
            longest = max(r["process_s"] for r in results)
            elapsed = time.monotonic() - start
            if len(results) >= MIN_PROCESSES and elapsed + longest > budget:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]

    # verdicts and fingerprints: every pass of every process must agree
    attempted = failed = refuted = 0
    prints: dict[str, set] = {}
    for r in results:
        for phase in ("cold", "warm"):
            for step in r[phase]["steps"]:
                attempted += 1
                failed += not step["ok"]
                refuted += not (step["ok"] or step["raised"])
                prints.setdefault(step["name"], set()).add(step["fingerprint"])
    # a raising experiment is a failed operation; a report whose verdict
    # refutes a true identity, or reports that differ between passes or
    # between traced and untraced processes, are incorrect output
    deterministic = all(len(v) == 1 for v in prints.values())
    correct = refuted == 0 and deterministic

    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    seed_refs = refs.get(str(args.seed), {}).get(args.workload)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {len(plain)} untraced + {len(traced)} traced")
    for key, value in provenance(results[0]["versions"]).items():
        print(f"provenance {key} {value}")
    changed = 0
    for name, digests in prints.items():
        digest = next(iter(digests)) if len(digests) == 1 else "NONDETERMINISTIC"
        ref = seed_refs.get(name) if seed_refs else None
        same = "no reference for this seed" if ref is None else \
            ("matches reference" if ref == digest else "CHANGED")
        changed += ref is not None and ref != digest
        print(f"fingerprint {name} {digest} {same}")
    print(f"reports_changed {changed if seed_refs else 'n/a'} "
          f"(of {len(prints)} reports, against the reference for seed "
          f"{args.seed if seed_refs else '- none stored'})")

    for i, r in enumerate(results):
        print(f"process {i} {'traced' if r['traced'] else 'untraced'}: setup "
              f"{r['setup_s']:.4f} s, cold {r['cold']['seconds']:.4f} s wall "
              f"{r['cold']['cpu_s']:.4f} s cpu, warm {r['warm']['seconds']:.4f} s "
              f"wall {r['warm']['cpu_s']:.4f} s cpu")
    setup = [r["setup_s"] for r in plain]
    verdict = [r["cold"]["seconds"] for r in plain]
    resume = [r["warm"]["seconds"] for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]
    print(describe("setup_s", "s", setup))
    print(describe("verdict_s", "s", verdict))
    print(describe("resume_s", "s", resume))
    print(describe("peak_rss_mb", "MB", rss))
    print(f"fail_frac    {failed / attempted:.6g} fraction ({failed} of {attempted} "
          f"experiment runs failed: {failed - refuted} raised, {refuted} "
          f"returned a failing verdict)")
    for name in prints:
        secs = [s["seconds"] for r in plain for s in r["cold"]["steps"]
                if s["name"] == name]
        print(f"step {name} {statistics.median(secs):.6g} s median (cold pass)")

    if args.trace:
        overhead = (statistics.median([r["cold"]["seconds"] for r in traced])
                    - statistics.median(verdict))
        print(f"trace overhead {overhead:.6g} s on verdict_s (traced minus untraced)")
        if results[0]["pool_workers"]:
            print("trace covers the parent process only: sampler calls run in "
                  f"{results[0]['pool_workers']} forked pool children whose "
                  "spans are not collected")
        metrics = {}
        for name, unit in tracing.LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": unit}
            print(f"layer {name} {value:.6g} {unit}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "verdict_s": {"value": statistics.median(verdict), "unit": "s"},
            "resume_s": {"value": statistics.median(resume), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
