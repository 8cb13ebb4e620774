"""One measured process of the benchmark.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORK_DIR RESULT_JSON

Run from the root of a checkout. Imports the package from `src/` (which
pulls in numpy, scipy and click, as `polymer` does), stamps the moment it
is ready, then runs the workload's cold pass (the timed
verdict pass) and, in the same process, an identical warm pass (which in
`resume` finds every checkpoint written). Writes timings, verdicts, report
fingerprints, peak memory and, with TRACE=1, per-layer totals to
RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from hspolymer.rng import RngStream  # noqa: E402

READY = time.monotonic()


def run_pass(steps, seed: int, work: Path) -> dict:
    out = {"seconds": 0.0, "cpu_s": 0.0, "steps": []}
    start, cpu = time.perf_counter(), time.process_time()
    for name, fn in steps:
        t0 = time.perf_counter()
        try:
            report = fn(seed, work)
            ok, raised = bool(report["pass"]), False
            digest = workloads.fingerprint(report)
        except Exception as exc:  # a raising experiment is a failed one; go on
            traceback.print_exc()
            ok, raised = False, True
            digest = f"raised-{type(exc).__name__}"
        out["steps"].append({"name": name, "ok": ok, "raised": raised,
                             "fingerprint": digest,
                             "seconds": time.perf_counter() - t0})
    out["seconds"] = time.perf_counter() - start
    out["cpu_s"] = time.process_time() - cpu
    return out


def main(argv) -> int:
    from importlib.metadata import version

    workload, seed, traced, work, result_path = argv
    seed, traced, work = int(seed), traced == "1", Path(work)
    work.mkdir(parents=True, exist_ok=True)
    steps = workloads.steps(workload)
    tracer = tracing.Tracer().install() if traced else None
    cold = run_pass(steps, seed, work)
    if tracer is not None:
        tracer.pass_id = 1
    warm = run_pass(steps, seed, work)
    if tracer is not None:
        tracer.uninstall()
    # ru_maxrss is in KiB; a pool's children run side by side, so count the
    # largest one once per worker
    pool = workloads.RESUME_WORKERS if workload == "resume" else 0
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + pool * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "ready": READY, "cold": cold, "warm": warm,
        "peak_rss_mb": rss_kb / 1024.0, "pool_workers": pool,
        "versions": {**{dist: version(dist) for dist in ("numpy", "scipy", "click")},
                     "bit_generator": type(RngStream(0).gen.bit_generator).__name__},
    }
    if tracer is not None:
        lines = tracing.src_lines(Path.cwd() / "src" / "hspolymer")
        layers = tracing.layer_metrics(tracer.totals(0), tracer.totals(1), lines)
        if workload == "resume":
            layers["cli.report_bytes"] = float(
                workloads.report_path(work / "out").stat().st_size)
        result["layers"] = layers
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
