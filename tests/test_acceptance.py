"""Full-scale acceptance gate.

Criterion k runs the k-th catalog experiment at its acceptance sizes,
prints a single ACCEPTANCE line, and asserts the aggregate verdict. Run
with -s to see the lines stream; plain pytest shows them for failing
criteria. The whole module takes a few minutes.
"""

import time

import pytest

from hspolymer.experiments import EXPERIMENTS, RunContext, run_experiment

SEED = 20260801

pytestmark = pytest.mark.acceptance


@pytest.mark.parametrize("k,name", [
    pytest.param(k, name, id=f"criterion_{k:02d}")
    for k, name in enumerate(EXPERIMENTS, start=1)])
def test_criterion(k, name):
    t0 = time.monotonic()
    rep = run_experiment(name, EXPERIMENTS[name].acceptance, [SEED], RunContext())
    ok = rep["pass"]
    print(f"ACCEPTANCE {k} {name}: {'PASS' if ok else 'FAIL'} "
          f"({time.monotonic() - t0:.1f}s)")
    assert ok, f"criterion {k} ({name}) failed"
