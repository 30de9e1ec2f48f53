"""The benchmark's traced phase counts what adaptation does; this keeps it runnable.

bench/run.py's counting run drives `pipeline.adapt` with call and tape counters.
A refactor that leaves it nothing to count (no `tensor.backward` call, say)
would crash every workload's traced phase, and nothing else in the suite runs
it. The bench modules are imported as they are and only read.
"""

import importlib
import math
import os
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    environ = dict(os.environ)
    try:  # run.py pins the BLAS thread variables on import; keep this process's as they were
        return importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        os.environ.clear()
        os.environ.update(environ)


@pytest.mark.parametrize("workload", ["moons_ref", "wide_cli", "sweep_seeds"])
def test_count_run_gives_finite_counts(bench, tmp_path, workload):
    run, workloads = bench
    wl = workloads.WORKLOADS[workload](0)
    counts = run.count_run(wl, wl.setup(tmp_path))
    assert set(counts) == {"pipeline.python_calls_per_iter", "tensor.tape_nodes_per_backward"}
    assert all(math.isfinite(v) for v in counts.values()), counts
    assert counts["tensor.tape_nodes_per_backward"] > 0
    assert counts["pipeline.python_calls_per_iter"] > 0
