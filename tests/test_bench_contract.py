"""The benchmark's traced phase counts what adaptation does; this keeps it runnable.

bench/run.py's counting run drives `pipeline.adapt` with call and tape counters.
A refactor that leaves it nothing to count (no `tensor.backward` call, say)
would crash every workload's traced phase, and nothing else in the suite runs
it. The tape count is pinned: one node per adaptation step, whose one parent
is the gradient leaf of the vector the step trains. The bench modules are
imported as they are and only read.
"""

import gc
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


@pytest.fixture
def no_gc_callbacks():
    """Empty gc.callbacks in place for the test (hypothesis adds one once its tests have run).

    count_python_calls counts every Python call, a gc callback's too, so otherwise the
    call count moves with the collections that fall inside a counting run. The list
    must be emptied in place: the collector holds it, so a rebound name is not seen.
    """
    saved = gc.callbacks[:]
    gc.callbacks.clear()
    yield
    gc.callbacks[:] = saved


# tape nodes per backward: each adaptation step is one node over one leaf, the vector it
# trains (every parameter for step 1, the heads' tail for step 2)
TAPE_NODES = {"moons_ref": 2.0, "wide_cli": 2.0, "sweep_seeds": 2.0}


@pytest.mark.parametrize("workload", ["moons_ref", "wide_cli", "sweep_seeds"])
def test_count_run_gives_finite_counts(bench, tmp_path, workload, no_gc_callbacks):
    run, workloads = bench
    wl = workloads.WORKLOADS[workload](0)
    state = wl.setup(tmp_path)
    counts = run.count_run(wl, state)
    assert set(counts) == {"pipeline.python_calls_per_iter", "tensor.tape_nodes_per_backward"}
    assert all(math.isfinite(v) for v in counts.values()), counts
    assert counts["pipeline.python_calls_per_iter"] > 0
    # one node per step over one leaf, whichever vector the step trains
    _, _, cfg = wl.adapt_inputs(state)
    assert cfg.step_pattern == "12"
    expected = 1 + 1  # the node and its leaf, on both steps
    assert counts["tensor.tape_nodes_per_backward"] == expected == TAPE_NODES[workload]
    assert run.count_run(wl, state) == counts  # the counts repeat exactly


def test_the_benchmarks_fingerprint_is_the_public_one(bench):
    # bench/workloads.py fingerprints a bundle by its named parameters; that must stay
    # the fingerprint of its trained parameters, and the draw's digest must not move
    from actlab.models import build, clone_for_adaptation, params_fingerprint, trainable_params
    _, workloads = bench
    drawn = build(workloads.MOONS_MODEL)
    moved = clone_for_adaptation(drawn)
    moved.vector.data = moved.vector.data + 0.5
    for bundle in (drawn, moved):
        assert workloads._target_fingerprint(bundle) == \
            params_fingerprint(trainable_params(bundle, "all_target"))
    assert workloads._target_fingerprint(drawn) == \
        "e0933acb52e315dfb6a8c5d17292af4d26bf5498ff68de001cb92ba57e0c53f0"
    assert workloads._target_fingerprint(moved) != workloads._target_fingerprint(drawn)
