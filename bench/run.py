"""actlab benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Without --trace each workload runs its
untraced phase (the end-to-end metrics) and then its traced phase (the
per-layer metrics); --trace 0 or --trace 1 runs only that phase. --seconds is
how long each phase measures; it defaults to BENCHMARK.json's run_seconds.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}. Each
workload runs in a child process of its own, so that its memory peak is its
own. Full results (every sample, fingerprints, the machine block) go to
.bench_runs/<run id>/result.json and, for the traced phase, the spans to
spans.csv.gz beside it. See bench/README.md.
"""

import os

# BLAS threads are pinned before numpy is first imported; children inherit it.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

MIN_TRACE_PAIRS = 2  # the traced phase alternates untraced and traced operations
SETUP_REPEATS = 7    # setup_s: median import time + median set-up time of this many each
COUNT_ITERS = (2, 6)  # counting run: per-iteration counts are the difference of two runs

END_TO_END = {  # name: unit
    "setup_s": "s", "adapt_iter_ms": "ms/iter", "adapted_accuracy": "ratio",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "tensor.backward_self_ms": "ms/iter",
    "tensor.backward_calls_per_iter": "calls/iter",
    "tensor.tape_nodes_per_backward": "nodes/call",
    "losses.objective_self_ms": "ms/iter",
    "losses.objective_calls_per_iter": "calls/iter",
    "optim.sam_step_self_ms": "ms/iter",
    "optim.adam_step_ms": "ms/iter",
    "models.forward_self_ms": "ms/iter",
    "models.forward_calls_per_iter": "calls/iter",
    "data.augment_batch_ms": "ms/iter",
    "data.augment_rows_per_iter": "rows/iter",
    "pipeline.adapt_self_ms_per_iter": "ms/iter",
    "pipeline.evaluate_ms": "ms/call",
    "pipeline.python_calls_per_iter": "calls/iter",
    "trace.overhead_ratio": "ratio",
}
# Layers that only some workloads exercise; reported when present, not in BENCHMARK.json.
WORKLOAD_LAYER = {
    "optim.sgd_step_ms": "ms/call",
    "pipeline.pretrain_s": "s/call",
    "pipeline.sweep_serial_share": "ratio",
    "models.checkpoint_save_ms": "ms/call",
    "models.checkpoint_load_ms": "ms/call",
    "models.checkpoint_bytes": "bytes",
    "config.load_ms": "ms/call",
    "cli.self_ms": "ms/call",
}


def _import_actlab():
    if not (SRC / "actlab" / "__init__.py").is_file():
        sys.exit(f"bench: no actlab sources under {SRC}; run from a full checkout")
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import actlab
    if Path(actlab.__file__).resolve().parent != (SRC / "actlab").resolve():
        sys.exit(f"bench: imported actlab from {actlab.__file__}, not from {SRC}")


def run_seconds():
    """The run length fixed by BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


# -- machine and process facts ------------------------------------------------------


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return list(os.getloadavg())


def machine_block():
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "machine": platform.machine(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "loadavg_start": _loadavg()}


def peak_rss_mb():
    """Peak RSS of this workload process plus the largest peak among its pool workers.

    A workload process has no other children, so RUSAGE_CHILDREN holds only its
    pool workers. Forked workers count the pages they share with this process
    again, so for the sweep this is an upper bound on physical memory.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def import_seconds():
    """Wall time of `import actlab.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import actlab.cli, actlab; "
            "print(time.perf_counter() - t); print(actlab.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    seconds, where = out.stdout.split()
    if Path(where).resolve().parent != (SRC / "actlab").resolve():
        raise RuntimeError(f"fresh interpreter imported actlab from {where}")
    return float(seconds)


def import_samples():
    """SETUP_REPEATS (import seconds, kernel seconds) of `import actlab.cli`."""
    import hostspeed
    clock = hostspeed.KernelClock()
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, _, kernel_s = clock.time(import_seconds)
        samples.append((seconds, kernel_s))
    return samples


# -- timing ---------------------------------------------------------------------------


def run_op(wl, state, i, clock):
    """One timed operation, between two runs of the host-speed kernel, plus its output check."""
    import hostspeed
    from workloads import data_seed
    op = {"index": i, "data_seed": data_seed(wl.seed, i)}
    prepared = wl.prepare(state, i)
    try:
        result, seconds, kernel_s = clock.time(lambda: wl.execute(state, prepared))
    except Exception:
        return {**op, "ok": False, "problems": [traceback.format_exc()]}
    try:
        out = wl.check(state, i, prepared, result)
    except Exception:
        return {**op, "ok": False, "problems": [traceback.format_exc()]}
    return {**op, "seconds": seconds, "kernel_s": kernel_s, "ok": out.ok,
            "iterations": out.iterations, "wall_iter_ms": seconds / out.iterations * 1e3,
            "iter_ms": hostspeed.scaled(seconds, kernel_s) / out.iterations * 1e3,
            "accuracy": out.accuracy,
            "no_adapt_accuracy": out.no_adapt_accuracy, "fingerprint": out.fingerprint,
            "problems": out.problems}


def tail(values):
    """(percentile, value) of the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    n = len(values)
    best = None
    for p in (90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = (p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1])
    return best


def measure_setup(wl, work, clock):
    """The workload's state and SETUP_REPEATS (set-up seconds, kernel seconds)."""
    samples = [clock.time(lambda: wl.setup(work)) for _ in range(SETUP_REPEATS)]
    return samples[-1][0], [s[1:] for s in samples]


def e2e_metrics(wl, ops, imports, setups):
    import hostspeed
    from workloads import REFERENCE_SEEDS
    good = [o for o in ops if o["ok"]]
    first = ops[:len(REFERENCE_SEEDS)]
    if not good:
        return {}, {}
    # Scaled times: mean wall time over the run's mean kernel time, so that
    # spells shorter than a run average out on both sides.
    setup_wall_s = (statistics.median(s[0] for s in imports)
                    + statistics.median(s[0] for s in setups))
    setup_kernel_s = statistics.fmean(s[1] for s in imports + setups)
    iter_wall_ms = statistics.fmean(o["wall_iter_ms"] for o in good)
    kernel_s = statistics.fmean(o["kernel_s"] for o in good)
    metrics = {
        "setup_s": hostspeed.scaled(setup_wall_s, setup_kernel_s),
        "adapt_iter_ms": hostspeed.scaled(iter_wall_ms, kernel_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    # The mean over the operations on REFERENCE_SEEDS, when all of them passed;
    # otherwise the run is already not correct.
    if all(o["ok"] for o in first):
        metrics["adapted_accuracy"] = statistics.fmean(o["accuracy"] for o in first)
    extra = {"samples": len(good), "failed_ratio": (len(ops) - len(good)) / len(ops),
             "adapt_iter_ms_tail": tail([o["iter_ms"] for o in good]),
             "setup_wall_s": setup_wall_s,
             "adapt_iter_wall_ms": statistics.median(o["wall_iter_ms"] for o in good),
             "host_slowdown": kernel_s / hostspeed.REFERENCE_S}
    if wl.name == "wide_cli":
        extra["cli_adapt_s"] = statistics.median(o["seconds"] for o in good)
    if wl.name == "sweep_seeds":
        extra["sweep_cells_per_s"] = statistics.median(wl.cells / o["seconds"] for o in good)
    return metrics, extra


def run_untraced(wl, state, seconds, clock):
    """Operations back to back for `seconds`, and at least those on REFERENCE_SEEDS."""
    from workloads import REFERENCE_SEEDS
    ops, i = [], 0
    deadline = time.perf_counter() + seconds
    while i < len(REFERENCE_SEEDS) or time.perf_counter() < deadline:
        ops.append(run_op(wl, state, i, clock))
        i += 1
    return ops


# -- traced phase ---------------------------------------------------------------------


def _bindings():
    import tracer
    return {(ns.__name__, attr): id(obj) for ns in tracer.namespaces()
            for attr, obj in vars(ns).items()}


def run_traced(wl, state, seconds, clock, out_dir, run_id):
    """Untraced and traced operations on the same inputs, alternating."""
    import tracer as tr
    t = tr.Tracer(out_dir)
    before = _bindings()
    plain, traced, problems = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        plain.append(run_op(wl, state, i, clock))
        t.call = i
        t.install()
        try:
            traced.append(run_op(wl, state, i, clock))
        finally:
            t.uninstall()
        t.merge_children()
        if _bindings() != before:
            problems.append(f"op {i}: wrapped functions were not all restored")
        if plain[-1].get("fingerprint") != traced[-1].get("fingerprint"):
            problems.append(f"op {i}: traced fingerprint differs from untraced")
        i += 1

    spans = t.spans()
    selfs = tr.self_times(spans)
    t.write(out_dir / "spans.csv.gz", wl.name, run_id, selfs)
    pairs = [(a, b) for a, b in zip(plain, traced) if a["ok"] and b["ok"]]
    if not pairs:
        return plain + traced, {}, {}, problems
    metrics, extra = layer_metrics(spans, selfs, sum(b["iterations"] for _, b in pairs))
    metrics.update(count_run(wl, state))
    metrics["trace.overhead_ratio"] = (statistics.median(b["iter_ms"] for _, b in pairs)
                                       / statistics.median(a["iter_ms"] for a, _ in pairs))
    extra["overhead_ratio_per_pair"] = [b["iter_ms"] / a["iter_ms"] for a, b in pairs]
    extra["spans"] = len(spans)
    return plain + traced, metrics, extra, problems


def layer_metrics(spans, selfs, iters):
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}

    def total_self(names):
        return sum(selfs[s[0]] for n in names for s in by_name.get(n, ()))

    def total_dur(names):
        return sum(s[3] - s[2] for n in names for s in by_name.get(n, ()))

    def count(names):
        return sum(len(by_name.get(n, ())) for n in names)

    def per_call_ms(name):
        n = count([name])
        return total_dur([name]) / n * 1e3 if n else None

    objectives = ("losses.step1_objective", "losses.step2_objective")

    def in_objective(sid):
        while sid != -1 and name_of.get(sid, "").startswith("losses."):
            if name_of[sid] in objectives:
                return True
            sid = parent_of.get(sid, -1)
        return False

    loss_self = sum(selfs[s[0]] for s in spans
                    if s[1].startswith("losses.") and in_objective(s[0]))
    forwards = [n for n in by_name if n.startswith("models.forward_")]
    per_iter = 1e3 / iters
    m = {
        "tensor.backward_self_ms": total_self(["tensor.backward"]) * per_iter,
        "tensor.backward_calls_per_iter": count(["tensor.backward"]) / iters,
        "losses.objective_self_ms": loss_self * per_iter,
        "losses.objective_calls_per_iter": count(objectives) / iters,
        "optim.sam_step_self_ms": total_self(["optim.sam_step"]) * per_iter,
        "optim.adam_step_ms": total_dur(["optim.adam_step"]) * per_iter,
        "models.forward_self_ms": total_self(forwards) * per_iter,
        "models.forward_calls_per_iter": count(forwards) / iters,
        "data.augment_batch_ms": total_dur(["data.augment_batch"]) * per_iter,
        "data.augment_rows_per_iter": sum(s[6] for s in by_name.get("data.augment_batch", ()))
        / iters,
        "pipeline.adapt_self_ms_per_iter": total_self(["pipeline.adapt"]) * per_iter,
        "pipeline.evaluate_ms": per_call_ms("pipeline.evaluate"),
    }
    extra = {
        "optim.sgd_step_ms": per_call_ms("optim.sgd_step"),
        "models.checkpoint_save_ms": per_call_ms("models.save_checkpoint"),
        "models.checkpoint_load_ms": per_call_ms("models.load_checkpoint"),
        "config.load_ms": per_call_ms("config.load_config"),
    }
    pretrain = per_call_ms("pipeline.pretrain_source")
    if pretrain is not None:
        extra["pipeline.pretrain_s"] = pretrain / 1e3
    saves = by_name.get("models.save_checkpoint", ())
    if saves:
        extra["models.checkpoint_bytes"] = statistics.fmean(s[6] for s in saves)
    if by_name.get("cli.main"):
        cli_names = [n for n in by_name if n.startswith("cli.")]
        extra["cli.self_ms"] = total_self(cli_names) / count(["cli.main"]) * 1e3
    sweeps = by_name.get("pipeline.seed_sweep", ())
    if sweeps:
        serial = sum(s[3] - s[2] for s in by_name.get("pipeline.pretrain_source", ())
                     if name_of.get(s[4]) == "pipeline.seed_sweep")
        extra["pipeline.sweep_serial_share"] = serial / total_dur(["pipeline.seed_sweep"])
    extra = {k: v for k, v in extra.items() if v is not None}
    return m, extra


def count_run(wl, state):
    """Exact per-iteration counts from short adaptation runs of the workload's task."""
    import tracer as tr
    from actlab import pipeline
    from workloads import POLICY
    bundle, split, cfg = wl.adapt_inputs(state)

    def adapt(n):
        return lambda: pipeline.adapt(bundle, split, POLICY, replace(cfg, total_iterations=n))

    lo, hi = COUNT_ITERS
    calls = [tr.count_python_calls(adapt(n)) for n in (lo, hi)]
    sizes = tr.count_tape_nodes(adapt(hi))
    return {"pipeline.python_calls_per_iter": (calls[1] - calls[0]) / (hi - lo),
            "tensor.tape_nodes_per_backward": sum(sizes) / len(sizes)}


# -- one workload, in its own process -------------------------------------------------


def run_workload(name, seed, seconds, phases, imports, out_dir):
    """Set up one workload, run the given phases (0 untraced, 1 traced), return the result."""
    import hostspeed
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed)
    clock = hostspeed.KernelClock()
    work = out_dir / "work"
    work.mkdir()
    metrics, units, details, ops, problems = {}, {}, {}, [], []
    try:
        state, setups = measure_setup(wl, work, clock)
        wl.warm(state)
        if 0 in phases:
            plain = run_untraced(wl, state, seconds, clock)
            m, extra = e2e_metrics(wl, plain, imports, setups)
            metrics.update(m)
            units.update(END_TO_END)
            details.update(extra)
            ops += plain
        if 1 in phases:
            both, m, extra, found = run_traced(wl, state, seconds, clock, out_dir,
                                                  out_dir.name)
            metrics.update(m)
            units.update(PER_LAYER)
            details.update(extra)
            ops += both
            problems += found
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not o["ok"] for o in ops)
    problems += [f"op {o['index']}: {p}" for o in ops for p in o["problems"]]
    correct = failed == 0 and not problems and set(metrics) == set(units)
    return {"workload": name, "run_id": out_dir.name, "seed": seed, "seconds": seconds,
            "phases": list(phases), "correct": correct,
            "attempted": len(ops), "failed": failed, "problems": problems,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units if k in metrics},
            "details": {**details, "setup": {"import_s": imports, "setup_work_s": setups}},
            "ops": ops}


def _workload_process(name, seed, seconds, phases, imports, out_dir):
    result = run_workload(name, seed, seconds, phases, imports, out_dir)
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")


def new_out_dir(name, seed):
    """A fresh .bench_runs/<run id> directory; the run id names workload, seed and time."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = ROOT / ".bench_runs" / f"{name}-seed{seed}-{stamp}-{os.getpid()}"
    out_dir, n = base, 1
    while out_dir.exists():
        out_dir, n = base.with_name(f"{base.name}-{n}"), n + 1
    out_dir.mkdir(parents=True)
    return out_dir


def run_in_child(name, seed, seconds, phases, imports):
    """Run one workload in a child process of its own and return its result.

    The child is forked from this process, which has run no workload, so its
    memory peak and its children (the sweep's pool workers) are the workload's own.
    Fork is safe here: this process starts no thread, and BLAS is pinned to one.
    A spawned child would also make the sweep's pool spawn its workers, since
    seed_sweep uses the default start method, and so change the workload.
    """
    out_dir = new_out_dir(name, seed)
    sys.stdout.flush()  # or the child would print this process's buffered lines again
    child = multiprocessing.get_context("fork").Process(
        target=_workload_process, args=(name, seed, seconds, phases, imports, out_dir))
    child.start()
    child.join()
    if child.exitcode != 0:
        sys.exit(f"bench: workload {name} ended with exit code {child.exitcode}")
    return json.loads((out_dir / "result.json").read_text()), out_dir


# -- entry point ------------------------------------------------------------------------


def _print_result(result):
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, phases {result['phases']}): "
          f"{result['attempted']} operations, {result['failed']} failed")
    for k, m in result["metrics"].items():
        print(f"  {k:34s} {m['value']:14.6g} {m['unit']}")
    details = result["details"]
    for k, unit in WORKLOAD_LAYER.items():
        if k in details:
            print(f"  {k:34s} {details[k]:14.6g} {unit}")
    if 0 in result["phases"]:
        for k, unit in (("setup_wall_s", "s"), ("adapt_iter_wall_ms", "ms/iter"),
                        ("host_slowdown", "ratio"), ("cli_adapt_s", "s"),
                        ("sweep_cells_per_s", "cells/s"), ("failed_ratio", "ratio"),
                        ("samples", "count")):
            if k in details:
                print(f"  {k:34s} {details[k]:14.6g} {unit}")
        t = details.get("adapt_iter_ms_tail")
        print(f"  {'adapt_iter_ms tail':34s} "
              + (f"p{t[0]} = {t[1]:.6g} ms/iter" if t else
                 f"n/a (p90 needs >= 100 samples, have {details.get('samples', 0)})"))
    for p in result["problems"]:
        print(f"  PROBLEM {p.strip().splitlines()[-1]}")


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = run_seconds() if args.seconds is None else args.seconds
    if seconds < 0:
        parser.error("--seconds must be >= 0")
    phases = (0, 1) if args.trace is None else (args.trace,)

    machine = machine_block()
    imports = import_samples() if 0 in phases else []  # only setup_s needs them
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, out_dir = run_in_child(name, args.seed, seconds, phases, imports)
        machine["loadavg_end"] = _loadavg()
        result["machine"] = machine
        (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
        _print_result(result)
        print(f"  results: {(out_dir / 'result.json').relative_to(ROOT)}")
        results.append(result)
    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas'].get('name')} "
          f"threads={machine['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"loadavg {' '.join(map(str, machine['loadavg_start']))} -> "
          f"{' '.join(map(str, machine['loadavg_end']))}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    _import_actlab()
    sys.exit(main())
