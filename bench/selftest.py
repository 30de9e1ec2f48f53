"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

For each workload it makes two traced runs of the minimum length and checks
that (1) every count metric repeats exactly across the two runs, (2) each run
is correct, which includes every traced operation training the same bits as
its untraced twin and every wrapped function being restored, and (3) after
both runs every actlab name is bound to its original object again. Exits 1
on any failure.
"""

import argparse
import sys

import run

COUNTS = ("tensor.backward_calls_per_iter", "tensor.tape_nodes_per_backward",
          "losses.objective_calls_per_iter", "models.forward_calls_per_iter",
          "data.augment_rows_per_iter", "pipeline.python_calls_per_iter")


def _counts(result):
    counts = {k: result["metrics"][k]["value"] for k in COUNTS}
    if "models.checkpoint_bytes" in result["details"]:
        counts["models.checkpoint_bytes"] = result["details"]["models.checkpoint_bytes"]
    return counts


def main():
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = parser.parse_args()

    failures = []
    before = run._bindings()
    for name in args.workload:
        runs = [run.run_workload(name, args.seed, 0.0, (1,), [],
                                 run.new_out_dir(name, args.seed))
                for _ in range(2)]
        for r in runs:
            if not r["correct"]:
                failures.append(f"{name}: traced run not correct: {r['problems']}")
        counts = [_counts(r) for r in runs]
        if counts[0] != counts[1]:
            failures.append(f"{name}: counts differ between runs: {counts}")
        print(f"{name}: counts {counts[0]}")
        print(f"{name}: fingerprints "
              f"{sorted({o['fingerprint'][:16] for o in runs[0]['ops']})}")
    if run._bindings() != before:
        failures.append("actlab bindings differ from their originals after the runs")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    run._import_actlab()
    sys.exit(main())
