"""A/B benchmark of a base revision against the working tree, in alternating pairs.

    python3 tools/pairs.py --base REV --out BENCH_<n>.json [--workload W ...]
        [--pairs N] [--seconds S] [--bits-change]

Run from the root of a checkout. The base revision is checked out with
``git worktree`` and the change is a copy of the working tree's files
(``git ls-files -co --exclude-standard``), so uncommitted work can be
measured. Both go into one temporary directory at the same depth and with
paths of the same length, since the checkout location alone can shift a
timing. For each workload and each seed 1..N the unmodified
``bench/run.py --workload W --seed s --seconds S --trace 0`` runs once in
each checkout, the base first for odd seeds and the change first for even
ones, and each run's ``.bench_runs/<id>/result.json`` is read back.
``bench/selftest.py`` runs once on each side too, and so does
``tests/fidelity.py`` (with ``PYTHONPATH=src``), whose lines a change that
keeps every bit prints unchanged.

The report holds the command line and both revisions; per pair, every
end-to-end metric of both sides and whether the parameter fingerprints of the
data seeds both runs reached agree; per metric, each side's median and
quartiles, how many pairs the change was better, worse or tied, the median
per-pair ratio, whether a gain may be claimed (better in at least nine tenths
of the pairs, by more than the base's interquartile range), whether the
change stays within BENCHMARK.json's bound, and whether the runs resolve the
metric at all (``resolved`` is false, and the printed line says
``unresolved``, when the base's interquartile range over its median exceeds
the bound, unless every change run is better than every base run); both machine blocks; every
self-test count that moved, which is also printed after the metrics as
``<workload> <count> <base> -> <change>``; and whether the two fidelity outputs match, with
the numbers of the lines that differ and each side's exit code. The report
is not written, and the command exits 1, if a run is not correct or has
failed operations, or if a side's self-test does not print ``selftest: ok``;
and also if any fingerprint differs, the fidelity outputs differ or a
fidelity run exits non-zero, unless ``--bits-change`` says the change alters
trained bits on purpose. The command needs no network.
"""

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# -- the pure parts: pairing, statistics, the refusal ---------------------------------


def pair_order(seed):
    """The sides of pair `seed` in the order they run: the base first for odd seeds."""
    return ("base", "change") if seed % 2 else ("change", "base")


def read_run(result):
    """(end-to-end metric values, {data seed: fingerprint}) of one run's result.json."""
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    fingerprints = {op["data_seed"]: op["fingerprint"] for op in result["ops"]
                    if op.get("ok") and "fingerprint" in op}
    return metrics, fingerprints


def fingerprints_agree(base, change):
    """(agree, data seeds compared): both runs' fingerprints on every data seed both reached.

    Runs are time-bounded, so the two sides reach different numbers of
    operations; they always share the reference seeds. No shared seed is no
    agreement.
    """
    shared = sorted(set(base) & set(change))
    return bool(shared) and all(base[s] == change[s] for s in shared), len(shared)


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_summary(pairs, better, bound):
    """Statistics of one metric over its (base, change) pairs.

    `better` is "lower" or "higher"; `bound` is the relative worsening of the
    median that BENCHMARK.json allows.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) > 0 for b, c in pairs)
    bq, cq = quartiles(base), quartiles(change)
    gain = sign * (bq[1] - cq[1])  # how much better the change's median is
    relative = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
    every_run_better = all(sign * (b - c) > 0 for b in base for c in change)
    return {
        "better": better,
        "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
        "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
        "pairs": len(pairs), "change_better": wins, "change_worse": losses,
        "ties": len(pairs) - wins - losses,
        "median_ratio": statistics.median(c / b for b, c in pairs) if all(base) else None,
        "median_change": relative,
        "gain": wins * 10 >= 9 * len(pairs) and gain > bq[2] - bq[0],
        "within_bound": sign * relative <= bound,
        # a base spread wider than the bound cannot tell a change within it from none
        "resolved": spread <= bound or every_run_better,
    }


def summarize(runs, end_to_end):
    """Per-workload report of `runs`: {workload: [(seed, base result, change result)]}.

    `end_to_end` is BENCHMARK.json's list of {name, better, bound}.
    """
    report = {}
    for workload, pairs in runs.items():
        rows, values = [], {}
        for seed, base, change in pairs:
            (bm, bf), (cm, cf) = read_run(base), read_run(change)
            agree, shared = fingerprints_agree(bf, cf)
            rows.append({"seed": seed, "first": pair_order(seed)[0],
                         "base": bm, "change": cm,
                         "failed": {"base": base["failed"], "change": change["failed"]},
                         "correct": {"base": base["correct"], "change": change["correct"]},
                         "fingerprints_match": agree, "data_seeds_compared": shared})
            for name in set(bm) & set(cm):
                values.setdefault(name, []).append((bm[name], cm[name]))
        report[workload] = {
            "pairs": rows,
            "fingerprints_match": all(r["fingerprints_match"] for r in rows),
            "metrics": {m["name"]: metric_summary(values[m["name"]], m["better"], m["bound"])
                        for m in end_to_end if m["name"] in values},
        }
    return report


def parse_selftest(stdout):
    """{workload: {count: value}} and the verdict line of one bench/selftest.py run."""
    counts, verdict = {}, None
    for line in stdout.splitlines():
        name, sep, rest = line.partition(": counts ")
        if sep:
            counts[name] = ast.literal_eval(rest)
        elif line.startswith("selftest: "):
            verdict = line.removeprefix("selftest: ")
    return counts, verdict


def moved_counts(base, change):
    """{workload: {count: [base, change]}} for every self-test count that differs."""
    moved = {}
    for workload in sorted(set(base) | set(change)):
        b, c = base.get(workload, {}), change.get(workload, {})
        diff = {k: [b.get(k), c.get(k)] for k in sorted(set(b) | set(c)) if b.get(k) != c.get(k)}
        if diff:
            moved[workload] = diff
    return moved


def compare_fidelity(base, change):
    """The report's fidelity block from each side's {stdout, exit_code} of tests/fidelity.py."""
    differ = [n for n, (b, c) in enumerate(zip_longest(base["stdout"].splitlines(),
                                                       change["stdout"].splitlines()), 1)
              if b != c]
    return {"match": not differ, "differing_lines": differ,
            "exit_code": {"base": base["exit_code"], "change": change["exit_code"]}}


def refusal(report, bits_change):
    """Why the report may not be written, or None.

    A run that is not correct or has failed operations, and a side whose
    bench/selftest.py did not pass, measure nothing worth comparing; a
    fingerprint that differs, fidelity lines that differ and a fidelity run
    that fails are refused unless the change is declared to alter bits.
    """
    why = []
    broken = [f"{side} on {w} seed {r['seed']}" for w, s in report["workloads"].items()
              for r in s["pairs"] for side in ("base", "change")
              if not r["correct"][side] or r["failed"][side]]
    if broken:
        why.append("runs not correct or with failed operations: " + ", ".join(broken))
    for side in ("base", "change"):
        selftest = report["selftest"][side]
        if selftest["verdict"] != "ok" or selftest["exit_code"]:
            why.append(f"bench/selftest.py on the {side} side did not print 'selftest: ok' "
                       f"(it printed {selftest['verdict']!r}, exit code {selftest['exit_code']})")
    bits = []
    differ = [f"{w} seed {r['seed']}" for w, s in report["workloads"].items()
              for r in s["pairs"] if not r["fingerprints_match"]]
    if differ:
        bits.append("fingerprints differ between base and change on " + ", ".join(differ))
    fidelity = report["fidelity"]
    if not fidelity["match"]:
        bits.append("tests/fidelity.py prints different lines on the two sides: "
                    + ", ".join(map(str, fidelity["differing_lines"])))
    bits += [f"tests/fidelity.py exited {code} on the {side} side"
             for side, code in fidelity["exit_code"].items() if code]
    if bits and not bits_change:
        why.append("; ".join(bits) + "; pass --bits-change if the change alters trained "
                   "bits on purpose")
    return "; ".join(why) or None


# -- the runs ---------------------------------------------------------------------------


def git(*args, check=True):
    return subprocess.run(["git", *args], cwd=ROOT, check=check, capture_output=True,
                          text=True).stdout


def copy_working_tree(dest):
    """Copy the working tree's tracked and untracked, not ignored, files into `dest`."""
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(checkout, workload, seed, seconds):
    """One untraced bench/run.py run in `checkout`; its result.json."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, check=True, capture_output=True, text=True)
    marker = "  results: "
    paths = [line[len(marker):] for line in out.stdout.splitlines() if line.startswith(marker)]
    if len(paths) != 1:
        raise RuntimeError(f"bench/run.py in {checkout} named {len(paths)} result files")
    return json.loads((checkout / paths[0]).read_text())


def run_selftest(checkout):
    out = subprocess.run([sys.executable, "bench/selftest.py"], cwd=checkout,
                         capture_output=True, text=True)
    counts, verdict = parse_selftest(out.stdout)
    return {"counts": counts, "verdict": verdict, "exit_code": out.returncode}


def run_fidelity(checkout):
    """One tests/fidelity.py run in `checkout`, with its src on the path: stdout and exit code."""
    out = subprocess.run([sys.executable, "tests/fidelity.py"], cwd=checkout,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": "src"})
    return {"stdout": out.stdout, "exit_code": out.returncode}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="report path, e.g. BENCH_<n>.json")
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workloads to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--bits-change", action="store_true",
                        help="write the report even if fingerprints differ")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0:
        parser.error("--pairs must be >= 1 and --seconds >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json has {known}")
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}").strip()

    tmp = Path(tempfile.mkdtemp(prefix="actlab-pairs-"))
    sides = {"base": tmp / "a" / "actlab", "change": tmp / "b" / "actlab"}
    try:
        git("worktree", "add", "--detach", str(sides["base"]), base_rev)
        sides["change"].mkdir(parents=True)
        copy_working_tree(sides["change"])
        runs, machines = {}, {}
        for workload in workloads:
            runs[workload] = []
            for seed in range(1, args.pairs + 1):
                result = {}
                for side in pair_order(seed):
                    result[side] = run_bench(sides[side], workload, seed, args.seconds)
                    machines.setdefault(side, result[side]["machine"])
                    print(f"{workload} seed {seed} {side}: adapt_iter_ms "
                          f"{result[side]['metrics']['adapt_iter_ms']['value']:.4g}", flush=True)
                runs[workload].append((seed, result["base"], result["change"]))
        selftest = {side: run_selftest(path) for side, path in sides.items()}
        fidelity = {side: run_fidelity(path) for side, path in sides.items()}
    finally:
        git("worktree", "remove", "--force", str(sides["base"]), check=False)
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "command": ["python3", "tools/pairs.py", *(sys.argv[1:] if argv is None else argv)],
        "base": {"rev": args.base, "commit": base_rev},
        "change": {"commit": git("rev-parse", "HEAD").strip(),
                   "uncommitted": bool(git("status", "--porcelain").strip())},
        "seconds": args.seconds, "pairs": args.pairs,
        "workloads": summarize(runs, spec["end_to_end"]),
        "machine": machines,
        "selftest": {**selftest, "moved": moved_counts(selftest["base"]["counts"],
                                                       selftest["change"]["counts"])},
        "fidelity": compare_fidelity(fidelity["base"], fidelity["change"]),
    }
    why = refusal(report, args.bits_change)
    if why:
        print(f"pairs: not writing {args.out}: {why}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload:12s} {name:18s} {m['base']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g}  better in {m['change_better']}/{m['pairs']}"
                  f"{'  GAIN' if m['gain'] else ''}"
                  f"{'' if m['within_bound'] else '  OUT OF BOUND'}"
                  f"{'' if m['resolved'] else '  unresolved'}")
    for workload, moved in report["selftest"]["moved"].items():
        for count, (base, change) in moved.items():
            print(f"{workload:12s} {count} {base} -> {change}")
    print(f"pairs: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
