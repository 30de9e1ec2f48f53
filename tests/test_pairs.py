"""tools/pairs.py's pure parts on canned result.json files and canned stdout:
pairing, the statistics, the self-test and fidelity diffs and the refusals. No
benchmark runs:
every function that would start a process is replaced, and process creation
itself fails."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture
def pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_process(*args, **kwargs):
        raise AssertionError(f"a process was started: {args}")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    return module


def result(iter_ms, accuracy=0.9, fingerprints=None, failed=0):
    """A result.json of bench/run.py --trace 0, as far as pairs.py reads it."""
    fingerprints = {2: "a", 3: "b", 4: "c"} if fingerprints is None else fingerprints
    return {
        "workload": "moons_ref", "correct": failed == 0, "failed": failed,
        "metrics": {"setup_s": {"value": 0.3, "unit": "s"},
                    "adapt_iter_ms": {"value": iter_ms, "unit": "ms/iter"},
                    "adapted_accuracy": {"value": accuracy, "unit": "ratio"},
                    "peak_rss_mb": {"value": 36.4, "unit": "MiB"}},
        "ops": [{"index": i, "data_seed": ds, "ok": True, "fingerprint": fp}
                for i, (ds, fp) in enumerate(fingerprints.items())],
        "machine": {"nproc": 2, "python": "3.11.7"},
    }


END_TO_END = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
BASE_MS = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.6, 9.7]
CHANGE_MS = [8.4, 8.5, 8.3, 8.6, 8.2, 8.4, 8.5, 8.3, 8.4, 10.0]  # the last pair is worse


def canned_runs(base_ms=BASE_MS, change_ms=CHANGE_MS, change_fingerprints=None):
    return {"moons_ref": [(seed, result(b), result(c, fingerprints=change_fingerprints))
                          for seed, (b, c) in enumerate(zip(base_ms, change_ms), start=1)]}


SELFTEST_OK = {"counts": {}, "verdict": "ok", "exit_code": 0}
FIDELITY = "moons seed 2 0123456789abcdef\nblobs seed 2 fedcba9876543210\nsweep jobs=1 00ff\n"


def fidelity_run(stdout=FIDELITY, exit_code=0):
    return {"stdout": stdout, "exit_code": exit_code}


def canned_report(pairs, runs, selftest=None, fidelity=None):
    """The parts of main's report that `refusal` reads; by default both self-tests
    pass and both fidelity runs print the same lines."""
    return {"workloads": pairs.summarize(runs, END_TO_END),
            "selftest": selftest or {"base": SELFTEST_OK, "change": SELFTEST_OK},
            "fidelity": fidelity or pairs.compare_fidelity(fidelity_run(), fidelity_run())}


def test_pairs_alternate_which_side_runs_first(pairs):
    assert [pairs.pair_order(s) for s in range(1, 5)] == [
        ("base", "change"), ("change", "base"), ("base", "change"), ("change", "base")]


def test_statistics_of_a_claimed_gain(pairs):
    report = pairs.summarize(canned_runs(), END_TO_END)["moons_ref"]
    assert report["fingerprints_match"]
    assert [r["seed"] for r in report["pairs"]] == list(range(1, 11))
    assert [r["first"] for r in report["pairs"]] == ["base", "change"] * 5
    ms = report["metrics"]["adapt_iter_ms"]
    q1, q2, q3 = statistics.quantiles(BASE_MS, n=4, method="inclusive")
    assert ms["base"] == {"q1": q1, "median": q2, "q3": q3}
    assert ms["change"]["median"] == statistics.median(CHANGE_MS)
    assert (ms["change_better"], ms["change_worse"], ms["ties"]) == (9, 1, 0)
    assert ms["median_ratio"] == statistics.median(c / b for b, c in zip(BASE_MS, CHANGE_MS))
    assert ms["gain"] and ms["within_bound"]
    flat = report["metrics"]["adapted_accuracy"]  # equal on every pair: no gain, no loss
    assert (flat["change_better"], flat["ties"], flat["gain"]) == (0, 10, False)
    assert flat["within_bound"]


def test_eight_of_ten_or_a_gain_inside_the_spread_is_no_claim(pairs):
    eight = CHANGE_MS[:8] + [11.0, 11.0]
    assert not pairs.summarize(canned_runs(change_ms=eight),
                               END_TO_END)["moons_ref"]["metrics"]["adapt_iter_ms"]["gain"]
    # better in every pair, but by less than the base's interquartile range
    slight = [b - 0.01 for b in BASE_MS]
    m = pairs.summarize(canned_runs(change_ms=slight),
                        END_TO_END)["moons_ref"]["metrics"]["adapt_iter_ms"]
    assert m["change_better"] == 10 and not m["gain"]


def test_direction_and_bound_follow_the_benchmark(pairs):
    # accuracy is better higher; its bound is 0.05 of the median
    m = pairs.metric_summary([(0.90, 0.86)] * 4, "higher", 0.05)
    assert (m["change_worse"], m["within_bound"]) == (4, True)
    m = pairs.metric_summary([(0.90, 0.85)] * 4, "higher", 0.05)
    assert not m["within_bound"]
    m = pairs.metric_summary([(10.0, 12.6)] * 4, "lower", 0.25)
    assert (m["change_worse"], m["within_bound"]) == (4, False)


# sweep_seeds setup_s base runs of BENCH_25.json: (q3 - q1) / median is 0.29
WIDE_SETUP_S = [0.1798, 0.2349, 0.2086, 0.2101, 0.1525, 0.1678, 0.1663, 0.2466, 0.1584, 0.2285]


def test_a_base_spread_wider_than_the_bound_leaves_the_metric_unresolved(pairs):
    q1, q2, q3 = statistics.quantiles(WIDE_SETUP_S, n=4, method="inclusive")
    assert (q3 - q1) / q2 > 0.25
    m = pairs.metric_summary(list(zip(WIDE_SETUP_S, WIDE_SETUP_S[1:] + WIDE_SETUP_S[:1])),
                             "lower", 0.25)
    assert m["within_bound"] and not m["resolved"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_change_better_in_every_run_is_resolved_whatever_the_spread(pairs, better):
    step = 0.1 if better == "lower" else 0.3  # past the base's extreme either way
    change = [min(WIDE_SETUP_S) - step if better == "lower" else max(WIDE_SETUP_S) + step
              + i * 0.001 for i in range(10)]
    m = pairs.metric_summary(list(zip(WIDE_SETUP_S, change)), better, 0.25)
    assert m["resolved"]
    # one change run no better than the best base run leaves it unresolved
    change[3] = min(WIDE_SETUP_S) if better == "lower" else max(WIDE_SETUP_S)
    assert not pairs.metric_summary(list(zip(WIDE_SETUP_S, change)), better, 0.25)["resolved"]


def test_a_spread_inside_the_bound_is_resolved(pairs):
    report = pairs.summarize(canned_runs(), END_TO_END)["moons_ref"]["metrics"]
    assert all(m["resolved"] for m in report.values())
    same = pairs.metric_summary([(b, b) for b in BASE_MS], "lower", 0.25)
    assert same["resolved"] and not same["gain"]


def test_main_prints_unresolved_for_an_unresolved_metric(pairs, monkeypatch, tmp_path, capsys):
    def run_bench(checkout, workload, seed, seconds):
        run = result(10.0)
        run["metrics"]["setup_s"]["value"] = WIDE_SETUP_S[seed - 1]
        return run

    monkeypatch.setattr(pairs, "git", lambda *args, check=True: "f" * 40 + "\n")
    monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    monkeypatch.setattr(pairs, "run_selftest",
                        lambda checkout: {"counts": {}, "verdict": "ok", "exit_code": 0})
    monkeypatch.setattr(pairs, "run_fidelity", lambda checkout: fidelity_run())
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--base", "HEAD", "--out", str(out), "--workload", "moons_ref",
                       "--pairs", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.endswith("unresolved")] == ["setup_s"]
    assert json.loads(out.read_text())["workloads"]["moons_ref"]["metrics"]["setup_s"][
        "resolved"] is False


def test_fingerprints_compare_on_the_data_seeds_both_runs_reached(pairs):
    assert pairs.fingerprints_agree({2: "a", 3: "b", 5: "x"}, {2: "a", 3: "b"}) == (True, 2)
    assert pairs.fingerprints_agree({2: "a", 3: "b"}, {2: "a", 3: "z"}) == (False, 2)
    assert pairs.fingerprints_agree({2: "a"}, {3: "a"}) == (False, 0)
    failed = result(1.0)
    failed["ops"][0] = {"index": 0, "data_seed": 2, "ok": False, "problems": ["boom"]}
    assert pairs.read_run(failed)[1] == {3: "b", 4: "c"}


def test_a_fingerprint_mismatch_is_refused_unless_bits_change(pairs):
    differ = {2: "a", 3: "CHANGED", 4: "c"}
    report = canned_report(pairs, canned_runs(change_fingerprints=differ))
    assert not report["workloads"]["moons_ref"]["fingerprints_match"]
    why = pairs.refusal(report, bits_change=False)
    assert why.startswith("fingerprints differ between base and change on moons_ref seed 1, ")
    assert pairs.refusal(report, bits_change=True) is None
    same = canned_report(pairs, canned_runs())
    assert pairs.refusal(same, bits_change=False) is None


@pytest.mark.parametrize("side", ["base", "change"])
@pytest.mark.parametrize("fault", ["not_correct", "failed_ops"])
def test_a_broken_run_is_refused_naming_side_workload_and_seed(pairs, side, fault):
    runs = canned_runs()
    seed, base, change = runs["moons_ref"][6]
    broken = {"base": base, "change": change}[side]
    if fault == "not_correct":
        broken["correct"] = False
    else:
        broken["failed"] = 2  # bench/run.py sets correct from more than the failures
    why = pairs.refusal(canned_report(pairs, runs), bits_change=True)
    assert why == ("runs not correct or with failed operations: "
                   f"{side} on moons_ref seed {seed}")


@pytest.mark.parametrize("side", ["base", "change"])
@pytest.mark.parametrize("verdict, exit_code", [("FAILED", 1), (None, 1), ("ok", 1)])
def test_a_side_whose_selftest_did_not_pass_is_refused(pairs, side, verdict, exit_code):
    failed = {"counts": {}, "verdict": verdict, "exit_code": exit_code}
    selftest = {"base": SELFTEST_OK, "change": SELFTEST_OK, side: failed}
    why = pairs.refusal(canned_report(pairs, canned_runs(), selftest), bits_change=True)
    assert why == (f"bench/selftest.py on the {side} side did not print 'selftest: ok' "
                   f"(it printed {verdict!r}, exit code {exit_code})")


def test_every_reason_is_named(pairs):
    runs = canned_runs(change_fingerprints={2: "a", 3: "CHANGED", 4: "c"})
    runs["moons_ref"][0][1]["correct"] = False
    failed = {"counts": {}, "verdict": "FAILED", "exit_code": 1}
    report = canned_report(pairs, runs, {"base": SELFTEST_OK, "change": failed})
    why = pairs.refusal(report, bits_change=False)
    assert why.startswith("runs not correct or with failed operations: base on moons_ref "
                          "seed 1; bench/selftest.py on the change side did not print ")
    assert "; fingerprints differ between base and change on moons_ref seed 1, " in why


def test_selftest_counts_that_moved(pairs):
    stdout = ("moons_ref: counts {'tensor.backward_calls_per_iter': 2.0, "
              "'pipeline.python_calls_per_iter': 347.0}\n"
              "moons_ref: fingerprints ['0123456789abcdef']\n"
              "wide_cli: counts {'models.checkpoint_bytes': 580000.0}\n"
              "selftest: ok\n")
    base, verdict = pairs.parse_selftest(stdout)
    assert verdict == "ok"
    assert base == {"moons_ref": {"tensor.backward_calls_per_iter": 2.0,
                                  "pipeline.python_calls_per_iter": 347.0},
                    "wide_cli": {"models.checkpoint_bytes": 580000.0}}
    change = {"moons_ref": {**base["moons_ref"], "pipeline.python_calls_per_iter": 344.0},
              "wide_cli": base["wide_cli"]}
    assert pairs.moved_counts(base, change) == {
        "moons_ref": {"pipeline.python_calls_per_iter": [347.0, 344.0]}}
    assert pairs.moved_counts(base, base) == {}


def test_main_prints_each_moved_count_after_the_metrics(pairs, monkeypatch, tmp_path, capsys):
    counts = {"a": {"tensor.tape_nodes_per_backward": 7.0, "pipeline.python_calls_per_iter": 363.0},
              "b": {"tensor.tape_nodes_per_backward": 2.0, "pipeline.python_calls_per_iter": 363.0}}
    monkeypatch.setattr(pairs, "git", lambda *args, check=True: "f" * 40 + "\n")
    monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "run_bench", lambda checkout, workload, seed, seconds: result(9.0))
    monkeypatch.setattr(pairs, "run_selftest", lambda checkout: {
        "counts": {"moons_ref": counts[checkout.parent.name]}, "verdict": "ok", "exit_code": 0})
    monkeypatch.setattr(pairs, "run_fidelity", lambda checkout: fidelity_run())
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--base", "HEAD", "--out", str(out), "--workload", "moons_ref",
                       "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = [i for i, line in enumerate(lines) if "better in" in line]
    moved = [i for i, line in enumerate(lines) if " -> " in line and "better in" not in line]
    assert len(metrics) == len(END_TO_END) and len(moved) == 1 and moved[0] > max(metrics)
    assert lines[moved[0]].split() == ["moons_ref", "tensor.tape_nodes_per_backward", "7.0",
                                       "->", "2.0"]


@pytest.mark.parametrize("bits_change", [False, True])
def test_main_writes_nothing_on_a_mismatch(pairs, monkeypatch, tmp_path, bits_change):
    calls = []

    def run_bench(checkout, workload, seed, seconds):
        side = "base" if checkout.parent.name == "a" else "change"
        calls.append((workload, seed, side))
        return result(10.0 if side == "base" else 8.0,
                      fingerprints={2: side, 3: "b", 4: "c"})

    monkeypatch.setattr(pairs, "git", lambda *args, check=True: "f" * 40 + "\n")
    monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    monkeypatch.setattr(pairs, "run_selftest",
                        lambda checkout: {"counts": {}, "verdict": "ok", "exit_code": 0})
    monkeypatch.setattr(pairs, "run_fidelity", lambda checkout: fidelity_run())
    out = tmp_path / "BENCH.json"
    argv = ["--base", "HEAD", "--out", str(out), "--workload", "moons_ref", "--pairs", "2"]
    code = pairs.main(argv + (["--bits-change"] if bits_change else []))
    assert calls == [("moons_ref", 1, "base"), ("moons_ref", 1, "change"),
                     ("moons_ref", 2, "change"), ("moons_ref", 2, "base")]
    assert code == (0 if bits_change else 1)
    assert out.exists() == bits_change
    if bits_change:
        report = json.loads(out.read_text())
        assert report["workloads"]["moons_ref"]["fingerprints_match"] is False
        assert report["base"]["commit"] == "f" * 40
        assert set(report["machine"]) == {"base", "change"}


def test_main_writes_nothing_when_a_selftest_fails(pairs, monkeypatch, tmp_path):
    monkeypatch.setattr(pairs, "git", lambda *args, check=True: "f" * 40 + "\n")
    monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "run_bench", lambda checkout, workload, seed, seconds: result(9.0))
    monkeypatch.setattr(pairs, "run_selftest", lambda checkout: {
        "counts": {}, "verdict": "FAILED" if checkout.parent.name == "b" else "ok",
        "exit_code": 1 if checkout.parent.name == "b" else 0})
    monkeypatch.setattr(pairs, "run_fidelity", lambda checkout: fidelity_run())
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--base", "HEAD", "--out", str(out), "--workload", "moons_ref",
                       "--pairs", "1", "--bits-change"]) == 1
    assert not out.exists()


def test_fidelity_lines_that_differ(pairs):
    same = pairs.compare_fidelity(fidelity_run(), fidelity_run())
    assert same == {"match": True, "differing_lines": [], "differing_labels": [],
                    "exit_code": {"base": 0, "change": 0}}
    changed = FIDELITY.replace("fedcba9876543210", "fedcba9876543211")
    assert pairs.compare_fidelity(fidelity_run(), fidelity_run(changed))["differing_lines"] == [2]
    # a run cut short in line 2, or one that prints more, differs on every line it cut or added
    short = pairs.compare_fidelity(fidelity_run(), fidelity_run(FIDELITY[:40], exit_code=1))
    assert short == {"match": False, "differing_lines": [2, 3],
                     "differing_labels": ["blobs", "sweep"],
                     "exit_code": {"base": 0, "change": 1}}
    extra = pairs.compare_fidelity(fidelity_run(FIDELITY + "extra line\n"), fidelity_run())
    assert (extra["differing_lines"], extra["differing_labels"]) == ([4], ["extra"])
    added = pairs.compare_fidelity(fidelity_run(), fidelity_run(FIDELITY + "added line\n"))
    assert (added["differing_lines"], added["differing_labels"]) == ([4], ["added"])


@pytest.mark.parametrize("base, change, reason", [
    (fidelity_run(), fidelity_run(FIDELITY.replace("00ff", "00fe")),
     "tests/fidelity.py prints different lines on the two sides: 3"),
    (fidelity_run(exit_code=1), fidelity_run(),
     "tests/fidelity.py exited 1 on the base side"),
    (fidelity_run(), fidelity_run(exit_code=2),
     "tests/fidelity.py exited 2 on the change side"),
])
def test_a_fidelity_mismatch_or_failure_is_refused_unless_bits_change(pairs, base, change,
                                                                      reason):
    report = canned_report(pairs, canned_runs(), fidelity=pairs.compare_fidelity(base, change))
    assert pairs.refusal(report, bits_change=False) == (
        reason + "; pass --bits-change if the change alters trained bits or file bytes "
        "on purpose")
    assert pairs.refusal(report, bits_change=True) is None


def test_fingerprint_and_fidelity_reasons_are_named_together(pairs):
    runs = canned_runs(change_fingerprints={2: "a", 3: "CHANGED", 4: "c"})
    fidelity = pairs.compare_fidelity(fidelity_run(), fidelity_run("", exit_code=1))
    why = pairs.refusal(canned_report(pairs, runs, fidelity=fidelity), bits_change=False)
    assert why == ("fingerprints differ between base and change on moons_ref seed 1, "
                   "moons_ref seed 2, moons_ref seed 3, moons_ref seed 4, moons_ref seed 5, "
                   "moons_ref seed 6, moons_ref seed 7, moons_ref seed 8, moons_ref seed 9, "
                   "moons_ref seed 10; tests/fidelity.py prints different lines on the two "
                   "sides: 1, 2, 3; tests/fidelity.py exited 1 on the change side; pass "
                   "--bits-change if the change alters trained bits or file bytes on purpose")


def test_run_fidelity_runs_the_script_with_src_on_the_path(pairs, monkeypatch, tmp_path):
    calls = []

    def run(argv, **kwargs):
        calls.append((argv, kwargs["cwd"], kwargs["env"]["PYTHONPATH"]))
        return subprocess.CompletedProcess(argv, 3, stdout=FIDELITY, stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    assert pairs.run_fidelity(tmp_path) == {"stdout": FIDELITY, "exit_code": 3}
    assert calls == [([pairs.sys.executable, "tests/fidelity.py"], tmp_path, "src")]


@pytest.mark.parametrize("bits_change", [False, True])
def test_main_writes_nothing_when_fidelity_lines_differ(pairs, monkeypatch, tmp_path,
                                                        bits_change):
    monkeypatch.setattr(pairs, "git", lambda *args, check=True: "f" * 40 + "\n")
    monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "run_bench", lambda checkout, workload, seed, seconds: result(9.0))
    monkeypatch.setattr(pairs, "run_selftest", lambda checkout: SELFTEST_OK)
    monkeypatch.setattr(pairs, "run_fidelity", lambda checkout: fidelity_run(
        FIDELITY.replace("0123", "3210") if checkout.parent.name == "b" else FIDELITY))
    out = tmp_path / "BENCH.json"
    code = pairs.main(["--base", "HEAD", "--out", str(out), "--workload", "moons_ref",
                       "--pairs", "1"] + (["--bits-change"] if bits_change else []))
    assert code == (0 if bits_change else 1)
    assert out.exists() == bits_change
    if bits_change:
        fidelity = json.loads(out.read_text())["fidelity"]
        assert fidelity == {"match": False, "differing_lines": [1],
                            "differing_labels": ["moons"],
                            "exit_code": {"base": 0, "change": 0}}


@pytest.mark.parametrize("differ", [False, True], ids=["bytes-only", "bits-too"])
def test_main_prints_the_fingerprint_verdict_and_each_differing_fidelity_label(
        pairs, monkeypatch, tmp_path, capsys, differ):
    # a file-format change: fidelity line 2 differs on purpose; with `differ`, a
    # trained bit moved too, which --bits-change alone would let through unseen
    def run_bench(checkout, workload, seed, seconds):
        moved = differ and checkout.parent.name == "b" and seed == 2
        return result(9.0, fingerprints={2: "MOVED" if moved else "a", 3: "b", 4: "c"})

    monkeypatch.setattr(pairs, "git", lambda *args, check=True: "f" * 40 + "\n")
    monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    monkeypatch.setattr(pairs, "run_selftest", lambda checkout: SELFTEST_OK)
    monkeypatch.setattr(pairs, "run_fidelity", lambda checkout: fidelity_run(
        FIDELITY.replace("fedc", "cdef") if checkout.parent.name == "b" else FIDELITY))
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--base", "HEAD", "--out", str(out), "--workload", "moons_ref",
                       "--pairs", "3", "--bits-change"]) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = max(i for i, line in enumerate(lines) if "better in" in line)
    assert lines[metrics + 1].split() == (
        ["moons_ref", "fingerprints", "differ", "on", "seed", "2"] if differ
        else ["moons_ref", "fingerprints", "match", "on", "every", "pair"])
    assert lines[-2:] == ["fidelity lines differ: 2 blobs", f"pairs: wrote {out}"]
    fidelity = json.loads(out.read_text())["fidelity"]
    assert (fidelity["differing_lines"], fidelity["differing_labels"]) == ([2], ["blobs"])
