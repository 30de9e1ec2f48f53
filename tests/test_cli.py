import base64
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from actlab import cli
from actlab.cli import main
from actlab.config import config_hash, config_to_dict, load_config
from actlab.data import LabeledSet, load_labeled_set, save_labeled_set
from actlab.models import MlpSpec, build, save_checkpoint
from actlab.pipeline import EvalResult, RunReport, StepRecord, pretrain_source


def config_doc(out_dir, **kw):
    doc = {
        "run_id": "t1",
        "output_dir": str(out_dir),
        "n_way": 3,
        "k_shot": 2,
        "split_seed": 21,
        "domain": {"generator": "gaussian_blobs", "dim": 2, "num_classes": 3,
                   "samples_per_class": [12, 12, 12],
                   "shift": {"rotation_deg": 20.0, "translation": [0.3, -0.2],
                             "noise_sigma": 0.05},
                   "seed": 3},
        "model": {"input_dim": 2, "hidden_dims": [8], "feature_dim": 4,
                  "num_classes": 3, "init_seed": 7},
        "pretrain": {"epochs": 2, "batch_size": 16, "sgd": {"lr": 0.05}},
        "adapt": {"total_iterations": 2, "batch_size": 8,
                  "schedule": {"eta0": 1e-3}},
    }
    doc.update(kw)
    return doc


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "runs"
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config_doc(out)))
    return cfg_path, out / "t1"


class TestPretrainCommand:
    def test_writes_checkpoint_log_and_config(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        assert (run_dir / "source.ckpt").exists()
        assert (run_dir / "config.json").exists()
        log_lines = (run_dir / "pretrain.log").read_text().splitlines()
        assert len(log_lines) == 2
        assert log_lines[0].startswith("epoch=0 ")
        assert "pretrain:" in capsys.readouterr().out

    def test_refuses_silent_overwrite(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg_path)]) == 2
        assert "source.ckpt" in capsys.readouterr().err
        assert main(["pretrain", "--config", str(cfg_path), "--force"]) == 0


class TestAdaptCommand:
    def test_end_to_end_outputs(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^no_adapt=[01]\.\d{4} adapted=[01]\.\d{4}$", out, re.M)
        for name in ("source.ckpt", "pretrain.log", "target.ckpt",
                     "report.json", "trace.csv", "test_set.csv", "config.json"):
            assert (run_dir / name).exists(), name

        # json.dumps runs without sort_keys, so the key order is the byte layout
        report = json.loads((run_dir / "report.json").read_text())
        cfg = load_config(cfg_path)
        assert list(report) == ["final", "provenance", "trace", "config"]
        assert list(report["final"]) == [
            "accuracy", "per_class_accuracy", "macro_accuracy", "confusion_matrix",
            "no_adapt_accuracy", "no_adapt_per_class_accuracy", "no_adapt_macro_accuracy"]
        assert 0.0 <= report["final"]["no_adapt_accuracy"] <= 1.0
        assert list(report["provenance"]) == ["seeds", "config_hash", "checkpoint_paths"]
        assert list(report["provenance"]["seeds"].items()) == [
            ("adapt_seed", 0), ("split_seed", 21), ("init_seed", 7), ("domain_seed", 3),
            ("pretrain_seed", 0)]
        assert report["provenance"]["config_hash"] == config_hash(cfg)
        assert report["provenance"]["checkpoint_paths"] == {
            "source": str(run_dir / "source.ckpt"), "target": str(run_dir / "target.ckpt")}
        assert report["config"] == config_to_dict(cfg)
        assert len(report["trace"]) == 4  # 2 iterations x 2 steps

        trace_lines = (run_dir / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == ("iteration,step_kind,loss_total,loss_lsce,"
                                  "loss_entropy,loss_rce,loss_cdd,lr")
        assert len(trace_lines) == 5

        test_set = load_labeled_set(run_dir / "test_set.csv")
        assert len(test_set) == 36 - 6  # everything outside the support

    def test_trace_header_is_the_step_record_schema(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        header = (run_dir / "trace.csv").read_text().splitlines()[0]
        assert header.split(",") == [f.name for f in fields(StepRecord)]

    def test_reuses_existing_source_checkpoint(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        ckpt_bytes = (run_dir / "source.ckpt").read_bytes()
        log_bytes = (run_dir / "pretrain.log").read_bytes()
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        assert (run_dir / "source.ckpt").read_bytes() == ckpt_bytes
        assert (run_dir / "pretrain.log").read_bytes() == log_bytes

    def test_reuses_a_lone_version_1_source_checkpoint(self, workspace, monkeypatch):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        fresh = {name: (run_dir / name).read_bytes() for name in ("target.ckpt", "trace.csv")}
        doc = json.loads((run_dir / "source.ckpt").read_text())
        assert doc["format_version"] == 2
        doc["format_version"] = 1  # each parameter's data as a flat list of numbers
        for entry in doc["params"].values():
            entry["data"] = np.frombuffer(base64.b64decode(entry["data"]), "<f8").tolist()
        for path in run_dir.iterdir():
            path.unlink()
        (run_dir / "source.ckpt").write_text(json.dumps(doc, sort_keys=True) + "\n")
        old = (run_dir / "source.ckpt").read_bytes()
        monkeypatch.setattr(cli, "pretrain_source", None)  # a call would fail the run
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        assert (run_dir / "source.ckpt").read_bytes() == old
        assert not (run_dir / "pretrain.log").exists()
        for name, data in fresh.items():
            assert (run_dir / name).read_bytes() == data

    def test_rejects_checkpoint_from_another_model(self, workspace, capsys):
        cfg_path, run_dir = workspace
        run_dir.mkdir(parents=True)
        other = MlpSpec(input_dim=2, hidden_dims=(5,), feature_dim=4, num_classes=3)
        save_checkpoint(build(other), run_dir / "source.ckpt")
        assert main(["adapt", "--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, existing", [
        ("pretrain", False), ("adapt", False), ("sweep", False), ("adapt", True)],
        ids=["pretrain", "adapt", "sweep", "adapt-over-outputs"])
    def test_print_config_has_no_side_effects(self, workspace, capsys, command, existing):
        cfg_path, run_dir = workspace
        if existing:  # outputs that a run without --force would refuse to replace
            assert main(["adapt", "--config", str(cfg_path)]) == 0
            capsys.readouterr()

        def files():
            return sorted((p.name, p.read_bytes()) for p in run_dir.iterdir()) \
                if run_dir.exists() else None

        before = files()
        argv = [command, "--config", str(cfg_path), "--print-config"]
        if command == "sweep":
            argv += ["--data-seeds", "1", "--model-seeds", "5"]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == config_to_dict(load_config(cfg_path))
        assert files() == before

    def test_changed_pretraining_pretrains_again(self, workspace, tmp_path):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        first = (run_dir / "source.ckpt").read_bytes()
        assert main(["adapt", "--config", str(cfg_path), "--force",
                     "--pretrain-seed", "9"]) == 0
        fresh = tmp_path / "fresh"
        assert main(["pretrain", "--config", str(cfg_path), "--out", str(fresh),
                     "--pretrain-seed", "9"]) == 0
        assert (run_dir / "source.ckpt").read_bytes() != first
        for name in ("source.ckpt", "pretrain.log"):
            assert (run_dir / name).read_bytes() == (fresh / "t1" / name).read_bytes()

    @pytest.mark.parametrize("change, pretrains", [
        (["--split-seed", "99"], False), ("missing", False),
        (["--init-seed", "9"], True), ("malformed", True), ("undecodable", True)],
        ids=["split-seed", "missing-config", "init-seed", "malformed-config",
             "undecodable-config"])
    def test_source_checkpoint_reuse_follows_config_json(self, workspace, monkeypatch,
                                                          change, pretrains):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        ckpt = (run_dir / "source.ckpt").read_bytes()
        if change == "missing":
            (run_dir / "config.json").unlink()
        elif change == "malformed":
            (run_dir / "config.json").write_text("{oops")
        elif change == "undecodable":
            (run_dir / "config.json").write_bytes(b"\xff\xfe{}")
        calls = []

        def counting(*args):
            calls.append(args)
            return pretrain_source(*args)

        monkeypatch.setattr(cli, "pretrain_source", counting)
        overrides = change if isinstance(change, list) else []
        assert main(["adapt", "--config", str(cfg_path), "--force", *overrides]) == 0
        assert len(calls) == pretrains
        if not pretrains:
            assert (run_dir / "source.ckpt").read_bytes() == ckpt

    def test_seed_overrides_reach_the_report(self, workspace):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path),
                     "--split-seed", "99", "--adapt-seed", "4"]) == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["provenance"]["seeds"]["split_seed"] == 99
        assert report["provenance"]["seeds"]["adapt_seed"] == 4
        assert report["config"]["split_seed"] == 99

    def test_second_adapt_needs_force(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["adapt", "--config", str(cfg_path)]) == 2
        assert main(["adapt", "--config", str(cfg_path), "--force"]) == 0


class TestForceReplacesTheRun:
    """Under --force a run deletes every output it claims, once its inputs are valid."""

    @staticmethod
    def rerun(cfg_path, edit, *argv):
        doc = json.loads(cfg_path.read_text())
        edit(doc)
        cfg_path.write_text(json.dumps(doc))
        return main([*argv, "--config", str(cfg_path), "--force"])

    def test_diverged_adapt_leaves_no_output_of_the_run_it_replaced(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert self.rerun(cfg_path, lambda d: d["adapt"].update(sam={"rho": 1e308}),
                          "adapt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: adaptation diverged at iteration 0") and err.count("\n") == 1
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config.json", "pretrain.log", "source.ckpt"]
        assert load_config(run_dir / "config.json").adapt.sam.rho == 1e308

    def test_diverged_pretraining_leaves_no_stale_source(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        assert self.rerun(cfg_path, lambda d: d["pretrain"].update(sgd={"lr": 1e200}),
                          "adapt") == 1
        assert "error: pretraining diverged" in capsys.readouterr().err
        assert [p.name for p in run_dir.iterdir()] == ["config.json"]

    def test_a_saturated_softmax_in_pretraining_is_divergence(self, workspace, capsys):
        # lr 100 leaves the logits finite, but a softmax entry underflows to 0
        cfg_path, run_dir = workspace
        doc = json.loads(cfg_path.read_text())
        doc["pretrain"]["sgd"] = {"lr": 100.0}
        cfg_path.write_text(json.dumps(doc))
        assert main(["pretrain", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: pretraining diverged at epoch 0 (iteration 0)\n"

    def test_pretrain_deletes_the_adapted_outputs_of_its_old_source(self, workspace):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        assert self.rerun(cfg_path, lambda d: d["pretrain"].update(seed=9), "pretrain") == 0
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config.json", "pretrain.log", "source.ckpt"]

    @pytest.mark.parametrize("broken", ["support-draw", "source-checkpoint", "no-test-rows"])
    def test_an_invalid_run_leaves_the_old_one_in_place(self, workspace, capsys, broken):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        if broken == "source-checkpoint":
            (run_dir / "source.ckpt").write_bytes(b"\xff\xfe{}")
        before = sorted((p.name, p.read_bytes()) for p in run_dir.iterdir())
        capsys.readouterr()
        # 12 rows per class: K=12 takes them all into the support
        edit = {"support-draw": lambda d: d.update(k_shot=50),
                "source-checkpoint": lambda d: d.update(split_seed=4),
                "no-test-rows": lambda d: d.update(k_shot=12)}[broken]
        assert self.rerun(cfg_path, edit, "adapt") == 1
        assert capsys.readouterr().err.count("error:") == 1
        assert sorted((p.name, p.read_bytes()) for p in run_dir.iterdir()) == before

    SWEEP = ("sweep", "--data-seeds", "0", "--model-seeds", "0")

    @pytest.mark.parametrize("edit, left", [
        (lambda d: d["adapt"].update(sam={"rho": 0.2}),
         ["config.json", "pretrain.log", "source.ckpt", "sweep.csv"]),
        (lambda d: d["pretrain"].update(seed=9), ["config.json", "sweep.csv"]),
    ], ids=["adapt-config", "source-config"])
    def test_sweep_deletes_the_run_its_config_replaces(self, workspace, edit, left):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        assert self.rerun(cfg_path, edit, *self.SWEEP) == 0
        assert sorted(p.name for p in run_dir.iterdir()) == left

    def test_without_config_json_only_the_source_files_are_kept(self, workspace, capsys):
        # a sweep.csv of adapt.seed 11 may not stay beside an adapt run of adapt.seed 12
        cfg_path, run_dir = workspace
        assert self.rerun(cfg_path, lambda d: d["adapt"].update(seed=11), *self.SWEEP) == 0
        (run_dir / "config.json").unlink()
        doc = json.loads(cfg_path.read_text())
        doc["adapt"]["seed"] = 12
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["adapt", "--config", str(cfg_path)]) == 2
        assert "sweep.csv already exists" in capsys.readouterr().err
        assert [p.name for p in run_dir.iterdir()] == ["sweep.csv"]
        assert main(["adapt", "--config", str(cfg_path), "--force"]) == 0
        assert load_config(run_dir / "config.json").adapt.seed == 12
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(
            ["config.json", *cli.PRETRAIN_OUTPUTS, *cli.ADAPT_OUTPUTS])

    def test_sweep_under_the_same_config_keeps_the_run(self, workspace):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0
        before = sorted(p.name for p in run_dir.iterdir())
        assert main([*self.SWEEP, "--config", str(cfg_path)]) == 0
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(before + ["sweep.csv"])


class TestRunDirectoryDescribesOneRun:
    """After any two commands under --force, every run file present belongs to the
    run config.json describes. The oracle stamps every file before a command and
    reads which ones the command wrote, and under which config.json text."""

    COMMANDS = {"pretrain": ["pretrain"], "adapt": ["adapt"],
                "sweep": ["sweep", "--data-seeds", "1", "--model-seeds", "5"]}
    CHANGES = {"same-config": lambda d: None,
               "adapt-seed": lambda d: d["adapt"].update(seed=12),
               "pretrain-seed": lambda d: d["pretrain"].update(seed=9)}
    SOURCE_FILES = ("source.ckpt", "pretrain.log")
    UNWRITTEN = 0  # the mtime every file gets before a command; a write sets the clock's

    @staticmethod
    def source_blocks(config_text):
        doc = json.loads(config_text)
        return [doc[block] for block in ("domain", "model", "pretrain")]

    @pytest.mark.parametrize("change", CHANGES)
    @pytest.mark.parametrize("second", COMMANDS)
    @pytest.mark.parametrize("first", COMMANDS)
    def test_any_two_commands(self, tmp_path, capsys, first, second, change):
        doc = config_doc(tmp_path / "runs", n_way=2, k_shot=2, domain={
            "generator": "two_moons", "dim": 2, "num_classes": 2,
            "samples_per_class": [12, 12], "shift": {"rotation_deg": 30.0}, "seed": 3})
        doc["model"].update(num_classes=2)
        doc["adapt"].update(seed=11)
        cfg_path, run_dir = tmp_path / "exp.json", tmp_path / "runs" / "t1"
        written = {}  # run file -> (config.json text it was written under, command number)
        for number, (command, edit) in enumerate([(first, None), (second, self.CHANGES[change])]):
            if edit is not None:
                edit(doc)
            cfg_path.write_text(json.dumps(doc))
            for path in run_dir.glob("*"):
                os.utime(path, ns=(self.UNWRITTEN, self.UNWRITTEN))
            assert main([*self.COMMANDS[command], "--config", str(cfg_path), "--force"]) == 0
            config = (run_dir / "config.json").read_text()
            written = {p.name: written[p.name] if p.stat().st_mtime_ns == self.UNWRITTEN
                       else (config, number) for p in run_dir.iterdir()}

            for name, (text, _) in written.items():
                if name in self.SOURCE_FILES:
                    assert self.source_blocks(text) == self.source_blocks(config), name
                else:
                    assert text == config, f"{name} was written under another config"
            for name in cli.ADAPT_OUTPUTS:
                if name in written:
                    assert written[name][1] >= written["source.ckpt"][1], name


class TestEvalCommand:
    @pytest.fixture
    def adapted(self, workspace):
        cfg_path, run_dir = workspace
        main(["adapt", "--config", str(cfg_path)])
        return run_dir

    def test_text_output(self, adapted, capsys):
        rc = main(["eval", "--ckpt", str(adapted / "target.ckpt"),
                   "--data", str(adapted / "test_set.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"^accuracy=[01]\.\d{4} macro=[01]\.\d{4} n=30$", out, re.M)

    def test_json_output(self, adapted, capsys):
        rc = main(["eval", "--ckpt", str(adapted / "target.ckpt"),
                   "--data", str(adapted / "test_set.csv"), "--json",
                   "--head", "mean_of_heads"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert np.array(doc["confusion_matrix"]).shape == (3, 3)
        assert doc["num_test"] == 30

    def test_score_keys_are_the_result_fields(self, adapted, capsys):
        report = json.loads((adapted / "report.json").read_text())
        assert list(report["final"]) == [f.name for f in fields(RunReport)][1:]
        main(["eval", "--ckpt", str(adapted / "target.ckpt"),
              "--data", str(adapted / "test_set.csv"), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [f.name for f in fields(EvalResult)]

    def test_dimension_mismatch_is_reported(self, adapted, tmp_path, capsys):
        wide = LabeledSet(np.zeros((4, 5)), np.array([0, 1, 2, 0]), 3, "wide")
        save_labeled_set(wide, tmp_path / "wide.csv")
        rc = main(["eval", "--ckpt", str(adapted / "target.ckpt"),
                   "--data", str(tmp_path / "wide.csv")])
        assert rc == 1
        assert "dim" in capsys.readouterr().err

    def test_non_finite_features_are_refused(self, adapted, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("2,3,nan\n" + "nan,nan,0\n" * 100)
        rc = main(["eval", "--ckpt", str(adapted / "target.ckpt"), "--data", str(path)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: set 'nan': row 0 has a NaN or infinite feature\n"


class TestSweepCommand:
    def test_sweep_writes_cells_and_aggregates(self, workspace, capsys):
        cfg_path, run_dir = workspace
        rc = main(["sweep", "--config", str(cfg_path),
                   "--data-seeds", "1,2", "--model-seeds", "5"])
        assert rc == 0
        assert "sweep: 2/2 cells ok" in capsys.readouterr().out
        lines = (run_dir / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("kind,data_seed,model_seed,status")
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds == ["cell", "cell", "aggregate", "aggregate",
                         "aggregate", "aggregate"]
        assert all(line.split(",")[3] == "ok" for line in lines[1:3])

    def test_jobs_takes_a_positive_integer(self, workspace, capsys):
        # more jobs than cells: one cell starts no pool
        cfg_path, run_dir = workspace
        rc = main(["sweep", "--config", str(cfg_path), "--data-seeds", "1",
                   "--model-seeds", "5", "--jobs", "2"])
        assert rc == 0
        assert "sweep: 1/1 cells ok" in capsys.readouterr().out
        assert (run_dir / "sweep.csv").exists()

    def test_all_failed_cells_exit_nonzero(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config_doc(out, k_shot=50)))
        rc = main(["sweep", "--config", str(cfg_path),
                   "--data-seeds", "1", "--model-seeds", "5"])
        assert rc == 1
        assert "0/1 cells ok" in capsys.readouterr().err
        assert (out / "t1" / "sweep.csv").exists()  # the evidence still lands


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["pretrain", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        assert main(["adapt", "--config", str(p)]) == 1

    def test_unknown_config_key_names_path(self, tmp_path, capsys):
        doc = config_doc(tmp_path / "runs")
        doc["adapt"]["rho"] = 0.1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["adapt", "--config", str(p)]) == 1
        assert "adapt.rho" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "adapt"])
    @pytest.mark.parametrize("flag", ["--split-seed", "--adapt-seed", "--pretrain-seed",
                                      "--init-seed"])
    def test_negative_seed_override_writes_nothing(self, workspace, capsys, command, flag):
        cfg_path, run_dir = workspace
        assert main([command, "--config", str(cfg_path), flag, "-1"]) == 1
        assert "must be >= 0, got -1" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_negative_seed_in_config_leaves_run_dir_untouched(self, workspace, capsys):
        cfg_path, run_dir = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        before = sorted((p.name, p.read_bytes()) for p in run_dir.iterdir())
        doc = json.loads(cfg_path.read_text())
        doc["adapt"]["seed"] = -1
        cfg_path.write_text(json.dumps(doc))
        assert main(["adapt", "--config", str(cfg_path), "--force"]) == 1
        assert "error: adapt.seed: must be >= 0, got -1\n" == capsys.readouterr().err
        assert sorted((p.name, p.read_bytes()) for p in run_dir.iterdir()) == before

    def test_impossible_support_draw_creates_no_run_dir(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config_doc(out, k_shot=50)))
        assert main(["adapt", "--config", str(cfg_path)]) == 1
        assert "cannot draw K=50" in capsys.readouterr().err
        assert not (out / "t1").exists()

    def test_a_support_of_every_row_creates_no_run_dir(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "runs"
        cfg_path = tmp_path / "exp.json"
        # the two-moons case: 5 rows per class, all of them drawn into the support
        cfg_path.write_text(json.dumps(config_doc(
            out, n_way=2, k_shot=5,
            domain={"generator": "two_moons", "dim": 2, "num_classes": 2,
                    "samples_per_class": [5, 5], "seed": 3},
            model={"input_dim": 2, "hidden_dims": [8], "feature_dim": 4,
                   "num_classes": 2, "init_seed": 7})))
        pretrained = []
        monkeypatch.setattr(cli, "pretrain_source", lambda *args: pretrained.append(args))
        assert main(["adapt", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == ("error: K=5 takes every row of each class into "
                                           "the support, which leaves no test rows\n")
        assert not (out / "t1").exists() and pretrained == []

    def test_mismatched_source_checkpoint_writes_nothing(self, workspace, capsys):
        cfg_path, run_dir = workspace
        run_dir.mkdir(parents=True)
        other = MlpSpec(input_dim=2, hidden_dims=(5,), feature_dim=4, num_classes=3)
        save_checkpoint(build(other), run_dir / "source.ckpt")
        assert main(["adapt", "--config", str(cfg_path)]) == 1
        assert "does not match expected spec" in capsys.readouterr().err
        assert [p.name for p in run_dir.iterdir()] == ["source.ckpt"]

    @pytest.mark.parametrize("broken", ["ckpt", "data"])
    def test_eval_on_a_malformed_file_is_an_error(self, tmp_path, capsys, broken):
        ckpt, data = tmp_path / "m.ckpt", tmp_path / "d.csv"
        save_checkpoint(build(MlpSpec(2, (4,), 4, 2)), ckpt)
        save_labeled_set(LabeledSet(np.zeros((2, 2)), np.array([0, 1]), 2, "d"), data)
        if broken == "ckpt":
            doc = json.loads(ckpt.read_text())
            doc["params"] = []
            ckpt.write_text(json.dumps(doc))
        else:
            data.write_text("-1,2,x\n")
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 1
        named = ckpt if broken == "ckpt" else data
        assert capsys.readouterr().err.startswith(f"error: {named}: ")

    @pytest.mark.parametrize("case", ["ckpt-missing", "ckpt-directory", "ckpt-undecodable",
                                      "data-missing", "adapt-undecodable-source"])
    def test_unreadable_input_file_is_one_error_line(self, workspace, tmp_path, capsys, case):
        cfg_path, run_dir = workspace
        ckpt, data = tmp_path / "m.ckpt", tmp_path / "d.csv"
        save_checkpoint(build(MlpSpec(2, (4,), 4, 2)), ckpt)
        save_labeled_set(LabeledSet(np.zeros((2, 2)), np.array([0, 1]), 2, "d"), data)
        if case == "ckpt-missing":
            ckpt = tmp_path / "missing.ckpt"
        elif case == "ckpt-directory":
            ckpt = tmp_path
        elif case == "data-missing":
            data = tmp_path / "missing.csv"
        elif case == "ckpt-undecodable":
            ckpt.write_bytes(b"\xff\xfe{}")
        else:  # a source checkpoint that adapt would reuse
            run_dir.mkdir(parents=True)
            (run_dir / "source.ckpt").write_bytes(b"\xff\xfe{}")

        def files():
            return sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))

        before = files()
        argv = ["adapt", "--config", str(cfg_path)] if case.startswith("adapt") else \
            ["eval", "--ckpt", str(ckpt), "--data", str(data)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
        assert files() == before

    @pytest.mark.parametrize("option", ["--data-seeds", "--model-seeds"])
    def test_negative_sweep_seed_is_a_usage_error(self, workspace, capsys, option):
        cfg_path, run_dir = workspace
        seeds = {"--data-seeds": "1", "--model-seeds": "5", option: "2,-3"}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg_path)]
                 + [arg for pair in seeds.items() for arg in pair])
        assert exc.value.code == 2
        assert "seeds must be >= 0" in capsys.readouterr().err
        assert not run_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ("1,x", "expected comma-separated integers, got '1,x'"),
        (" , ", "expected at least one seed"),
    ], ids=["not-an-integer", "no-seed"])
    def test_a_malformed_sweep_seed_list_is_a_usage_error(self, workspace, capsys, text,
                                                           message):
        cfg_path, run_dir = workspace
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg_path), "--data-seeds", text,
                  "--model-seeds", "5"])
        assert exc.value.code == 2
        assert f"--data-seeds: {message}\n" in capsys.readouterr().err
        assert not run_dir.exists()

    @pytest.mark.parametrize("option", ["--data-seeds", "--model-seeds"])
    def test_repeated_sweep_seed_writes_nothing(self, workspace, capsys, option):
        cfg_path, run_dir = workspace
        seeds = {"--data-seeds": "1", "--model-seeds": "5", option: "3,2,3,2"}
        assert main(["sweep", "--config", str(cfg_path)]
                    + [arg for pair in seeds.items() for arg in pair]) == 1
        kind = option[2:-6]
        assert capsys.readouterr().err == f"error: {kind} seed 3 is repeated\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_below_one_is_a_usage_error(self, workspace, capsys, jobs):
        cfg_path, run_dir = workspace
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg_path), "--data-seeds", "1",
                  "--model-seeds", "5", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_output_that_dies_midway_leaves_no_partial_file(self, workspace, capsys,
                                                            monkeypatch):
        cfg_path, run_dir = workspace
        assert main(["adapt", "--config", str(cfg_path)]) == 0

        def crash(value):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_fmt", crash)  # trace.csv dies after its header
        with pytest.raises(OSError, match="disk full"):
            main(["adapt", "--config", str(cfg_path), "--force", "--split-seed", "4"])
        # --force deleted the old run's outputs first; the crash left neither a
        # truncated trace.csv nor its temporary file, and nothing after it ran
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config.json", "pretrain.log", "source.ckpt", "target.ckpt", "test_set.csv"]

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


def test_importing_the_cli_loads_no_process_pool_stack():
    # a sweep that forks imports concurrent.futures; nothing else needs it
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, actlab.cli; print(sorted(m for m in ('concurrent.futures', "
             "'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "[]\n"
