"""Bitwise fidelity check on the acceptance suite's reference runs.

    PYTHONPATH=src python3 tests/fidelity.py > fidelity.txt

Prints one line per adaptation run: the pretrained and the adapted
`params_fingerprint`, and a sha256 over the run's `StepRecord` trace. Before
the first run on each pretrained model comes a line with a sha256 over its
pretraining `history`, the per-epoch mean loss and train accuracy. A change
that must keep every bit prints exactly the same lines as its parent commit,
so diff the two outputs. The configurations are the ones `test_acceptance.py`
pins: moons and blobs at data seeds 2, 3 and 4 for 800 iterations, plus eight
200-iteration variants of moons seed 2 that reach the other code paths, and
one 200-iteration blobs run on a model with two hidden layers, so that the
multi-layer backward of the extractor is covered too. The reference runs
have one batch per epoch, so ``tail_batch`` cuts the 10-row support into
batches of 4, 4 and 2, to reach short tail batches. Last come three lines
for a small moons `seed_sweep` (model seeds 7 and 8 x data seeds 2 and 3, 100
adaptation iterations), at ``jobs=1``, ``jobs=2`` and ``jobs=4``: one group
per model seed, then two, so only ``jobs=4`` cuts a seed's data seeds. Each
is a sha256 of the sweep report's `to_dict()`, so the three lines must also
match each other. Three lines cover the file formats: the `config_hash` of the
README quickstart config, loaded through `load_config`, a sha256 of the bytes
`save_checkpoint` writes for the pretrained moons source model, and the
`params_fingerprint` of that file loaded back. The reload line does not
depend on how the file is encoded, so a change of checkpoint bytes that keeps
every parameter changes only the line before it. The last lines cover the
CLI's bytes: in a temporary working directory, the README quickstart runs
through `cli.main` (`adapt`, `eval --json` on its outputs, and a two-cell
`sweep --jobs 2`), and each command's stdout and each file it wrote get a
sha256 line. The quickstart's relative `output_dir` keeps the checkpoint
paths inside `report.json` the same in every directory.

Not collected by pytest (no ``test_`` prefix). It takes about 30 s on a
2-vCPU machine.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

from actlab import cli
from actlab.config import config_hash, load_config
from actlab.data import make_domain_pair, sample_support
from actlab.models import (load_checkpoint, params_fingerprint, save_checkpoint,
                           trainable_params)
from actlab.optim import SamConfig
from actlab.pipeline import ScheduleConfig, adapt, pretrain_source, seed_sweep

from test_acceptance import (BLOBS, BLOBS_MODEL, DATA_SEEDS, MOONS, MOONS_MODEL,
                             PRETRAIN, reference_adapt_config, reference_policy)

VARIANTS = {
    "both_to_both": {"view_mode": "both_to_both"},
    "reused_batch": {"fresh_batch_per_step": False},
    "pattern_112": {"step_pattern": "112"},
    "pattern_2": {"step_pattern": "2"},
    "as_printed": {"cdd_sign": "as_printed"},
    "rho_0": {"sam": SamConfig(rho=0.0)},
    "unscheduled": {"schedule": ScheduleConfig(eta0=1e-3, schedule_extractor=False,
                                               schedule_heads=False)},
    "tail_batch": {"batch_size": 4},  # batches of 4, 4 and a short tail of 2 per epoch
}


CLI_RUNS = (
    ["adapt", "--config", "config.json"],
    ["eval", "--json", "--ckpt", "runs/moons-demo/target.ckpt",
     "--data", "runs/moons-demo/test_set.csv"],
    ["sweep", "--config", "config.json", "--out", "sweepruns", "--data-seeds", "2,3",
     "--model-seeds", "7", "--jobs", "2"],
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(bundle):
    return params_fingerprint(trainable_params(bundle, "all_target"))


def trace_hash(report):
    return sha256(json.dumps([r.to_dict() for r in report.trace]).encode())


def runs():
    """(label, model label, domain spec, model spec, n_way, data seed, adapt config)
    per run; the model label names the pretrained model the run adapts."""
    for name, domain, model, n_way in (("moons", MOONS, MOONS_MODEL, 2),
                                       ("blobs", BLOBS, BLOBS_MODEL, 4)):
        for seed in DATA_SEEDS:
            yield (f"{name}/seed{seed}", name, domain, model, n_way, seed,
                   reference_adapt_config())
    for tag, overrides in VARIANTS.items():
        yield (f"moons/seed2/{tag}", "moons", MOONS, MOONS_MODEL, 2, 2,
               reference_adapt_config(total_iterations=200, **overrides))
    yield ("blobs/seed2/hidden_32x32", "blobs/hidden_32x32", BLOBS,
           replace(BLOBS_MODEL, hidden_dims=(32, 32)), 4, 2,
           reference_adapt_config(total_iterations=200))


def main():
    pretrained = {}
    for label, model_label, domain, model, n_way, seed, cfg in runs():
        if (domain, model) not in pretrained:
            source, target = make_domain_pair(domain)
            bundle, history = pretrain_source(source, model, PRETRAIN)
            print(f"{model_label}/pretrain history={sha256(json.dumps(history).encode())}",
                  flush=True)
            pretrained[domain, model] = (bundle, target)
        bundle, target = pretrained[domain, model]
        split = sample_support(target, n_way, 5, seed=seed)
        adapted, report = adapt(bundle, split, reference_policy(), cfg)
        print(f"{label} pretrained={fingerprint(bundle)} adapted={fingerprint(adapted)} "
              f"trace={trace_hash(report)}", flush=True)
    for jobs in (1, 2, 4):
        report = seed_sweep(MOONS, MOONS_MODEL, PRETRAIN,
                            reference_adapt_config(total_iterations=100),
                            reference_policy(), 2, 5, data_seeds=[2, 3],
                            model_seeds=[7, 8], jobs=jobs)
        digest = sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
        print(f"moons/sweep/jobs{jobs} report={digest}", flush=True)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quickstart = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, ckpt_path = Path(tmp) / "config.json", Path(tmp) / "source.ckpt"
        cfg_path.write_text(quickstart)
        print(f"readme/quickstart config_hash={config_hash(load_config(cfg_path))}")
        save_checkpoint(pretrained[MOONS, MOONS_MODEL][0], ckpt_path)
        print(f"moons/source.ckpt sha256={sha256(ckpt_path.read_bytes())}", flush=True)
        print(f"moons/source.ckpt reloaded={fingerprint(load_checkpoint(ckpt_path))}",
              flush=True)
    cli_lines(quickstart)


def cli_lines(quickstart):
    """The sha256 of each CLI run's stdout, then of each file the runs wrote."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(quickstart)
            for argv in CLI_RUNS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                print(f"cli/{argv[0]} exit={code} stdout={sha256(out.getvalue().encode())}",
                      flush=True)
            for path in sorted(p for p in Path(".").rglob("*")
                               if p.is_file() and p != Path("config.json")):
                print(f"cli/{path.as_posix()} sha256={sha256(path.read_bytes())}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
