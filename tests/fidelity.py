"""Bitwise fidelity check on the acceptance suite's reference runs.

    PYTHONPATH=src python3 tests/fidelity.py > fidelity.txt

Prints one line per adaptation run: the pretrained and the adapted
`params_fingerprint`, and a sha256 over the run's `StepRecord` trace. A change
that must keep every bit prints exactly the same lines as its parent commit,
so diff the two outputs. The configurations are the ones `test_acceptance.py`
pins: moons and blobs at data seeds 2, 3 and 4 for 800 iterations, plus seven
200-iteration variants of moons seed 2 that reach the other code paths, and
one 200-iteration blobs run on a model with two hidden layers, so that the
multi-layer backward of the extractor is covered too. Last come two lines
for a small moons `seed_sweep` (model seeds 7 and 8 x data seeds 2 and 3, 100
adaptation iterations), one at ``jobs=1`` and one at ``jobs=2``: each is a
sha256 of the sweep report's `to_dict()`, so the two lines must also match
each other. The three final lines cover the file formats: the `config_hash`
of the README quickstart config, loaded through `load_config`, a sha256 of
the bytes `save_checkpoint` writes for the pretrained moons source model, and
the `params_fingerprint` of that file loaded back. The last line does not
depend on how the file is encoded, so a change of checkpoint bytes that keeps
every parameter changes only the line before it.

Not collected by pytest (no ``test_`` prefix). It takes about 20 s on a
2-vCPU machine.
"""

import hashlib
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

from actlab.config import config_hash, load_config
from actlab.data import make_domain_pair, sample_support
from actlab.models import (load_checkpoint, params_fingerprint, save_checkpoint,
                           trainable_params)
from actlab.optim import SamConfig
from actlab.pipeline import (ScheduleConfig, adapt, hash_of_dict, pretrain_source,
                             seed_sweep)

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
}


def fingerprint(bundle):
    return params_fingerprint(trainable_params(bundle, "all_target"))


def trace_hash(report):
    doc = json.dumps([r.to_dict() for r in report.trace])
    return hashlib.sha256(doc.encode()).hexdigest()


def runs():
    """(label, domain spec, model spec, n_way, data seed, adapt config) per run."""
    for name, domain, model, n_way in (("moons", MOONS, MOONS_MODEL, 2),
                                       ("blobs", BLOBS, BLOBS_MODEL, 4)):
        for seed in DATA_SEEDS:
            yield f"{name}/seed{seed}", domain, model, n_way, seed, reference_adapt_config()
    for tag, overrides in VARIANTS.items():
        yield (f"moons/seed2/{tag}", MOONS, MOONS_MODEL, 2, 2,
               reference_adapt_config(total_iterations=200, **overrides))
    yield ("blobs/seed2/hidden_32x32", BLOBS, replace(BLOBS_MODEL, hidden_dims=(32, 32)),
           4, 2, reference_adapt_config(total_iterations=200))


def main():
    pretrained = {}
    for label, domain, model, n_way, seed, cfg in runs():
        if (domain, model) not in pretrained:
            source, target = make_domain_pair(domain)
            bundle, _ = pretrain_source(source, model, PRETRAIN)
            pretrained[domain, model] = (bundle, target)
        bundle, target = pretrained[domain, model]
        split = sample_support(target, n_way, 5, seed=seed)
        adapted, report = adapt(bundle, split, reference_policy(), cfg)
        print(f"{label} pretrained={fingerprint(bundle)} adapted={fingerprint(adapted)} "
              f"trace={trace_hash(report)}", flush=True)
    for jobs in (1, 2):
        report = seed_sweep(MOONS, MOONS_MODEL, PRETRAIN,
                            reference_adapt_config(total_iterations=100),
                            reference_policy(), 2, 5, data_seeds=[2, 3],
                            model_seeds=[7, 8], jobs=jobs)
        print(f"moons/sweep/jobs{jobs} report={hash_of_dict(report.to_dict())}", flush=True)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quickstart = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, ckpt_path = Path(tmp) / "config.json", Path(tmp) / "source.ckpt"
        cfg_path.write_text(quickstart)
        print(f"readme/quickstart config_hash={config_hash(load_config(cfg_path))}")
        save_checkpoint(pretrained[MOONS, MOONS_MODEL][0], ckpt_path)
        digest = hashlib.sha256(ckpt_path.read_bytes()).hexdigest()
        print(f"moons/source.ckpt sha256={digest}", flush=True)
        print(f"moons/source.ckpt reloaded={fingerprint(load_checkpoint(ckpt_path))}",
              flush=True)


if __name__ == "__main__":
    main()
