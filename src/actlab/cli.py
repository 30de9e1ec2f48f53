"""Command line front end: pretrain, adapt, eval, sweep.

Every run lands in <output_dir>/<run_id>/. No file is replaced silently: that
takes --force, and config.json is replaced only when its text changes. A
command replaces the run files it writes; when config.json's text changes, all
the others, except the source files (source.ckpt, pretrain.log) when the old
config pretrains the same source; when there is no config.json, all the others
but the source files (adapt reuses a lone source.ckpt); and adapt's outputs
whenever the source files are replaced. After validating every input, its
first write deletes them.

Exit codes: 0 success, 1 failed run or bad inputs, 2 refused overwrite
(argparse also uses 2 for usage errors).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .config import ExperimentConfig, config_hash, config_to_dict, load_config, parse_config
from .data import load_labeled_set, make_domain_pair, sample_support, save_labeled_set
from .errors import ContractViolation, DivergenceError, ParseError
from .fileio import atomic_write
from .models import load_checkpoint, save_checkpoint
from .pipeline import adapt as run_adapt
from .pipeline import EVAL_HEADS, StepRecord, SweepCell, evaluate, pretrain_source, seed_sweep

TRACE_COLUMNS = tuple(f.name for f in fields(StepRecord))
PRETRAIN_OUTPUTS = ("source.ckpt", "pretrain.log")
ADAPT_OUTPUTS = ("target.ckpt", "report.json", "trace.csv", "test_set.csv")
RUN_FILES = PRETRAIN_OUTPUTS + ADAPT_OUTPUTS + ("sweep.csv",)
SWEEP_COLUMNS = ("kind",) + tuple(f.name for f in fields(SweepCell))
SEED_FLAGS = {"split_seed": "split_seed", "adapt_seed": "adapt.seed",
              "pretrain_seed": "pretrain.seed", "init_seed": "model.init_seed"}


class _OverwriteRefused(Exception):
    pass


def _claim(path: Path, force: bool):
    if path.exists() and not force:
        raise _OverwriteRefused(f"{path} already exists; pass --force to overwrite")


def _fmt(value):
    return "" if value is None else "%.17g" % value


def _row(record, columns):
    """`record`'s fields named by `columns`, floats and None through `_fmt`."""
    return [_fmt(v) if v is None or isinstance(v, float) else v
            for v in (getattr(record, name) for name in columns)]


def _seed_list(text):
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("expected at least one seed")
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _effective_config(args) -> tuple[ExperimentConfig, str]:
    """The config file with the command line's overrides, parsed, and its config.json text."""
    doc = config_to_dict(load_config(args.config))
    for flag, path in [("out", "output_dir"), *SEED_FLAGS.items()]:
        if (value := getattr(args, flag, None)) is not None:
            *parents, key = path.split(".")
            functools.reduce(dict.__getitem__, parents, doc)[key] = value
    cfg = parse_config(doc)
    return cfg, json.dumps(config_to_dict(cfg), indent=1, sort_keys=True) + "\n"


def _start_run(args, writes, source_if_missing=False):
    """The effective config, and the run files the command replaces, claimed.

    Returns (cfg, run_dir, config text, replaced files): `writes`, plus the
    source files when `source_if_missing` finds no source.ckpt, extended by
    the module docstring's rule.
    """
    cfg, cfg_text = _effective_config(args)
    run_dir = Path(cfg.output_dir) / cfg.run_id
    replaced = set(writes)
    if source_if_missing and not (run_dir / "source.ckpt").exists():
        replaced.update(PRETRAIN_OUTPUTS)
    config = run_dir / "config.json"
    if not config.exists():  # nothing vouches for a run file but a lone source
        replaced.update(set(RUN_FILES) - set(PRETRAIN_OUTPUTS))
    elif config.read_bytes() != cfg_text.encode():
        _claim(config, args.force)
        kept = PRETRAIN_OUTPUTS if _same_source(config, cfg) else ()
        replaced.update(set(RUN_FILES) - set(kept))
    if "source.ckpt" in replaced:  # adapt's outputs derive from the source
        replaced.update(ADAPT_OUTPUTS)
    outputs = tuple(name for name in RUN_FILES if name in replaced)
    for name in outputs:
        _claim(run_dir / name, args.force)
    return cfg, run_dir, cfg_text, outputs


def _same_source(path, cfg) -> bool:
    """Whether the config at `path` pretrains the source `cfg` does."""
    try:
        old = load_config(path)
    except ParseError:  # unreadable or malformed: nothing vouches for source.ckpt
        return False
    return (old.domain, old.model, old.pretrain) == (cfg.domain, cfg.model, cfg.pretrain)


def _write_text(path, text):
    with atomic_write(path) as f:
        f.write(text)


def _replace_run(run_dir, cfg_text, outputs):
    """The first write of a run: delete its claimed `outputs`, then write config.json."""
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in outputs:
        (run_dir / name).unlink(missing_ok=True)
    _write_text(run_dir / "config.json", cfg_text)


def _write_pretrain_outputs(run_dir, bundle, history):
    save_checkpoint(bundle, run_dir / "source.ckpt")
    lines = [f"epoch={h['epoch']} mean_loss={h['mean_loss']:.6f} "
             f"train_acc={h['train_accuracy']:.4f}" for h in history]
    _write_text(run_dir / "pretrain.log", "".join(line + "\n" for line in lines))


def cmd_pretrain(args) -> int:
    cfg, run_dir, cfg_text, outputs = _start_run(args, PRETRAIN_OUTPUTS)
    source, _ = make_domain_pair(cfg.domain)
    bundle, history = pretrain_source(source, cfg.model, cfg.pretrain)
    _replace_run(run_dir, cfg_text, outputs)
    _write_pretrain_outputs(run_dir, bundle, history)
    acc = history[-1]["train_accuracy"] if history else float("nan")
    print(f"pretrain: epochs={cfg.pretrain.epochs} train_acc={acc:.4f} "
          f"-> {run_dir / 'source.ckpt'}")
    return 0


def _write_trace_csv(path, trace):
    with atomic_write(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_COLUMNS)
        w.writerows(_row(r, TRACE_COLUMNS) for r in trace)


def cmd_adapt(args) -> int:
    cfg, run_dir, cfg_text, outputs = _start_run(args, ADAPT_OUTPUTS, source_if_missing=True)
    source_ckpt = run_dir / "source.ckpt"
    will_pretrain = "source.ckpt" in outputs

    # validate the support draw and an existing source checkpoint before any write;
    # the split draws from its own seeded stream, so moving it first changes no bit
    source, target = make_domain_pair(cfg.domain)
    split = sample_support(target, cfg.n_way, cfg.k_shot, cfg.split_seed)
    if not will_pretrain:
        bundle = load_checkpoint(source_ckpt, expect_spec=cfg.model)
    _replace_run(run_dir, cfg_text, outputs)
    if will_pretrain:
        bundle, history = pretrain_source(source, cfg.model, cfg.pretrain)
        _write_pretrain_outputs(run_dir, bundle, history)

    adapted, report = run_adapt(bundle, split, cfg.augment, cfg.adapt)

    save_checkpoint(adapted, run_dir / "target.ckpt")
    save_labeled_set(split.test, run_dir / "test_set.csv")
    _write_trace_csv(run_dir / "trace.csv", report.trace)
    doc = {
        "final": {f.name: getattr(report, f.name) for f in fields(report)[1:]},  # all but trace
        "provenance": {
            "seeds": {"adapt_seed": cfg.adapt.seed, "split_seed": cfg.split_seed,
                      "init_seed": cfg.model.init_seed, "domain_seed": cfg.domain.seed,
                      "pretrain_seed": cfg.pretrain.seed},
            "config_hash": config_hash(cfg),
            "checkpoint_paths": {"source": str(source_ckpt),
                                 "target": str(run_dir / "target.ckpt")},
        },
        "trace": [r.to_dict() for r in report.trace],
        "config": config_to_dict(cfg),
    }
    _write_text(run_dir / "report.json", json.dumps(doc, indent=1) + "\n")

    print(f"no_adapt={report.no_adapt_accuracy:.4f} adapted={report.accuracy:.4f}")
    return 0


def cmd_eval(args) -> int:
    bundle = load_checkpoint(args.ckpt)
    data = load_labeled_set(args.data)
    if data.xs.shape[1] != bundle.spec.input_dim:
        raise ContractViolation(f"dataset {args.data} has dim {data.xs.shape[1]}, "
                                f"checkpoint expects {bundle.spec.input_dim}")
    result = evaluate(bundle, data, args.head)
    if args.json:
        print(json.dumps(asdict(result), indent=1))
    else:
        print(f"accuracy={result.accuracy:.4f} macro={result.macro_accuracy:.4f} "
              f"n={result.num_test}")
    return 0


def cmd_sweep(args) -> int:
    cfg, run_dir, cfg_text, outputs = _start_run(args, ("sweep.csv",))
    report = seed_sweep(cfg.domain, cfg.model, cfg.pretrain, cfg.adapt, cfg.augment,
                        cfg.n_way, cfg.k_shot, args.data_seeds, args.model_seeds,
                        jobs=args.jobs)
    _replace_run(run_dir, cfg_text, outputs)
    with atomic_write(run_dir / "sweep.csv", newline="") as f:
        w = csv.writer(f)
        w.writerow(SWEEP_COLUMNS)
        w.writerows(["cell", *_row(c, SWEEP_COLUMNS[1:])] for c in report.cells)
        w.writerow(["aggregate", "", "", "mean_no_adapt",
                    _fmt(report.mean_no_adapt), "", "", ""])
        for name in ("mean_adapted", "spread_adapted", "variance_adapted"):
            w.writerow(["aggregate", "", "", name, "",
                        _fmt(getattr(report, name)), "", ""])

    n_ok = sum(1 for c in report.cells if c.status == "ok")
    if n_ok == 0:
        print(f"sweep: 0/{len(report.cells)} cells ok (all failed) "
              f"-> {run_dir / 'sweep.csv'}", file=sys.stderr)
        return 1
    print(f"sweep: {n_ok}/{len(report.cells)} cells ok "
          f"mean_no_adapt={report.mean_no_adapt:.4f} "
          f"mean_adapted={report.mean_adapted:.4f} "
          f"spread={report.spread_adapted:.4f} -> {run_dir / 'sweep.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actlab",
        description="Few-shot source-free adaptation lab on synthetic domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=True):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", help="override the config's output_dir")
        p.add_argument("--force", action="store_true",
                       help="allow replacing existing output files")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective config as JSON and exit")
        if seeds:
            for flag, path in SEED_FLAGS.items():
                p.add_argument("--" + flag.replace("_", "-"), type=int, help=f"override {path}")

    p = sub.add_parser("pretrain", help="train the source model, save source.ckpt")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("adapt", help="adapt a source model to the target support set")
    common(p)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an exported dataset")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--head", default="c_t1", choices=EVAL_HEADS)
    p.add_argument("--json", action="store_true", help="emit the full result as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="cross seeds, write sweep.csv")
    common(p, seeds=False)
    p.add_argument("--data-seeds", type=_seed_list, required=True,
                   help="comma-separated support-draw seeds")
    p.add_argument("--model-seeds", type=_seed_list, required=True,
                   help="comma-separated init/pretrain seeds")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes (>= 1)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "print_config", False):  # eval takes no config
            print(_effective_config(args)[1], end="")
            return 0
        return args.func(args)
    except _OverwriteRefused as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ParseError, ContractViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"error: {e} (iteration {e.iteration})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
