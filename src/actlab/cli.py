"""Command line front end: pretrain, adapt, eval, sweep.

Every run lands in <output_dir>/<run_id>/. Existing files are never replaced
silently: rewriting requires --force, except config.json, which may be
rewritten freely when the content is identical (so pretrain and adapt can
share a run directory without friction).

Exit codes: 0 success, 1 failed run or bad inputs, 2 refused overwrite
(argparse also uses 2 for usage errors).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .config import (ExperimentConfig, config_hash, config_to_dict, load_config)
from .data import load_labeled_set, make_domain_pair, sample_support, save_labeled_set
from .errors import ContractViolation, DivergenceError, ParseError
from .fileio import atomic_write
from .models import load_checkpoint, save_checkpoint
from .pipeline import adapt as run_adapt
from .pipeline import EVAL_HEADS, StepRecord, SweepCell, evaluate, pretrain_source, seed_sweep

TRACE_COLUMNS = tuple(f.name for f in fields(StepRecord))
SWEEP_COLUMNS = ("kind",) + tuple(f.name for f in fields(SweepCell))


class _OverwriteRefused(Exception):
    pass


def _claim(path: Path, force: bool, expect_text: str | None = None):
    if not path.exists():
        return
    if expect_text is not None and path.read_text() == expect_text:
        return
    if not force:
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


def _effective_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if getattr(args, "split_seed", None) is not None:
        cfg = replace(cfg, split_seed=args.split_seed)
    if getattr(args, "adapt_seed", None) is not None:
        cfg = replace(cfg, adapt=replace(cfg.adapt, seed=args.adapt_seed))
    if getattr(args, "pretrain_seed", None) is not None:
        cfg = replace(cfg, pretrain=replace(cfg.pretrain, seed=args.pretrain_seed))
    if getattr(args, "init_seed", None) is not None:
        cfg = replace(cfg, model=replace(cfg.model, init_seed=args.init_seed))
    return cfg


def _config_text(cfg) -> str:
    return json.dumps(config_to_dict(cfg), indent=1, sort_keys=True) + "\n"


def _maybe_print_config(args, cfg) -> bool:
    if args.print_config:
        print(_config_text(cfg), end="")
        return True
    return False


def _run_dir(cfg) -> Path:
    return Path(cfg.output_dir) / cfg.run_id


def _write_text(path, text):
    with atomic_write(path) as f:
        f.write(text)


def _write_pretrain_outputs(run_dir, cfg, bundle, history):
    save_checkpoint(bundle, run_dir / "source.ckpt")
    lines = [f"epoch={h['epoch']} mean_loss={h['mean_loss']:.6f} "
             f"train_acc={h['train_accuracy']:.4f}" for h in history]
    _write_text(run_dir / "pretrain.log", "".join(line + "\n" for line in lines))


def cmd_pretrain(args) -> int:
    cfg = _effective_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    run_dir = _run_dir(cfg)
    cfg_text = _config_text(cfg)
    _claim(run_dir / "config.json", args.force, expect_text=cfg_text)
    _claim(run_dir / "source.ckpt", args.force)
    _claim(run_dir / "pretrain.log", args.force)
    source, _ = make_domain_pair(cfg.domain)
    bundle, history = pretrain_source(source, cfg.model, cfg.pretrain)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_text(run_dir / "config.json", cfg_text)
    _write_pretrain_outputs(run_dir, cfg, bundle, history)
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
    cfg = _effective_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    run_dir = _run_dir(cfg)
    cfg_text = _config_text(cfg)
    source_ckpt = run_dir / "source.ckpt"
    will_pretrain = not source_ckpt.exists()
    _claim(run_dir / "config.json", args.force, expect_text=cfg_text)
    for name in ("target.ckpt", "report.json", "trace.csv", "test_set.csv"):
        _claim(run_dir / name, args.force)
    if will_pretrain:
        _claim(run_dir / "pretrain.log", args.force)

    # validate the support draw and an existing source checkpoint before any write;
    # the split draws from its own seeded stream, so moving it first changes no bit
    source, target = make_domain_pair(cfg.domain)
    split = sample_support(target, cfg.n_way, cfg.k_shot, cfg.split_seed)
    if not will_pretrain:
        bundle = load_checkpoint(source_ckpt, expect_spec=cfg.model)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_text(run_dir / "config.json", cfg_text)
    if will_pretrain:
        bundle, history = pretrain_source(source, cfg.model, cfg.pretrain)
        _write_pretrain_outputs(run_dir, cfg, bundle, history)

    adapted, report = run_adapt(bundle, split, cfg.augment, cfg.adapt)

    save_checkpoint(adapted, run_dir / "target.ckpt")
    save_labeled_set(split.test, run_dir / "test_set.csv")
    _write_trace_csv(run_dir / "trace.csv", report.trace)

    report.config_hash = config_hash(cfg)
    report.checkpoint_paths = {"source": str(source_ckpt),
                               "target": str(run_dir / "target.ckpt")}
    report.seeds.update({"domain_seed": cfg.domain.seed,
                         "pretrain_seed": cfg.pretrain.seed})
    doc = report.to_dict()
    doc["config"] = config_to_dict(cfg)
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
        print(json.dumps({
            "accuracy": result.accuracy,
            "per_class_accuracy": result.per_class,
            "macro_accuracy": result.macro_accuracy,
            "confusion_matrix": result.confusion.tolist(),
            "num_test": result.num_test,
        }, indent=1))
    else:
        print(f"accuracy={result.accuracy:.4f} macro={result.macro_accuracy:.4f} "
              f"n={result.num_test}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    run_dir = _run_dir(cfg)
    cfg_text = _config_text(cfg)
    _claim(run_dir / "config.json", args.force, expect_text=cfg_text)
    _claim(run_dir / "sweep.csv", args.force)

    report = seed_sweep(cfg.domain, cfg.model, cfg.pretrain, cfg.adapt, cfg.augment,
                        cfg.n_way, cfg.k_shot, args.data_seeds, args.model_seeds,
                        jobs=args.jobs)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_text(run_dir / "config.json", cfg_text)
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
            p.add_argument("--split-seed", type=int, help="override split_seed")
            p.add_argument("--adapt-seed", type=int, help="override adapt.seed")
            p.add_argument("--pretrain-seed", type=int, help="override pretrain.seed")
            p.add_argument("--init-seed", type=int, help="override model.init_seed")

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
