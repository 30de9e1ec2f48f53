"""Pretrain on source, adapt on a few-shot support set, evaluate, sweep seeds.

The adaptation loop alternates two loss-driven steps per outer iteration:

    step 1  supervision + entropy + reverse CE, over every target parameter
    step 2  the same terms with the weighted CDD term applied (default sign
            subtracts it, i.e. pushes head disparity up), over the two
            classifier heads only

Branch 1 consumes weakly augmented views, branch 2 strongly augmented ones.
Every optimizer step goes through SAM wrapping Adam; the learning rate decays
as eta0 * (1 + 10 p)^-0.75 over outer-iteration progress p.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, replace
from typing import Annotated, Literal, get_args

import numpy as np

from .data import (AugmentPolicy, LabeledSet, SupportSplit, augment_batch,
                   batches, make_domain_pair, rng_stream, sample_support)
from .errors import ContractViolation, DivergenceError
from .losses import (LossWeights, SmoothingParams, batch_targets, lsce,
                     step1_objective, step2_objective)
from .models import (MlpSpec, ModelBundle, build, bundle_from_params,
                     clone_for_adaptation, forward_features, forward_head,
                     forward_target, params_fingerprint, plain_features, plain_head,
                     trainable_params)
from .optim import (AdamConfig, SamConfig, SamState, SgdConfig, SgdState, lr_at,
                    sam_step, sgd_step)
from .schema import Count, Fraction, Match, Natural, Positive, check_fields
from .tensor import Tensor, _softmax, backward, zero_grad

EvalHead = Literal["c_t1", "mean_of_heads"]
EVAL_HEADS = get_args(EvalHead)


@dataclass(frozen=True)
class PretrainConfig:
    epochs: Natural = 60
    batch_size: Count = 32
    sgd: SgdConfig = SgdConfig(lr=0.02, momentum=0.9, weight_decay=5e-4)
    lr_multiplier_heads: Positive = 10.0
    alpha_smooth: Fraction = 0.1
    seed: Natural = 0

    __post_init__ = check_fields


@dataclass(frozen=True)
class ScheduleConfig:
    eta0: Positive = 1e-3
    head_multiplier: Positive = 10.0 / 3.0
    schedule_extractor: bool = True
    schedule_heads: bool = True

    __post_init__ = check_fields


@dataclass(frozen=True)
class AdaptConfig:
    total_iterations: Count = 2000
    batch_size: Count = 32
    weights: LossWeights = field(default_factory=LossWeights)
    smoothing: SmoothingParams = field(default_factory=SmoothingParams)
    sam: SamConfig = field(default_factory=SamConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    cdd_sign: Literal["as_printed", "flipped"] = "as_printed"
    step_pattern: Annotated[str, Match("[12]+")] = "12"
    fresh_batch_per_step: bool = True
    view_mode: Literal["asymmetric", "both_to_both"] = "asymmetric"
    eval_head: EvalHead = "c_t1"
    seed: Natural = 0

    def __post_init__(self):
        check_fields(self)
        if self.sam.base.lr != AdamConfig.lr:  # every step passes the schedule's rates
            raise ContractViolation(f"sam.base.lr is not used: adaptation takes its learning "
                                    f"rates from schedule (eta0, head_multiplier); leave "
                                    f"sam.base.lr at {AdamConfig.lr}, got {self.sam.base.lr}")


@dataclass
class StepRecord:
    iteration: int
    step_kind: str
    loss_total: float
    loss_lsce: float
    loss_entropy: float
    loss_rce: float
    loss_cdd: float
    lr: float

    def to_dict(self):
        return asdict(self)


@dataclass
class EvalResult:
    accuracy: float
    per_class: list
    macro_accuracy: float
    confusion: np.ndarray
    num_test: int


@dataclass
class RunReport:
    """What `adapt` computed: the step trace and the adapted and no-adapt scores.

    The run's provenance is the caller's: the configs and seeds it passed in.
    """

    trace: list
    accuracy: float
    per_class: list
    macro_accuracy: float
    confusion: list
    no_adapt_accuracy: float
    no_adapt_per_class: list
    no_adapt_macro_accuracy: float


# -- evaluation -------------------------------------------------------------------


def evaluate(bundle: ModelBundle, test: LabeledSet, eval_head: str = "c_t1") -> EvalResult:
    """Accuracy, per-class accuracy and confusion counts on clean inputs.

    Argmax ties resolve to the lowest class index. Classes absent from the
    test set get a None per-class entry and stay out of the macro average.
    """
    if eval_head not in EVAL_HEADS:
        raise ContractViolation(f"eval_head must be one of {EVAL_HEADS}")
    if len(test) == 0:
        raise ContractViolation("cannot evaluate an empty test set")
    if test.num_classes != bundle.spec.num_classes:
        raise ContractViolation(f"test set has {test.num_classes} classes, "
                                f"model expects {bundle.spec.num_classes}")
    feats = plain_features(bundle, test.xs)
    probs = _softmax(plain_head(bundle, feats, 1))
    if eval_head == "mean_of_heads":
        probs = 0.5 * (probs + _softmax(plain_head(bundle, feats, 2)))
    preds = np.argmax(probs, axis=1)
    k = test.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (test.ys, preds), 1)
    per_class, present = [], []
    for c in range(k):
        total = int(confusion[c].sum())
        if total == 0:
            per_class.append(None)
        else:
            acc_c = float(confusion[c, c] / total)
            per_class.append(acc_c)
            present.append(acc_c)
    return EvalResult(
        accuracy=float((preds == test.ys).mean()),
        per_class=per_class,
        macro_accuracy=float(np.mean(present)),
        confusion=confusion,
        num_test=len(test),
    )


# -- source pretraining -------------------------------------------------------------


def _rates(params, heads, extractor_lr, head_lr):
    """Each parameter's learning rate: `head_lr` for one of `heads`, else `extractor_lr`."""
    return [head_lr if p in heads else extractor_lr for p in params]


# a run that overflows reports once, by its DivergenceError, not also by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def pretrain_source(source: LabeledSet, spec: MlpSpec, cfg: PretrainConfig):
    """Train extractor plus both heads with label-smoothed CE under SGD-momentum.

    Returns (bundle, history); history holds one record per epoch. Zero epochs
    returns the untouched initialization.
    """
    if source.num_classes != spec.num_classes:
        raise ContractViolation(f"source has {source.num_classes} classes, "
                                f"spec expects {spec.num_classes}")
    bundle = build(spec)
    params = trainable_params(bundle, "all_target")
    lrs = _rates(params, trainable_params(bundle, "classifiers_only"), cfg.sgd.lr,
                 cfg.sgd.lr * cfg.lr_multiplier_heads)
    state = SgdState()
    history = []
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for idx in batches(source, cfg.batch_size, cfg.seed, epoch):
            x, y = Tensor(source.xs[idx]), source.ys[idx]
            l1, l2 = forward_target(bundle, x)
            if not (np.isfinite(l1.data).all() and np.isfinite(l2.data).all()):
                raise DivergenceError(f"pretraining diverged at epoch {epoch}: "
                                      f"non-finite logits", iteration=epoch,
                                      last_loss=float("nan"))
            loss = lsce(l1, y, cfg.alpha_smooth) + lsce(l2, y, cfg.alpha_smooth)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(f"pretraining diverged at epoch {epoch}",
                                      iteration=epoch, last_loss=value)
            zero_grad(params)
            backward(loss)
            sgd_step(params, [p.grad for p in params], state, cfg.sgd, lr_override=lrs)
            epoch_losses.append(value)
        history.append({
            "epoch": epoch,
            "mean_loss": float(np.mean(epoch_losses)),
            "train_accuracy": evaluate(bundle, source).accuracy,
        })
    return bundle, history


# -- adaptation ----------------------------------------------------------------------


def _batch_stream(support, batch_size, seed):
    epoch = 0
    while True:
        for idx in batches(support, batch_size, seed, epoch):
            yield idx
        epoch += 1


def _route_views(view_mode, weak, strong, ys):
    if view_mode == "asymmetric":
        return weak, strong, ys
    both = np.vstack([weak, strong])
    return both, both, np.concatenate([ys, ys])


@np.errstate(over="ignore", invalid="ignore")  # as for pretrain_source
def adapt(source_model: ModelBundle, split: SupportSplit, policy: AugmentPolicy,
          cfg: AdaptConfig):
    """Run the two-step loop from a pretrained model. Returns (bundle, report).

    Training runs on a clone; `source_model` itself is the frozen source whose
    probabilities anchor the losses, and it is left bitwise unchanged. Only
    the labeled `split.support` is drawn from; `split.test` is used for
    evaluation alone. A non-finite loss aborts with the iteration index and
    the last finite parameter snapshot attached.
    """
    spec = source_model.spec
    support = split.support
    if support.num_classes != spec.num_classes:
        raise ContractViolation(f"support labels span {support.num_classes} classes, "
                                f"model expects {spec.num_classes}")
    if support.xs.shape[1] != spec.input_dim:
        raise ContractViolation(f"support dim {support.xs.shape[1]} != model "
                                f"input dim {spec.input_dim}")

    source_before = params_fingerprint(trainable_params(source_model, "all_target"))
    bundle = clone_for_adaptation(source_model)
    heads = trainable_params(bundle, "classifiers_only")
    # step kind -> the parameters it trains and its SAM state
    steps = {"1": (trainable_params(bundle, "all_target"), SamState()),
             "2": (heads, SamState())}
    n_t = min(cfg.batch_size, len(support))
    batch_iter = _batch_stream(support, n_t, cfg.seed)
    aug_rng = rng_stream(cfg.seed, "augment")

    def source_probs(view, branch):
        feats = plain_features(source_model, view)
        return _softmax(plain_head(source_model, feats, branch))

    trace = []
    # optimizer steps rebind p.data and never write into it, so references suffice
    last_good = {name: t.data for name, t in bundle.named_params()}
    for it in range(cfg.total_iterations):
        progress = it / cfg.total_iterations
        eta = lr_at(cfg.schedule.eta0, progress)
        lr_ext = eta if cfg.schedule.schedule_extractor else cfg.schedule.eta0
        lr_head = (eta if cfg.schedule.schedule_heads else cfg.schedule.eta0) \
            * cfg.schedule.head_multiplier
        lrs = {}  # a plain loop: a comprehension would cost a Python call per iteration
        for kind, (params, _) in steps.items():
            lrs[kind] = _rates(params, heads, lr_ext, lr_head)

        step_inputs = None
        for step_kind in cfg.step_pattern:
            if step_inputs is None or cfg.fresh_batch_per_step:
                idx = next(batch_iter)
                xs, ys = support.xs[idx], support.ys[idx]
                weak = augment_batch(xs, policy, "weak", aug_rng)
                strong = augment_batch(xs, policy, "strong", aug_rng)
                view1, view2, labels = _route_views(cfg.view_mode, weak, strong, ys)
                view1, view2 = Tensor(view1), Tensor(view2)
                targets = batch_targets(labels, source_probs(view1, 1),
                                        source_probs(view2, 2), cfg.smoothing)
                step_inputs = (view1, view2, targets)
            view1, view2, targets = step_inputs

            if step_kind == "2":
                # step 2 moves only the heads: its features are constants
                fixed = (Tensor(plain_features(bundle, view1)),
                         Tensor(plain_features(bundle, view2)))
            evals = []  # SAM calls the closure twice; the trace logs the first, unperturbed one

            def closure():
                feats1, feats2 = fixed if step_kind == "2" else \
                    (forward_features(bundle, view1), forward_features(bundle, view2))
                l1, l2 = forward_head(bundle, feats1, 1), forward_head(bundle, feats2, 2)
                if not (np.isfinite(l1.data).all() and np.isfinite(l2.data).all()):
                    raise DivergenceError(
                        f"adaptation diverged at iteration {it} (step {step_kind}): "
                        f"non-finite logits", iteration=it, last_loss=float("nan"),
                        last_good_params=last_good)
                if step_kind == "1":
                    total, comps = step1_objective(l1, l2, targets, cfg.weights)
                else:
                    total, comps = step2_objective(l1, l2, targets, cfg.weights,
                                                   cfg.cdd_sign)
                evals.append(comps)
                return total

            params, sam_state = steps[step_kind]
            loss_value = sam_step(params, closure, sam_state, cfg.sam,
                                  lr_override=lrs[step_kind])

            if not np.isfinite(loss_value):
                raise DivergenceError(
                    f"adaptation diverged at iteration {it} (step {step_kind})",
                    iteration=it, last_loss=loss_value, last_good_params=last_good)
            last_good = {name: t.data for name, t in bundle.named_params()}
            comps = evals[0]
            trace.append(StepRecord(
                iteration=it, step_kind=f"step{step_kind}", loss_total=loss_value,
                loss_lsce=comps["lsce"], loss_entropy=comps["entropy"],
                loss_rce=comps["rce"], loss_cdd=comps["cdd"], lr=lr_ext))

    if params_fingerprint(trainable_params(source_model, "all_target")) != source_before:
        raise RuntimeError("source model changed during adaptation")

    final = evaluate(bundle, split.test, cfg.eval_head)
    baseline = evaluate(source_model, split.test, cfg.eval_head)
    report = RunReport(
        trace=trace,
        accuracy=final.accuracy,
        per_class=final.per_class,
        macro_accuracy=final.macro_accuracy,
        confusion=final.confusion.tolist(),
        no_adapt_accuracy=baseline.accuracy,
        no_adapt_per_class=baseline.per_class,
        no_adapt_macro_accuracy=baseline.macro_accuracy,
    )
    return bundle, report


# -- seed sweeps ---------------------------------------------------------------------


@dataclass
class SweepCell:
    data_seed: int
    model_seed: int
    status: str
    no_adapt_accuracy: float | None
    adapted_accuracy: float | None
    no_adapt_macro: float | None
    adapted_macro: float | None


@dataclass
class SweepReport:
    cells: list
    mean_adapted: float | None
    mean_no_adapt: float | None
    spread_adapted: float | None
    variance_adapted: float | None

    def to_dict(self):
        return asdict(self)


def _pretrain_params(source, spec, cfg):
    """Pretrain one model seed; its named parameter arrays."""
    bundle, _ = pretrain_source(source, spec, cfg)
    return {name: t.data for name, t in bundle.named_params()}


def _run_cell(spec, source_params, target, n_way, k_shot, data_seed, model_seed,
              policy, adapt_cfg):
    try:
        pretrained = bundle_from_params(spec, source_params)
        split = sample_support(target, n_way, k_shot, seed=data_seed)
        _, report = adapt(pretrained, split, policy, adapt_cfg)
        return SweepCell(data_seed, model_seed, "ok",
                         report.no_adapt_accuracy, report.accuracy,
                         report.no_adapt_macro_accuracy, report.macro_accuracy)
    except (ContractViolation, DivergenceError) as e:
        # a bad draw or a diverged run is data; any other error is a bug and propagates
        return SweepCell(data_seed, model_seed, f"error: {type(e).__name__}: {e}",
                         None, None, None, None)


def seed_sweep(domain, spec, pretrain_cfg, adapt_cfg, policy, n_way, k_shot,
               data_seeds, model_seeds, jobs: int = 1) -> SweepReport:
    """Cross-product of data seeds (support draw) and model seeds (init + pretrain).

    Pretraining happens once per model seed. With ``jobs > 1`` one process
    pool does all the work: each model seed's pretraining is a task, and its
    cells are submitted as soon as it finishes, so cells of one seed run while
    another still pretrains. Every task is deterministic and independent, so
    the report is the same for every ``jobs``. A cell that fails with a
    ContractViolation or a DivergenceError is recorded with its error and
    skipped by the aggregates; any other exception in a cell, and any
    exception in pretraining, propagates, and queued tasks are cancelled.
    Spread and variance are computed across data seeds after averaging over
    model seeds within each data seed.
    """
    if not data_seeds or not model_seeds:
        raise ContractViolation("need at least one data seed and one model seed")
    if jobs < 1:
        raise ContractViolation(f"jobs must be >= 1, got {jobs}")
    source, target = make_domain_pair(domain)

    def pretrain_args(ms):
        return source, replace(spec, init_seed=ms), replace(pretrain_cfg, seed=ms)

    def cell_args(ms, params):
        return [(replace(spec, init_seed=ms), params, target, n_way, k_shot, ds, ms,
                 policy, adapt_cfg) for ds in data_seeds]

    if jobs == 1:
        cells = [_run_cell(*args) for ms in model_seeds
                 for args in cell_args(ms, _pretrain_params(*pretrain_args(ms)))]
    else:
        pool = ProcessPoolExecutor(max_workers=jobs)
        try:
            pretraining = {pool.submit(_pretrain_params, *pretrain_args(ms)): ms
                           for ms in model_seeds}
            cell_futures = []
            for done in as_completed(pretraining):
                params = done.result()
                cell_futures += [pool.submit(_run_cell, *args)
                                 for args in cell_args(pretraining[done], params)]
            cells = [f.result() for f in cell_futures]
        finally:
            pool.shutdown(cancel_futures=True)
    cells.sort(key=lambda c: (c.data_seed, c.model_seed))

    ok = [c for c in cells if c.status == "ok"]
    if ok:
        by_ds = {}
        for c in ok:
            by_ds.setdefault(c.data_seed, []).append(c.adapted_accuracy)
        ds_means = [float(np.mean(v)) for _, v in sorted(by_ds.items())]
        report = SweepReport(
            cells=cells,
            mean_adapted=float(np.mean([c.adapted_accuracy for c in ok])),
            mean_no_adapt=float(np.mean([c.no_adapt_accuracy for c in ok])),
            spread_adapted=float(max(ds_means) - min(ds_means)),
            variance_adapted=float(np.var(ds_means)),
        )
    else:
        report = SweepReport(cells=cells, mean_adapted=None, mean_no_adapt=None,
                             spread_adapted=None, variance_adapted=None)
    return report
