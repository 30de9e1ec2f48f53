"""Pretrain on source, adapt on a few-shot support set, evaluate, sweep seeds.

The adaptation loop alternates two loss-driven steps per outer iteration:

    step 1  supervision + entropy + reverse CE, over every target parameter
    step 2  the same terms with the weighted CDD term applied (default sign
            subtracts it, i.e. pushes head disparity up), over the two
            classifier heads only

Branch 1 consumes weakly augmented views, branch 2 strongly augmented ones.
Every optimizer step goes through SAM wrapping Adam; the learning rate decays
as eta0 * (1 + 10 p)^-0.75 over outer-iteration progress p.

The two branches are a leading axis of size 2: a batch's views are one
[2, (S,) n, d] array, and the extractor runs once over both, then one pass of
the two heads as one [2, (S,) f, K] layer gives both heads' logits (the frozen
source model's probabilities and step 2's fixed features come the same way).
Each SAM closure (``_step_closure``) returns one tape node whose one parent
is the gradient leaf of the vector the step trains (``ParamVector.leaf``);
its rule chains ``losses._branch_objective``'s logit gradient through
``models._stack_backward``, adds the extractor's two branch gradients and
returns the vector's flat gradient. The bits are those of separate passes
and nodes per branch, which tests/oracles.py keeps as the reference.

A step's inputs (its views, and the frozen source model's probabilities on
them as ``losses.batch_targets``) do not depend on the trained parameters,
so ``_prepared_batches`` makes them a block of batches at a time: the rows
of every batch in the block are drawn in the per-batch order (weak, then
strong), then augmented, routed, passed through the source model and given
their targets once over a leading block axis, and the loop takes one step's
slice at a time. Each of those operations is elementwise or per [n, .]
slice, so the bits are those of one batch at a time, which tests/oracles.py
keeps as the reference.

``adapt_cells`` runs this loop for several support splits of one size in
lockstep, as one stacked computation: the cells share every batch-index and
augmentation draw, and each cell's numbers are bitwise those of ``adapt`` on
its split alone, which is the one-split case. ``seed_sweep`` runs each model
seed's cells in such groups, one group per pool worker.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, field, replace
from functools import partial
from itertools import groupby, islice
from typing import Annotated, Literal, get_args

import numpy as np

from .data import (AugmentPolicy, LabeledSet, SupportSplit, _augment_apply, _augment_draws,
                   batches, make_domain_pair, rng_stream, sample_support)
from .errors import ContractViolation, DivergenceError
from .losses import (BatchTargets, CddSign, LossWeights, SmoothingParams, _branch_objective,
                     _lsce_targets, _lsce_term, batch_targets)
from .models import (MlpSpec, ModelBundle, _branch_heads, _check_rows, _stack_backward,
                     _stack_forward, build, bundle_from_params, clone_for_adaptation,
                     forward_features, forward_head, params_fingerprint, trainable_params)
from .optim import (AdamConfig, SamConfig, SamState, SgdConfig, SgdState, lr_at,
                    sam_step, sgd_step)
from .schema import Count, Fraction, Match, Natural, Positive, check_fields, checked
from .tensor import _result, _softmax

EvalHead = Literal["c_t1", "mean_of_heads"]
EVAL_HEADS = get_args(EvalHead)

# view rows per block of batches that adaptation prepares at once: 25 batches
# of a 10-row support, and a source pass of at most 512 rows per layer
BLOCK_ROWS = 512


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
    cdd_sign: CddSign = "as_printed"
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


@dataclass(slots=True)  # no dict per record: a trace holds one per step
class StepRecord:
    iteration: int
    step_kind: str
    loss_total: float
    loss_lsce: float
    loss_entropy: float
    loss_rce: float
    loss_cdd: float
    lr: float

    def to_dict(self):  # asdict's dict, without its deep copy of each value
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass
class EvalResult:
    """One model's scores on one test set, named as `actlab eval --json` writes them:
    ``per_class_accuracy`` holds None for a class with no rows, and
    ``confusion_matrix`` is K lists of K ints, true class by predicted class."""

    accuracy: float
    per_class_accuracy: list
    macro_accuracy: float
    confusion_matrix: list
    num_test: int


@dataclass
class RunReport:
    """What `adapt` computed: the step trace, then report.json's ``final`` keys in
    order, the adapted model's first four `EvalResult` fields on the split's
    test set and the source model's first three as ``no_adapt_*``.

    The run's provenance is the caller's: the configs and seeds it passed in.
    """

    trace: list
    accuracy: float
    per_class_accuracy: list
    macro_accuracy: float
    confusion_matrix: list
    no_adapt_accuracy: float
    no_adapt_per_class_accuracy: list
    no_adapt_macro_accuracy: float


# -- evaluation -------------------------------------------------------------------


@checked
def evaluate(bundle: ModelBundle, test: LabeledSet, eval_head: EvalHead = "c_t1") -> EvalResult:
    """Accuracy, per-class and macro accuracy and confusion counts on clean inputs.

    Argmax ties resolve to the lowest class index. Classes absent from the
    test set get a None per-class entry and stay out of the macro average.
    """
    if bundle.vector.data.ndim != 1:
        raise ContractViolation("bundle is stacked: evaluate scores one model")
    if len(test) == 0:
        raise ContractViolation("cannot evaluate an empty test set")
    if test.num_classes != bundle.spec.num_classes:
        raise ContractViolation(f"test set has {test.num_classes} classes, "
                                f"model expects {bundle.spec.num_classes}")
    feats = forward_features(bundle, test.xs)
    probs = _softmax(forward_head(bundle, feats, 1))
    if eval_head == "mean_of_heads":
        probs = 0.5 * (probs + _softmax(forward_head(bundle, feats, 2)))
    k = test.num_classes
    counts = np.bincount(test.ys * k + np.argmax(probs, axis=1), minlength=k * k).reshape(k, k)
    totals = counts.sum(axis=1).tolist()
    scores = (np.diagonal(counts) / np.maximum(totals, 1)).tolist()
    per_class = [score if total else None for score, total in zip(scores, totals)]
    return EvalResult(
        accuracy=int(np.trace(counts)) / len(test),
        per_class_accuracy=per_class,
        macro_accuracy=float(np.mean([score for score in per_class if score is not None])),
        confusion_matrix=counts.tolist(),
        num_test=len(test),
    )


# -- source pretraining -------------------------------------------------------------


def _pretrain_epochs(source, spec, cfg):
    """The pretraining loop: yields the bundle it trains, then each epoch's batch losses.

    The loss is lsce(head1) + lsce(head2) on one shared feature pass. The heads
    start as one draw (``build``) and see the same features, labels and rates,
    so their logits, gradients and steps are bitwise equal all the way through.
    So each batch runs ``head1`` alone, in plain numpy: its lsce value v makes
    the loss v + v, its input gradient g_f makes the extractor's upstream
    gradient g_f + g_f (the sum a tape forms where two heads meet), and
    ``head2`` gets ``head1``'s gradient. The bits are those of the two-head
    loss on the tape, which tests/oracles.py keeps as the reference. Each
    caller drives it under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    if source.num_classes != spec.num_classes:
        raise ContractViolation(f"source has {source.num_classes} classes, "
                                f"spec expects {spec.num_classes}")
    if not len(source):
        raise ContractViolation(f"source set {source.name!r} has no rows")
    xs = _check_rows(source.xs, spec.input_dim, "input")
    smoothed = _lsce_targets((len(source), spec.num_classes), source.ys, cfg.alpha_smooth)
    bundle = build(spec)
    yield bundle
    extractor, head = bundle.extractor, bundle.head1
    rate, head_rate = bundle.rate_vector()
    rate.fill(cfg.sgd.lr)
    head_rate.fill(cfg.sgd.lr * cfg.lr_multiplier_heads)
    state = SgdState()
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for idx in batches(source, cfg.batch_size, cfg.seed, epoch):
            feats, inputs = _stack_forward(xs[idx], extractor)
            logits, head_inputs = _stack_forward(feats, head)
            m = -1.0 / len(idx)  # lsce's mean over the batch, and its gradient's scale
            try:
                s, logit_grad = _lsce_term(_softmax(logits), smoothed[idx])
            except ContractViolation:  # ln of a softmax entry that is NaN or 0 is no loss
                detail = "" if np.isfinite(logits).all() else ": non-finite logits"
                raise DivergenceError(f"pretraining diverged at epoch {epoch}{detail}",
                                      iteration=epoch, last_loss=float("nan")) from None
            v = m * s
            epoch_losses.append(float(v + v))  # finite: lsce accepts p >= 2**-1074, so |v| < 745
            *head_grads, g_f = _stack_backward(logit_grad(m), head, head_inputs, input_grad=True)
            grads = _stack_backward(g_f + g_f, extractor, inputs)
            grad = np.concatenate(grads + head_grads + head_grads, axis=None)
            sgd_step([bundle.vector], [grad], state, cfg.sgd, lr_override=[rate])
        yield epoch_losses


# a run that overflows reports once, by its DivergenceError, not also by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def pretrain_source(source: LabeledSet, spec: MlpSpec, cfg: PretrainConfig):
    """Train extractor plus both heads with label-smoothed CE under SGD-momentum.

    Returns (bundle, history): the bundle `_pretrain_epochs` trains and, per
    epoch, a record of its mean batch loss and then its accuracy on `source`.
    Zero epochs return the untouched initialization. A batch whose softmax
    lsce refuses (NaN or 0) raises a DivergenceError, naming any non-finite logits.
    """
    epochs = _pretrain_epochs(source, spec, cfg)
    bundle = next(epochs)
    return bundle, [{"epoch": epoch, "mean_loss": float(np.mean(losses)),
                     "train_accuracy": evaluate(bundle, source).accuracy}
                    for epoch, losses in enumerate(epochs)]


# -- adaptation ----------------------------------------------------------------------


def _batch_stream(support, batch_size, seed):
    epoch = 0
    while True:
        for idx in batches(support, batch_size, seed, epoch):
            yield idx
        epoch += 1


def _prepared_batches(source_model, xs, ys, batch_iter, policy, cfg, aug_rng):
    """Each step's (views, targets), in the order the loop consumes them, a block at a time.

    `xs` [m, (S,) d] and `ys` [m, (S,)] are the support rows of every cell,
    `batch_iter` yields index batches. A block is consecutive batches of one
    size, as many as fit `BLOCK_ROWS` view rows ([B, 2, (S,) n', d], n' = n, or
    2n under both_to_both), at least one and no more than the run still
    needs. Each batch's weak rows are drawn from `aug_rng`, then its strong
    rows, as one batch at a time draws them; then the block is augmented,
    routed, scored by the frozen source model and given its targets at once.
    Each of those operations is elementwise, or a matmul or row reduction per
    [n, .] slice, so step j's views and targets are bitwise those of its batch
    prepared alone. The views are in C order, as one cell's alone are: numpy
    sums a dot product over rows in another order when they are strided.
    """
    count = cfg.total_iterations * (len(cfg.step_pattern) if cfg.fresh_batch_per_step else 1)
    both = cfg.view_mode == "both_to_both"
    view_rows = 2 * (2 if both else 1) * (xs.shape[1] if xs.ndim == 3 else 1)  # per batch row
    source_heads = source_model.branch_heads if xs.ndim == 2 else \
        _branch_heads(source_model.head_vector.data[None], source_model.spec)
    for n, group in groupby(islice(batch_iter, count), len):  # a short tail starts a new group
        while block := list(islice(group, max(1, BLOCK_ROWS // (n * view_rows)))):
            idx = np.array(block)  # [B, n]
            rows, labels = xs[idx], ys[idx].swapaxes(1, -1)  # [B, n, (S,) d], [B, (S,) n]
            draws = {"weak": [], "strong": []}
            for _ in block:  # batch by batch: its weak rows, then its strong rows
                for tier, tier_draws in draws.items():
                    tier_draws.append(_augment_draws(n, xs.shape[-1], policy, tier, aug_rng))
            weak, strong = (_augment_apply(rows, [np.array(d) for d in zip(*tier_draws)], policy,
                                           tier).swapaxes(1, -2)  # [B, (S,) n, d]
                            for tier, tier_draws in draws.items())
            if both:
                weak = strong = np.concatenate([weak, strong], axis=-2)
                labels = np.concatenate([labels, labels], axis=-1)
            views = np.ascontiguousarray(np.stack((weak, strong), axis=1))  # view b feeds head b
            source_feats = _stack_forward(views, source_model.extractor, keep=False)[0]
            q = _softmax(_stack_forward(source_feats, source_heads)[0])
            targets = batch_targets(labels, q[:, 0], q[:, 1], cfg.smoothing)
            del source_feats, q  # the steps below read the views and targets alone
            for j in range(len(block)):
                yield views[j], BatchTargets(targets.smoothed[j], targets.log_q[:, j],
                                             cfg.smoothing)


def _step_closure(bundle, step_kind, views, targets, weights, cdd_sign, diverged, evals):
    """SAM's closure for one step on branch-stacked views [2, (S,) n, d]: view b feeds head b.

    Each call runs both branches in one pass (step 1 through the extractor,
    step 2 from features fixed at the step's start), scores them with
    `losses._branch_objective` (step 2 adds the CDD term with `cdd_sign`),
    appends the components to `evals` and returns one tape node: its one
    parent is the leaf of the vector the step trains, and its rule runs the
    heads' and then the extractor's backward (`models._stack_backward`), adds
    the extractor's two branch gradients, the sum the tape forms where two
    extractor passes meet, and returns the vector's gradient: its Tensors',
    the extractor's (step 1 only), head 1's and head 2's, concatenated.
    When lsce refuses a softmax entry that is NaN or 0, ``diverged(detail, last_loss,
    cell)`` names the first cell with non-finite logits, else the first saturated one.
    """
    extractor, heads = bundle.extractor, bundle.branch_heads
    train_extractor = step_kind == "1"
    trained = bundle.vector if train_extractor else bundle.head_vector
    # step 2 moves only the heads: its features are constants, and it adds the CDD term
    fixed = None if train_extractor else _stack_forward(views, extractor, keep=False)[0]
    cdd_sign = None if train_extractor else cdd_sign

    def closure():
        feats, inputs = _stack_forward(views, extractor) if train_extractor else (fixed, None)
        logits, head_inputs = _stack_forward(feats, heads)
        try:
            value, comps, logit_grad = _branch_objective(logits, targets, weights, cdd_sign)
        except ContractViolation:  # lsce refuses ln of a softmax entry that is NaN or 0
            finite = np.isfinite(logits).all(axis=(0, -2, -1))  # per cell
            if not finite.all():
                raise diverged(": non-finite logits", float("nan"),
                               int(np.argmin(finite))) from None
            saturated = (_softmax(logits) == 0.0).any(axis=(0, -2, -1))
            raise diverged("", float("nan"), int(np.argmax(saturated))) from None
        evals.append(comps)

        def backward(g):
            grads = _stack_backward(logit_grad(g), heads, head_inputs, input_grad=train_extractor)
            # the extractor's gradient (step 1 only): branch 1's plus branch 2's
            ext = [e[0] + e[1] for e in _stack_backward(grads.pop(), extractor, inputs)] \
                if train_extractor else []
            return (trained.flat(ext + [h[0] for h in grads] + [h[1] for h in grads]),)

        return _result(value, (trained.leaf,), backward)  # the sum of the cells' totals

    return closure


def adapt(source_model: ModelBundle, split: SupportSplit, policy: AugmentPolicy,
          cfg: AdaptConfig):
    """Run the two-step loop from a pretrained model. Returns (bundle, report).

    Training runs on a clone; `source_model` itself is the frozen source whose
    probabilities anchor the losses, and it is left bitwise unchanged. Only
    the labeled `split.support` is drawn from; `split.test` is used for
    evaluation alone. A non-finite loss aborts with the iteration index and
    the last finite parameter snapshot attached. This is `adapt_cells` on one
    split.
    """
    return adapt_cells(source_model, [split], policy, cfg)[0]


@np.errstate(over="ignore", invalid="ignore")  # as for pretrain_source
def adapt_cells(source_model: ModelBundle, splits, policy: AugmentPolicy, cfg: AdaptConfig):
    """`adapt` on each of `splits` at once: one (bundle, report) per split, in order.

    The cells share the source model, `policy`, `cfg` and so `cfg.seed`, and
    their supports must have one size: then their batch-index and augmentation
    draws are the same draws (no draw depends on a row's values), and each
    stream is drawn once for all cells. Their parameters are the rows of one
    stacked vector that every step moves at once. Each cell's bundle and
    report are bitwise what `adapt` gives on its split alone. A non-finite loss
    in any cell aborts the run: with several cells, the error names the first
    such cell, by its position in `splits`, and attaches its parameters.

    Several cells carry a leading cell axis on every array (a stacked bundle,
    [S, n, d] batches). One cell runs the same code on plain [n, d] arrays,
    which numpy serves faster. The final evaluation runs once the loop
    (``_train_cells``) has returned, so no training state is alive beside it.
    """
    spec = source_model.spec
    sizes = sorted({len(split.support) for split in splits})
    if len(sizes) != 1:
        raise ContractViolation(f"cells in lockstep need one support size, got sizes {sizes}")
    for split in splits:
        support = split.support
        if support.num_classes != spec.num_classes:
            raise ContractViolation(f"support labels span {support.num_classes} classes, "
                                    f"model expects {spec.num_classes}")
        if support.xs.shape[1] != spec.input_dim:
            raise ContractViolation(f"support dim {support.xs.shape[1]} != model "
                                    f"input dim {spec.input_dim}")
    # read-only and drawing nothing: an empty test set is refused before any step
    baselines = [evaluate(source_model, split.test, cfg.eval_head) for split in splits]

    source_before = params_fingerprint(trainable_params(source_model, "all_target"))
    stacked = len(splits) > 1
    bundle = clone_for_adaptation(source_model, len(splits) if stacked else None)
    traces = _train_cells(source_model, bundle, splits, policy, cfg)
    if params_fingerprint(trainable_params(source_model, "all_target")) != source_before:
        raise RuntimeError("source model changed during adaptation")

    runs = []
    for cell, (split, trace, baseline) in enumerate(zip(splits, traces, baselines)):
        adapted = bundle_from_params(spec, {name: a[cell] for name, a in
                                            bundle.params.items()}) if stacked else bundle
        final = evaluate(adapted, split.test, cfg.eval_head)
        runs.append((adapted, RunReport(trace, *astuple(final)[:4], *astuple(baseline)[:3])))
    return runs


def _train_cells(source_model, bundle, splits, policy, cfg):
    """`adapt_cells`' loop on its clone `bundle`: returns each cell's trace."""
    stacked = len(splits) > 1
    if stacked:
        support_xs = np.stack([split.support.xs for split in splits], axis=1)  # [m, S, d]
        support_ys = np.stack([split.support.ys for split in splits], axis=1)  # [m, S]
    else:
        support_xs, support_ys = splits[0].support.xs, splits[0].support.ys

    # step kind -> the vector it trains (all of it, or the heads' tail) and its SAM state
    steps = {"1": (bundle.vector, SamState()), "2": (bundle.head_vector, SamState())}
    batch_iter = _batch_stream(splits[0].support, min(cfg.batch_size, len(support_xs)), cfg.seed)
    prepared = _prepared_batches(source_model, support_xs, support_ys, batch_iter, policy, cfg,
                                 rng_stream(cfg.seed, "augment"))

    def diverged(detail, last_loss, cell):
        where = f" in cell {cell}" if stacked else ""
        return DivergenceError(
            f"adaptation diverged at iteration {it} (step {step_kind}){where}{detail}",
            iteration=it, last_loss=last_loss,
            last_good_params={name: p[cell] if stacked else p for name, p in
                              zip(bundle.params, bundle.vector.split(last_good))})

    traces = [[] for _ in splits]
    last_good = bundle.vector.data.copy()  # a snapshot, refreshed in place: steps write the vector
    rate, head_rate = bundle.rate_vector()  # step 1's, refilled in place each iteration
    for it in range(cfg.total_iterations):
        progress = it / cfg.total_iterations
        eta = lr_at.__wrapped__(cfg.schedule.eta0, progress)  # a checked field; 0 <= progress < 1
        lr_ext = eta if cfg.schedule.schedule_extractor else cfg.schedule.eta0
        lr_head = (eta if cfg.schedule.schedule_heads else cfg.schedule.eta0) \
            * cfg.schedule.head_multiplier
        rate.fill(lr_ext)
        head_rate.fill(lr_head)
        rates = {"1": [rate], "2": lr_head}

        for i, step_kind in enumerate(cfg.step_pattern):
            if i == 0 or cfg.fresh_batch_per_step:
                views, targets = next(prepared)  # [2, (S,) n, d]: branch b feeds head b

            evals = []  # SAM calls the closure twice; the trace logs the first, unperturbed one
            closure = _step_closure(bundle, step_kind, views, targets, cfg.weights,
                                    cfg.cdd_sign, diverged, evals)
            vector, sam_state = steps[step_kind]
            sam_step(vector, closure, sam_state, cfg.sam, lr_override=rates[step_kind])

            comps = {name: v if stacked else [v] for name, v in evals[0].items()}
            for cell, loss in enumerate(comps["total"]):
                if not math.isfinite(loss):
                    raise diverged("", loss, cell)
            np.copyto(last_good, bundle.vector.data)
            for trace, *losses in zip(traces, comps["total"], comps["lsce"],
                                      comps["entropy"], comps["rce"], comps["cdd"]):
                trace.append(StepRecord(it, f"step{step_kind}", *losses, lr=lr_ext))

    return traces


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


@np.errstate(over="ignore", invalid="ignore")  # as for pretrain_source
def _pretrain_bundle(source, spec, cfg, model_seed):
    """One model seed's bundle, pretrained as by `pretrain_source`, unscored; its
    spec's ``init_seed`` is the model seed."""
    bundle, *_ = _pretrain_epochs(source, replace(spec, init_seed=model_seed),
                                  replace(cfg, seed=model_seed))
    return bundle


def _run_cells(target, n_way, k_shot, policy, adapt_cfg, task):
    """One group's cells, in lockstep. `task` is (a model seed's pretrained bundle,
    data seeds); the result is a SweepCell per data seed, or None when a group of
    several cells fails, so that its cells re-run one at a time."""
    pretrained, data_seeds = task
    model_seed = pretrained.spec.init_seed
    try:
        splits = [sample_support(target, n_way, k_shot, seed=ds) for ds in data_seeds]
        runs = adapt_cells(pretrained, splits, policy, adapt_cfg)
    except (ContractViolation, DivergenceError) as e:
        # a bad draw or a diverged run is data; any other error is a bug and propagates
        if len(data_seeds) > 1:
            return None
        return [SweepCell(data_seeds[0], model_seed, f"error: {type(e).__name__}: {e}",
                          None, None, None, None)]
    return [SweepCell(ds, model_seed, "ok", report.no_adapt_accuracy, report.accuracy,
                      report.no_adapt_macro_accuracy, report.macro_accuracy)
            for ds, (_, report) in zip(data_seeds, runs)]


@checked
def seed_sweep(domain, spec, pretrain_cfg, adapt_cfg, policy, n_way: Count, k_shot: Count,
               data_seeds: Sequence[Natural], model_seeds: Sequence[Natural],
               jobs: Count = 1) -> SweepReport:
    """Cross-product of data seeds (support draw) and model seeds (init + pretrain).

    A repeated or negative seed is refused before any work. Each model seed's
    cells run in groups, one `adapt_cells` call each: its data seeds, as
    listed, are cut into min(cells, ceil(jobs / model seeds)) near-equal runs
    of consecutive seeds, so one group per worker. The work runs in three
    rounds, each a `map` over its tasks: the builtin one when min(jobs, cells)
    is 1, else that of one process pool of that many workers (fork starts them
    all at the first task). Round one pretrains each model seed, scoring no
    epoch, and returns its bundle (a pool pickles it back, and out again with
    each task); round two runs every group on its model seed's bundle, and
    round three re-runs, one task each, the cells of every group that failed
    with a ContractViolation or a DivergenceError. A cell that fails so alone
    is recorded with its error and skipped by the aggregates. A cell in
    lockstep gets its bits alone, so the report is the same for every
    ``jobs``. Any other exception in a cell, and any exception in pretraining,
    propagates: the first in task order is raised, for every ``jobs``, and
    queued tasks are cancelled. Spread and variance are computed across data
    seeds after averaging over model seeds within each data seed.
    """
    if not data_seeds or not model_seeds:
        raise ContractViolation("need at least one data seed and one model seed")
    for kind, seeds in (("data", data_seeds), ("model", model_seeds)):
        repeats = [s for i, s in enumerate(seeds) if s in seeds[:i]]
        if repeats:
            raise ContractViolation(f"{kind} seed {repeats[0]} is repeated")
    source, target = make_domain_pair(domain)
    parts = min(len(data_seeds), -(-jobs // len(model_seeds)))
    cuts = [len(data_seeds) * i // parts for i in range(parts + 1)]
    groups = [list(data_seeds[a:b]) for a, b in zip(cuts, cuts[1:])]

    workers = min(jobs, len(data_seeds) * len(model_seeds))
    pool = None
    if workers > 1:  # the process-pool stack is imported only by a sweep that forks
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    run = map if pool is None else pool.map
    try:
        bundles = run(partial(_pretrain_bundle, source, spec, pretrain_cfg), model_seeds)
        tasks = [(bundle, group) for bundle in bundles for group in groups]
        run_group = partial(_run_cells, target, n_way, k_shot, policy, adapt_cfg)
        results = list(run(run_group, tasks))
        retries = [(bundle, [ds]) for (bundle, group), result in zip(tasks, results)
                   if result is None for ds in group]
        results += run(run_group, retries)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    cells = [c for result in results if result is not None for c in result]
    cells.sort(key=lambda c: (c.data_seed, c.model_seed))

    ok = [c for c in cells if c.status == "ok"]
    if ok:  # sorted by data seed
        ds_means = [float(np.mean([c.adapted_accuracy for c in group]))
                    for _, group in groupby(ok, key=lambda c: c.data_seed)]
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
