"""Independent oracles shared by the test modules.

The finite-difference checker only ever calls the forward *value* path of the
function under test, so it is independent of the backward rules it verifies.
High-precision constants were computed offline with 40-digit arithmetic and
are pinned here as float64 literals.
"""

import numpy as np

from actlab import optim
from actlab.data import augment_batch, batches
from actlab.losses import batch_targets
from actlab.models import _stack_forward, build
from actlab.pipeline import EvalResult, evaluate
from actlab.tensor import Tensor, _softmax, backward, scalar_mul, zero_grad

# ln(1e-5), i.e. log_shifted(0, 1e-5)
LOG_SHIFTED_ZERO_1E5 = -11.512925464970228

# softmax([1, 2, 3])
SOFTMAX_123 = np.array([0.09003057317038046, 0.24472847105479765, 0.6652409557748219])

# label-smoothed CE: logits [2,0,0], label 0, alpha 0.1, K 3
LSCE_200_A01 = 0.37287809955521784
# plain CE, same logits and label
CE_200 = 0.2395447662218845

# mean entropy of the single row [0.7, 0.3] with eps 1e-5
COND_ENTROPY_73 = 0.6108443022929843
# entropy of a one-hot row with eps 1e-5: -ln(1 + 1e-5)
COND_ENTROPY_ONEHOT = -9.999950000333331e-06

# rce with p=[0.7,0.3], q=[1,0], eps 1e-5
RCE_73_ONEHOT = 3.4538706395260683

# (1 + 10*1)^-0.75
POLY_LR_AT_ONE = 0.16556002607617017


def fd_grad(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f(*arrays) w.r.t. every entry."""
    grads = [np.zeros_like(a) for a in arrays]
    for a, g in zip(arrays, grads):
        flat_a, flat_g = a.reshape(-1), g.reshape(-1)
        for i in range(flat_a.size):
            orig = flat_a[i]
            flat_a[i] = orig + h
            up = f(*arrays)
            flat_a[i] = orig - h
            down = f(*arrays)
            flat_a[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
    return grads


def max_rel_err(analytic, numeric, floor=1e-4):
    """Worst relative error over matched gradient arrays.

    The floor keeps near-zero true gradients from blowing up the ratio; any
    gradient larger than the floor is compared truly relatively.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        err = np.abs(a - n) / np.maximum(np.abs(n), floor)
        worst = max(worst, float(err.max()) if err.size else 0.0)
    return worst


def softmax_np(logits):
    """Plain numpy row softmax, used as a value oracle and by eval helpers."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# -- composed-tape reference for the fused loss nodes ---------------------------
# actlab.losses builds each loss and step objective as one tape node with a
# hand-written backward rule. These are the same functions composed from the
# generic Tensor ops, so that the tape's own backward differentiates them; the
# fused nodes must match them bit for bit, values and gradients alike.


def tape_lsce(logits, labels, alpha_smooth):
    n, k = logits.shape
    smoothed = np.full((n, k), alpha_smooth / k)
    smoothed[np.arange(n), labels] += 1.0 - alpha_smooth
    logp = logits.softmax_rows().log_shifted(0.0)
    return scalar_mul(-1.0 / n, (Tensor(smoothed) * logp).sum())


def tape_cond_entropy(logits, eps_log):
    n, _ = logits.shape
    probs = logits.softmax_rows()
    return scalar_mul(-1.0 / n, (probs * probs.log_shifted(eps_log)).sum())


def tape_rce(logits, source_probs, eps_log):
    n, _ = logits.shape
    log_q = np.log(np.asarray(source_probs, dtype=np.float64) + eps_log)
    return scalar_mul(-1.0 / n, (logits.softmax_rows() * Tensor(log_q)).sum())


def tape_cdd_batch(logits1, logits2):
    n, _ = logits1.shape
    inner = (logits1.softmax_rows() * logits2.softmax_rows()).sum()
    return scalar_mul(-1.0 / n, inner) + 1.0


def _tape_components(logits1, logits2, labels, source_probs1, source_probs2, smoothing):
    return {
        "lsce": tape_lsce(logits1, labels, smoothing.alpha_smooth)
                + tape_lsce(logits2, labels, smoothing.alpha_smooth),
        "entropy": tape_cond_entropy(logits1, smoothing.eps_log)
                   + tape_cond_entropy(logits2, smoothing.eps_log),
        "rce": tape_rce(logits1, source_probs1, smoothing.eps_log)
               + tape_rce(logits2, source_probs2, smoothing.eps_log),
        "cdd": tape_cdd_batch(logits1, logits2),
    }


def _tape_weighted_base(parts, weights):
    return (scalar_mul(weights.lambda_lsce, parts["lsce"])
            + scalar_mul(weights.lambda_e, parts["entropy"])
            + scalar_mul(weights.lambda_rce, parts["rce"]))


def tape_step1_objective(logits1, logits2, labels, source_probs1, source_probs2,
                         weights, smoothing):
    parts = _tape_components(logits1, logits2, labels, source_probs1, source_probs2,
                             smoothing)
    total = _tape_weighted_base(parts, weights)
    return total, {**{name: t.item() for name, t in parts.items()}, "total": total.item()}


def tape_step2_objective(logits1, logits2, labels, source_probs1, source_probs2,
                         weights, smoothing, cdd_sign="as_printed"):
    parts = _tape_components(logits1, logits2, labels, source_probs1, source_probs2,
                             smoothing)
    sign = -1.0 if cdd_sign == "as_printed" else 1.0
    total = (_tape_weighted_base(parts, weights)
             + scalar_mul(sign * weights.lambda_cdd, parts["cdd"]))
    return total, {**{name: t.item() for name, t in parts.items()}, "total": total.item()}


# -- composed-tape reference for the layer-stack kernels ------------------------
# actlab.models runs each forward piece over its whole layer stack in plain
# numpy (`_stack_forward`), and training chains its backward by hand
# (`_stack_backward`). These build the same pieces from Tensor.matmul /
# add_bias / relu, one tape node per op; the kernels must match them bit for bit.
# A bundle's parameters are arrays, so the tape runs over Tensors of its own.


def tape_params(bundle):
    """A Tensor over each of `bundle`'s parameter views, by name, requiring a gradient.
    Each one's data is the bundle's read-only view, so it sees every write into the
    bundle's vector."""
    return {name: Tensor(view, requires_grad=True) for name, view in bundle.params.items()}


def tape_vectors(bundle):
    """`bundle`'s parameters as Tensors that a step moves: `tape_params`, a vector over
    them all and its heads' tail (`optim.ParamVector`). The vector copies the bundle's
    values, its Tensors view it, and ``grad()`` gathers their gradients."""
    params = tape_params(bundle)
    tensors = list(params.values())
    vector = optim.ParamVector(tensors)
    return params, vector, optim.ParamVector(tensors[-4:], root=vector)


def tape_layer_stack(x, layers):
    out = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        out = out.matmul(w).add_bias(b)
        if i < last:
            out = out.relu()
    return out


def tape_layers(params, prefix):
    """The (weight, bias) pairs of the Tensors in `params` whose names start with `prefix`."""
    tensors = [t for name, t in params.items() if name.startswith(prefix)]
    return list(zip(tensors[0::2], tensors[1::2]))


def tape_forward_features(params, x):
    return tape_layer_stack(x, tape_layers(params, "extractor."))


def tape_forward_head(params, feats, branch):
    return tape_layer_stack(feats, tape_layers(params, f"head{branch}."))


def evaluate_by_class(bundle, test, eval_head):
    """`pipeline.evaluate` on the tape: an np.add.at count of (true, predicted)
    pairs, then one class at a time, with None for an absent class."""
    params = tape_params(bundle)
    feats = tape_forward_features(params, Tensor(test.xs))
    probs = _softmax(tape_forward_head(params, feats, 1).data)
    if eval_head == "mean_of_heads":
        probs = 0.5 * (probs + _softmax(tape_forward_head(params, feats, 2).data))
    preds = np.argmax(probs, axis=1)
    k = test.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (test.ys, preds), 1)
    per_class = []
    for c in range(k):
        total = int(confusion[c].sum())
        per_class.append(float(confusion[c, c] / total) if total else None)
    present = [acc for acc in per_class if acc is not None]
    return EvalResult(float((preds == test.ys).mean()), per_class, float(np.mean(present)),
                      confusion.tolist(), len(test))


def tape_step_closure(params, step_kind, view1, view2, labels, source_probs1, source_probs2,
                      weights, smoothing, cdd_sign, comps):
    """The loss closure of adaptation's `step_kind` ("1" or "2") step on the composed
    tape over the Tensors `params` (`tape_params`).

    actlab.pipeline runs both branches as one stacked pass behind one node per
    step. This is the step as separate tape nodes: an extractor pass per view
    (for step 2, constant features taken now), a head pass per branch, and the
    composed step objective. Each call appends its components to `comps`.
    """
    x1, x2 = Tensor(view1), Tensor(view2)
    fixed = [Tensor(tape_forward_features(params, x).data) for x in (x1, x2)]

    def closure():
        f1, f2 = fixed if step_kind == "2" else \
            (tape_forward_features(params, x1), tape_forward_features(params, x2))
        l1, l2 = tape_forward_head(params, f1, 1), tape_forward_head(params, f2, 2)
        args = (l1, l2, labels, source_probs1, source_probs2, weights, smoothing)
        total, parts = tape_step1_objective(*args) if step_kind == "1" else \
            tape_step2_objective(*args, cdd_sign)
        comps.append(parts)
        return total

    return closure


def tape_adapt_step(bundle, step_kind, view1, view2, labels, source_probs1, source_probs2,
                    weights, smoothing, cdd_sign, sam_cfg, rates):
    """One SAM step of adaptation's `step_kind` step on the composed tape
    (`tape_step_closure`), written into `bundle`'s vector. Returns (loss, components)."""
    comps = []
    params, vector, heads = tape_vectors(bundle)
    closure = tape_step_closure(params, step_kind, view1, view2, labels, source_probs1,
                                source_probs2, weights, smoothing, cdd_sign, comps)
    loss = optim.sam_step(vector if step_kind == "1" else heads, closure, optim.SamState(),
                          sam_cfg, lr_override=rates)
    bundle.vector.data = vector.data
    return loss, comps[0]


# -- the parameter draw, spelled out ---------------------------------------------
# actlab.models.build draws into the layout `MlpSpec.param_shapes` declares.
# This is the same draw written layer by layer, with every name and shape by
# hand, so a change of names, shapes, order or RNG stream shows.


def drawn_params(spec):
    """(name, array) pairs of `build(spec)`, in checkpoint order."""
    rng = np.random.default_rng(spec.init_seed)
    sizes = [spec.input_dim, *spec.hidden_dims, spec.feature_dim]
    out = []
    for i in range(len(sizes) - 1):
        bound = np.sqrt(6.0 / sizes[i])
        out.append((f"extractor.{i}.weight",
                    rng.uniform(-bound, bound, size=(sizes[i], sizes[i + 1]))))
        out.append((f"extractor.{i}.bias", np.zeros(sizes[i + 1])))
    bound = np.sqrt(6.0 / spec.feature_dim)
    head = rng.uniform(-bound, bound, size=(spec.feature_dim, spec.num_classes))
    for name in ("head1", "head2"):  # one draw, copied into both heads
        out += [(f"{name}.weight", head.copy()), (f"{name}.bias", np.zeros(spec.num_classes))]
    return out


# -- per-parameter optimizer loops -------------------------------------------------
# actlab.optim steps a model's parameters as one vector. These are the loops it
# ran before, one parameter array at a time with a rate per parameter; the
# vector steps must match them bit for bit. The states are actlab.optim's
# (dicts keyed by parameter, and Adam's step count).


def sgd_step(params, grads, state, cfg, lrs):
    for p, g, lr in zip(params, grads, lrs):
        step = np.asarray(g, dtype=np.float64) + cfg.weight_decay * p.data
        v = state.velocity.get(p)
        v = step if v is None else cfg.momentum * v + step
        state.velocity[p] = v
        p.data = p.data - lr * v


def adam_step(params, grads, state, cfg, lrs):
    state.t += 1
    bias1 = 1.0 - cfg.beta1 ** state.t
    bias2 = 1.0 - cfg.beta2 ** state.t
    for p, g, lr in zip(params, grads, lrs):
        g = np.asarray(g, dtype=np.float64)
        m = state.m.get(p)
        v = state.v.get(p)
        m = (1.0 - cfg.beta1) * g if m is None else cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = (1.0 - cfg.beta2) * g * g if v is None else cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        state.m[p], state.v[p] = m, v
        p.data = p.data - lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps_adam)


def global_grad_norm(grads):
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def sam_step(params, loss_closure, state, cfg, lrs):
    """SAM over Adam, perturbing and restoring one parameter at a time."""
    zero_grad(params)
    loss = loss_closure()
    backward(loss)
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    saved = [p.data for p in params]
    scale = cfg.rho / (global_grad_norm(grads) + 1e-12)
    for p, g in zip(params, grads):
        p.data = p.data + scale * g
    zero_grad(params)
    backward(loss_closure())
    adv_grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    for p, w in zip(params, saved):
        p.data = w
    adam_step(params, adv_grads, state.base, cfg.base, lrs)
    return float(loss.item())


# -- per-row augmentation, out of place --------------------------------------------
# actlab.data.augment_batch writes each row into one preallocated array. This is
# the row function it replaced, drawing from `rng` in the same order.


def augment_row(x, policy, tier, rng):
    if tier == "weak":
        t = policy.weak
        out = x + rng.normal(0.0, t.jitter_sigma, x.shape)
        if rng.random() < t.flip_axis_prob:
            axis = int(rng.integers(x.size))
            out[axis] = -out[axis]
        return out
    t = policy.strong
    out = x + rng.normal(0.0, t.jitter_sigma, x.shape)
    for _ in range(t.num_ops):
        if rng.integers(2) == 0:
            out = out * rng.uniform(t.scale_range[0], t.scale_range[1], x.shape)
        else:
            out = np.where(rng.random(x.shape) < t.feature_drop_prob, 0.0, out)
    return out


# actlab.data._augment_draws decodes the strong tier's op kinds and uniforms from
# raw PCG64 words. This is the loop it replaced, one Generator call per draw.


def augment_draws(n, d, policy, tier, rng):
    z = np.empty((n, d))
    if tier == "weak":
        flip = np.zeros((n, d), dtype=bool)
        for row, flips in zip(z, flip):
            rng.standard_normal(out=row)
            if rng.random() < policy.weak.flip_axis_prob:
                flips[rng.integers(d)] = True
        return z, flip
    ops = policy.strong.num_ops
    kinds, u = [], np.empty((n, ops, d))
    for row, draws in zip(z, u):
        rng.standard_normal(out=row)
        for draw in draws:
            kinds.append(rng.integers(2))
            rng.random(out=draw)
    return z, (np.array(kinds) == 0).reshape(n, ops, 1), u


# -- pretraining on the tape ---------------------------------------------------------
# actlab.pipeline.pretrain_source runs head1 alone in plain numpy and gives head2
# its gradient. This is the loop it replaced, on the composed tape alone: both
# heads forward, the loss lsce + lsce and one backward per batch, then one SGD
# step of the whole vector. The plain loop must match it bit for bit, parameters
# and history.


def tape_pretrain_source(source, spec, cfg):
    bundle = build(spec)
    vector, params = bundle.vector, tape_params(bundle)  # the Tensors view the vector it steps
    is_head = np.concatenate([np.full(a.size, name.startswith("head"))
                              for name, a in bundle.named_params()])
    rates = [np.where(is_head, cfg.sgd.lr * cfg.lr_multiplier_heads, cfg.sgd.lr)]
    state = optim.SgdState()
    history = []
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for idx in batches(source, cfg.batch_size, cfg.seed, epoch):
            feats = tape_forward_features(params, Tensor(source.xs[idx]))
            l1, l2 = tape_forward_head(params, feats, 1), tape_forward_head(params, feats, 2)
            y = source.ys[idx]
            loss = tape_lsce(l1, y, cfg.alpha_smooth) + tape_lsce(l2, y, cfg.alpha_smooth)
            zero_grad(params.values())
            backward(loss)
            grad = vector.flat([t.grad for t in params.values()])
            optim.sgd_step([vector], [grad], state, cfg.sgd, lr_override=rates)
            epoch_losses.append(loss.item())
        history.append({
            "epoch": epoch,
            "mean_loss": float(np.mean(epoch_losses)),
            "train_accuracy": evaluate(bundle, source).accuracy,
        })
    return bundle, history


# -- adaptation's inputs, one batch at a time -------------------------------------------
# actlab.pipeline._prepared_batches prepares the views and batch targets of a
# block of batches at once. This is the loop it replaced, one batch per step:
# the weak, then the strong augmented batch, the routing of the views to the
# branches, the frozen source model's pass and the batch's targets. The
# blocks must give every step the same bits and leave the augmentation
# stream in the same state.


def prepared_steps(source_model, xs, ys, batch_iter, policy, cfg, aug_rng):
    """Each step's (views [2, (S,) n', d], targets), for `_prepared_batches`' arguments."""
    count = cfg.total_iterations * (len(cfg.step_pattern) if cfg.fresh_batch_per_step else 1)
    # both heads stacked on a branch axis, under S cells with a cell axis of 1
    (w1, b1), (w2, b2) = source_model.head1[0], source_model.head2[0]
    cell_axis = (slice(None), None) if xs.ndim == 3 else ()
    source_heads = [(np.array((w1, w2))[cell_axis], np.array((b1, b2))[cell_axis])]
    for _ in range(count):
        idx = next(batch_iter)
        rows, labels = xs[idx], ys[idx].T  # [n, (S,) d], [(S,) n]
        weak = augment_batch(rows, policy, "weak", aug_rng).swapaxes(0, -2)
        strong = augment_batch(rows, policy, "strong", aug_rng).swapaxes(0, -2)
        if cfg.view_mode == "asymmetric":
            view1, view2 = weak, strong
        else:
            view1 = view2 = np.concatenate([weak, strong], axis=-2)
            labels = np.concatenate([labels, labels], axis=-1)
        views = np.array((view1, view2))
        source_feats = _stack_forward(views, source_model.extractor)[0]
        q = _softmax(_stack_forward(source_feats, source_heads)[0])
        yield views, batch_targets(labels, q[0], q[1], cfg.smoothing)
