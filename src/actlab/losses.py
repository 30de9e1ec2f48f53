"""The four adaptation losses and the two-step objectives built from them.

All losses take raw logits ([n, K] tensors) and return scalar tensors wired
into the tape, so one backward call yields exact gradients. Shapes:

    lsce          mean_i -sum_k q^l_k ln softmax_k(z_i),  q^l = (1-a) onehot + a/K
    cond_entropy  mean_i -sum_k r_ik ln(r_ik + eps),      r = softmax(z)
    rce           mean_i -sum_k p_ik ln(q_ik + eps),      q frozen source probs
    cdd           mean_i (1 - <p1_i, p2_i>)

The CDD closed form is the collapsed off-diagonal sum of the K x K relevance
matrix p1 p2^T; the tests verify the algebra against explicit enumeration.

Each loss, and each step objective, is one tape node whose backward rule
computes d/dlogits in plain numpy and returns one gradient per logits parent:
the two-branch nodes (``cdd_batch`` and the step objectives) return their
branch-stacked [2, n, K] gradient as it is, its first axis being the pair of
parents. That rule repeats, operation for operation and in the same
association order, what the tape's backward does over the same loss composed
from generic ops (softmax_rows, log_shifted, *, sum, scalar_mul), so values,
gradients and trained fingerprints are bitwise those of the composed form.
With c = (upstream * weight) * (-1/n), d/dp of a term is

    lsce     c * smoothed / (p + 0)         entropy  c * ln(p + eps) + c * p / (p + eps)
    rce      c * ln(q + eps)                cdd      c * p_other

and each goes through its own softmax backward, p * (g - <g, p>). A branch's
logit gradient adds them as ((cdd + rce) + entropy) + lsce, the order in which
the tape reaches the four softmax nodes. tests/test_losses.py holds the fused
nodes to the composed form (kept in tests/oracles.py) bit for bit, for two
distinct logits tensors; the same tensor passed as both branches accumulates
in another order. Pretraining builds no node: it calls ``_lsce_targets``
(lsce's label check) once and ``_lsce_term`` per batch.

The step objective has one implementation, ``_branch_objective``, over both
branches' logits stacked on a leading axis of size 2: [2, n, K]. Every term
runs elementwise or per row over that array, so each branch's numbers are
those it gets alone, and CDD's gradient for branch b takes the other
branch's rows as ``p[::-1]``. It returns the value, the components and the
d/dlogits rule as plain numpy, which adaptation chains into its one node per
step (``pipeline._step_closure``). ``step1_objective`` and ``step2_objective``
wrap it as a node over two [n, K] logits Tensors.

The step objectives score logits against ``BatchTargets``: the smoothed label
targets and ln(q + eps) of both branches' frozen source probabilities,
stacked like the logits. These depend only on the batch, so
``batch_targets`` builds and checks them once per batch (labels in range,
source rows on the simplex), and every objective call on that batch reuses
them: SAM evaluates each objective twice, and the adaptation loop evaluates
both steps on one batch when it reuses batches.

``batch_targets`` and ``_branch_objective`` also take the batches of S cells
stacked: [S, n, K] arrays, and [2, S, n, K] logits with the branch axis
(``pipeline.adapt_cells``). Every reduction runs over the last axes, one cell
at a time, so each cell's values, components and logit gradients are bitwise
those of its [n, K] slice scored alone. ``batch_targets`` takes any leading
axes, [..., n, K]: adaptation builds the targets of a block of batches in one
call and gives each step its slice. The public losses and step objectives
take [n, K] logits only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from .errors import ContractViolation
from .schema import Bound, Fraction, NonNegative, check_fields, checked
from .tensor import Tensor, _log_shifted, _result, _softmax, _softmax_grad

SIMPLEX_TOL = 1e-6

CddSign = Literal["as_printed", "flipped"]


@dataclass(frozen=True)
class LossWeights:
    lambda_lsce: NonNegative = 1.0
    lambda_e: NonNegative = 0.3
    lambda_rce: NonNegative = 0.3
    lambda_cdd: NonNegative = 1.0

    __post_init__ = check_fields


@dataclass(frozen=True)
class SmoothingParams:
    alpha_smooth: Fraction = 0.1
    eps_log: Annotated[float, Bound(0, 1, open_lo=True, open_hi=True)] = 1e-5

    __post_init__ = check_fields


def _check_logits(logits, who):
    """(n, K) of [n, K] logits."""
    if not isinstance(logits, Tensor) or logits.ndim != 2:
        raise ContractViolation(f"{who} needs [n, K] logits")
    n, k = logits.shape
    if n < 1 or k < 2:
        raise ContractViolation(f"{who}: degenerate logits shape {logits.shape}")
    return n, k


def _check_labels(labels, shape, k):
    labels = np.asarray(labels)
    if labels.shape != shape:
        raise ContractViolation(f"labels must be of shape {shape}, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractViolation(f"labels must be integers, got dtype {labels.dtype}")
    bad = (labels < 0) | (labels >= k)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])  # counting the rows of every cell in order
        raise ContractViolation(f"label at row {i} is {labels.flat[i]}, outside [0, {k})")
    return labels


def _check_simplex(probs, who):
    probs = np.asarray(probs, dtype=np.float64)
    if (probs < -SIMPLEX_TOL).any():
        raise ContractViolation(f"{who}: negative probability entry")
    sums = probs.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if (off > SIMPLEX_TOL).any():
        i = int(np.argmax(off))  # counting the rows of every cell in order
        raise ContractViolation(f"{who}: row {i} sums to {sums.flat[i]!r}, not 1")
    return probs


def _smoothed_targets(labels, k, alpha_smooth):
    off = alpha_smooth / k
    return np.where(labels[..., None] == np.arange(k), off + (1.0 - alpha_smooth), off)


def _log_source(source_probs, shape, eps_log, who):
    source_probs = _check_simplex(source_probs, who)
    if source_probs.shape != shape:
        raise ContractViolation(f"{who}: shape {source_probs.shape} != batch shape {shape}")
    return np.log(source_probs + eps_log)


# Each term takes softmax rows p and returns (s, grad): the term's value is
# (-1/n) * s, and grad(c) is its logit gradient under an upstream gradient g,
# given c = g * (-1/n) (times the term's weight inside an objective). The sum
# s runs over a batch's [n, K] entries: one per cell of [S, n, K] rows.


def _batch_sum(x):
    return np.add.reduce(x, axis=(-2, -1))  # x.sum(axis=(-2, -1)) without its wrapper


def _lsce_term(p, smoothed):
    shifted, logp = _log_shifted(p, 0.0)
    return _batch_sum(smoothed * logp), lambda c: _softmax_grad(p, c * smoothed / shifted)


def _entropy_term(p, eps_log):
    shifted, logp = _log_shifted(p, eps_log)
    return _batch_sum(p * logp), lambda c: _softmax_grad(p, c * logp + c * p / shifted)


def _rce_term(p, log_q):
    return _batch_sum(p * log_q), lambda c: _softmax_grad(p, c * log_q)


def _cdd_term(p):
    # p is both branches' rows [2, ...]: branch b's gradient takes the other's rows
    return _batch_sum(p[0] * p[1]), lambda c: _softmax_grad(p, c * p[::-1])


def _single_node(logits, term, n):
    s, grad = term
    return _result((-1.0 / n) * s, (logits,), lambda g: (grad(g * (-1.0 / n)),))


def _lsce_targets(shape, labels, alpha_smooth):
    """The smoothed targets of `lsce` on [n, K] logits of `shape`, after its check
    of the labels."""
    n, k = shape
    labels = _check_labels(labels, (n,), k)
    return _smoothed_targets(labels, k, alpha_smooth)


@checked
def lsce(logits: Tensor, labels, alpha_smooth: Fraction) -> Tensor:
    """Label-smoothed cross-entropy against hard labels."""
    n, _ = _check_logits(logits, "lsce")
    smoothed = _lsce_targets(logits.shape, labels, alpha_smooth)
    return _single_node(logits, _lsce_term(_softmax(logits.data), smoothed), n)


@checked
def cond_entropy(logits: Tensor, eps_log: float) -> Tensor:
    """Mean Shannon entropy of the prediction rows, log shifted by eps_log.

    The shift keeps ln finite at r = 0; it also makes the value dip slightly
    below zero on one-hot rows, which is fine.
    """
    n, _ = _check_logits(logits, "cond_entropy")
    return _single_node(logits, _entropy_term(_softmax(logits.data), eps_log), n)


@checked
def rce(target_logits: Tensor, source_probs, eps_log: float) -> Tensor:
    """Reverse cross-entropy: target predictions scored under frozen source probs.

    ``source_probs`` is a plain array; no gradient ever flows into it.
    """
    n, k = _check_logits(target_logits, "rce")
    log_q = _log_source(source_probs, (n, k), eps_log, "rce source_probs")
    return _single_node(target_logits, _rce_term(_softmax(target_logits.data), log_q), n)


def cdd_pair(p1, p2) -> float:
    """Classifier determinacy disparity of one probability pair: 1 - <p1, p2>.

    Equal to the off-diagonal mass of the relevance matrix p1 p2^T because the
    full matrix sums to exactly 1.
    """
    p1 = _check_simplex(p1, "cdd_pair p1")
    p2 = _check_simplex(p2, "cdd_pair p2")
    if p1.ndim != 1 or p2.ndim != 1 or p1.shape != p2.shape:
        raise ContractViolation(f"cdd_pair needs two equal-length vectors, "
                                f"got {p1.shape} and {p2.shape}")
    return float(1.0 - np.dot(p1, p2))


def _check_branches(logits1, logits2, who):
    n, k = _check_logits(logits1, who)
    _check_logits(logits2, who)
    if logits1.data.shape != logits2.data.shape:
        raise ContractViolation(f"{who}: branch shapes differ, {logits1.shape} "
                                f"vs {logits2.shape}")
    return n, k


def cdd_batch(logits1: Tensor, logits2: Tensor) -> Tensor:
    """Batch-mean CDD between the two branches' softmax rows."""
    n, _ = _check_branches(logits1, logits2, "cdd_batch")
    s, grad = _cdd_term(_softmax(np.array((logits1.data, logits2.data))))
    return _result((-1.0 / n) * s + 1.0, (logits1, logits2), lambda g: grad(g * (-1.0 / n)))


@dataclass(frozen=True)
class BatchTargets:
    """Everything a step objective needs that depends only on the batch.

    Built once per batch by ``batch_targets`` and reused by every objective
    call on that batch, SAM's perturbed re-evaluation included.
    """
    smoothed: np.ndarray
    log_q: np.ndarray  # ln(q + eps) of both branches, stacked: [2, ..., n, K]
    smoothing: SmoothingParams


def batch_targets(labels, source_probs1, source_probs2,
                  smoothing: SmoothingParams) -> BatchTargets:
    """Smoothed label targets and ln(q + eps) of both branches' source probs.

    Checks the labels and that each source-probability array is a batch of
    simplex rows. The batch shape comes from ``source_probs1``: [n, K], S
    cells' [S, n, K], or any leading axes over those, [..., n, K], as when
    adaptation prepares a block of batches at once; the labels' shape is its
    leading part. Every operation is elementwise, so each [n, K] slice gets
    the bits it gets alone.
    """
    q1 = np.asarray(source_probs1, dtype=np.float64)
    if q1.ndim < 2 or 0 in q1.shape or q1.shape[-1] < 2:
        raise ContractViolation(f"source_probs must be [..., n, K] with n >= 1 and K >= 2, "
                                f"got shape {q1.shape}")
    labels = _check_labels(labels, q1.shape[:-1], q1.shape[-1])
    eps = smoothing.eps_log
    return BatchTargets(_smoothed_targets(labels, q1.shape[-1], smoothing.alpha_smooth),
                        np.array((_log_source(q1, q1.shape, eps, "source_probs1"),
                                  _log_source(source_probs2, q1.shape, eps, "source_probs2"))),
                        smoothing)


def _branch_objective(logits, targets, weights, cdd_sign=None):
    """The step objective on both branches' logits, stacked: [2, n, K] or [2, S, n, K].

    Branch 0 is head 1 on view 1, branch 1 head 2 on view 2. ``cdd_sign`` None
    is step 1, which leaves the CDD term out of the total; otherwise step 2's
    sign. Returns (value, components, grad): the value is the sum of the
    cells' totals, the components are floats (lists of S floats for S cells),
    and grad(g) is d/dlogits, [2, ...], when each cell's total gets upstream
    gradient g. Each branch's terms and gradient are computed elementwise or
    per [n, K] slice, so they are bitwise those of the branch scored alone.
    """
    m, eps = -1.0 / logits.shape[-2], targets.smoothing.eps_log
    p = _softmax(logits)
    s_lsce, d_lsce = _lsce_term(p, targets.smoothed)
    s_entropy, d_entropy = _entropy_term(p, eps)
    s_rce, d_rce = _rce_term(p, targets.log_q)
    s_cdd, d_cdd = _cdd_term(p)
    parts = {"lsce": m * s_lsce[0] + m * s_lsce[1],
             "entropy": m * s_entropy[0] + m * s_entropy[1],
             "rce": m * s_rce[0] + m * s_rce[1],
             "cdd": m * s_cdd + 1.0}
    lambdas = (weights.lambda_lsce, weights.lambda_e, weights.lambda_rce)
    total = (lambdas[0] * parts["lsce"] + lambdas[1] * parts["entropy"]) \
        + lambdas[2] * parts["rce"]
    cdd_weight = None
    if cdd_sign is not None:
        cdd_weight = (-1.0 if cdd_sign == "as_printed" else 1.0) * weights.lambda_cdd
        total = total + cdd_weight * parts["cdd"]
    parts["total"] = total

    def grad(g):
        c_lsce, c_entropy, c_rce = [(g * lam) * m for lam in lambdas]
        dz = d_rce(c_rce) if cdd_weight is None else d_cdd((g * cdd_weight) * m) + d_rce(c_rce)
        return (dz + d_entropy(c_entropy)) + d_lsce(c_lsce)

    # one cell's np.float64 sums to itself and lists as a float; S cells' list S floats
    return np.add.reduce(total, axis=None), {name: v.tolist() for name, v in parts.items()}, grad


def _objective(logits1, logits2, targets, weights, cdd_sign, who):
    """`_branch_objective` on two [n, K] logits Tensors, as one node."""
    _check_branches(logits1, logits2, who)
    if targets.smoothed.shape != logits1.data.shape:
        raise ContractViolation(f"{who}: logits shape {logits1.shape} != batch targets shape "
                                f"{targets.smoothed.shape}")
    value, parts, grad = _branch_objective(np.array((logits1.data, logits2.data)), targets,
                                           weights, cdd_sign)
    return _result(value, (logits1, logits2), grad), parts  # grad's [2, n, K]: one per branch


def step1_objective(logits1, logits2, targets: BatchTargets, weights: LossWeights):
    """Supervision + entropy + source anchoring, summed over both branches.

    Returns (scalar tensor, component values and their weighted "total"). The
    CDD value is computed for the log but takes no part in this objective.
    """
    return _objective(logits1, logits2, targets, weights, None, "step1_objective")


@checked
def step2_objective(logits1, logits2, targets: BatchTargets, weights: LossWeights,
                    cdd_sign: CddSign = "as_printed"):
    """Step-1 terms with the weighted CDD term added.

    ``as_printed`` subtracts lambda_cdd * cdd (minimizing the objective pushes
    the two heads' determinacy disparity up); ``flipped`` adds it instead.
    """
    return _objective(logits1, logits2, targets, weights, cdd_sign, "step2_objective")
