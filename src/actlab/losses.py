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
computes d/dlogits in plain numpy. That rule repeats, operation for operation
and in the same association order, what the tape's backward does over the
same loss composed from generic ops (softmax_rows, log_shifted, *, sum,
scalar_mul), so values, gradients and trained fingerprints are bitwise those
of the composed form. With c = (upstream * weight) * (-1/n), d/dp of a term is

    lsce     c * smoothed / (p + 0)         entropy  c * ln(p + eps) + c * p / (p + eps)
    rce      c * ln(q + eps)                cdd      c * p_other

and each goes through its own softmax backward, p * (g - <g, p>). A branch's
logit gradient adds them as ((cdd + rce) + entropy) + lsce, the order in which
the tape reaches the four softmax nodes. tests/test_losses.py holds the fused
nodes to the composed form (kept in tests/oracles.py) bit for bit, for two
distinct logits tensors; the same tensor passed as both branches accumulates
in another order.

The step objectives score logits against ``BatchTargets``: the smoothed label
targets and ln(q + eps) of each branch's frozen source probabilities. These
depend only on the batch, so ``batch_targets`` builds and checks them once
per batch (labels in range, source rows on the simplex), and every objective
call on that batch reuses them: SAM evaluates each objective twice, and the
adaptation loop evaluates both steps on one batch when it reuses batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .tensor import Tensor, _log_shifted, _result, _softmax, _softmax_grad

SIMPLEX_TOL = 1e-6


@dataclass(frozen=True)
class LossWeights:
    lambda_lsce: float = 1.0
    lambda_e: float = 0.3
    lambda_rce: float = 0.3
    lambda_cdd: float = 1.0

    def __post_init__(self):
        for name in ("lambda_lsce", "lambda_e", "lambda_rce", "lambda_cdd"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class SmoothingParams:
    alpha_smooth: float = 0.1
    eps_log: float = 1e-5

    def __post_init__(self):
        if not 0.0 <= self.alpha_smooth < 1.0:
            raise ContractViolation(f"alpha_smooth must be in [0, 1), got {self.alpha_smooth}")
        if not 0.0 < self.eps_log < 1.0:
            raise ContractViolation(f"eps_log must be in (0, 1), got {self.eps_log}")


def _check_logits(logits, who):
    if not isinstance(logits, Tensor) or logits.ndim != 2:
        raise ContractViolation(f"{who} needs [n, K] logits")
    n, k = logits.shape
    if n < 1 or k < 2:
        raise ContractViolation(f"{who}: degenerate logits shape {logits.shape}")
    return n, k


def _check_labels(labels, n, k):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ContractViolation(f"labels must be [{n}], got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractViolation(f"labels must be integers, got dtype {labels.dtype}")
    bad = (labels < 0) | (labels >= k)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ContractViolation(f"label at row {i} is {labels[i]}, outside [0, {k})")
    return labels


def _check_simplex(probs, who):
    probs = np.asarray(probs, dtype=np.float64)
    rows = probs if probs.ndim == 2 else probs[None, :]
    if (rows < -SIMPLEX_TOL).any():
        raise ContractViolation(f"{who}: negative probability entry")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > SIMPLEX_TOL).any():
        i = int(np.argmax(off))
        raise ContractViolation(f"{who}: row {i} sums to {sums[i]!r}, not 1")
    return probs


def _smoothed_targets(labels, n, k, alpha_smooth):
    smoothed = np.full((n, k), alpha_smooth / k)
    smoothed[np.arange(n), labels] += 1.0 - alpha_smooth
    return smoothed


def _log_source(source_probs, n, k, eps_log, who):
    source_probs = _check_simplex(source_probs, who)
    if source_probs.shape != (n, k):
        raise ContractViolation(f"{who}: shape {source_probs.shape} != batch shape {(n, k)}")
    return np.log(source_probs + eps_log)


# Each term takes softmax rows p and returns (s, grad): the term's value is
# (-1/n) * s, and grad(c) is its logit gradient under an upstream gradient g,
# given c = g * (-1/n) (times the term's weight inside an objective).


def _lsce_term(p, smoothed):
    shifted, logp = _log_shifted(p, 0.0)
    return (smoothed * logp).sum(), lambda c: _softmax_grad(p, c * smoothed / shifted)


def _entropy_term(p, eps_log):
    shifted, logp = _log_shifted(p, eps_log)
    return (p * logp).sum(), lambda c: _softmax_grad(p, c * logp + c * p / shifted)


def _rce_term(p, log_q):
    return (p * log_q).sum(), lambda c: _softmax_grad(p, c * log_q)


def _cdd_term(p1, p2):
    return (p1 * p2).sum(), lambda c: (_softmax_grad(p1, c * p2), _softmax_grad(p2, c * p1))


def _single_node(logits, term, n):
    s, grad = term
    return _result((-1.0 / n) * s, (logits,),
                   lambda g: ((logits, grad(g * (-1.0 / n))),))


def lsce(logits: Tensor, labels, alpha_smooth: float) -> Tensor:
    """Label-smoothed cross-entropy against hard labels."""
    n, k = _check_logits(logits, "lsce")
    labels = _check_labels(labels, n, k)
    if not 0.0 <= alpha_smooth < 1.0:
        raise ContractViolation(f"alpha_smooth must be in [0, 1), got {alpha_smooth}")
    smoothed = _smoothed_targets(labels, n, k, alpha_smooth)
    return _single_node(logits, _lsce_term(_softmax(logits.data), smoothed), n)


def cond_entropy(logits: Tensor, eps_log: float) -> Tensor:
    """Mean Shannon entropy of the prediction rows, log shifted by eps_log.

    The shift keeps ln finite at r = 0; it also makes the value dip slightly
    below zero on one-hot rows, which is fine.
    """
    n, _ = _check_logits(logits, "cond_entropy")
    return _single_node(logits, _entropy_term(_softmax(logits.data), eps_log), n)


def rce(target_logits: Tensor, source_probs, eps_log: float) -> Tensor:
    """Reverse cross-entropy: target predictions scored under frozen source probs.

    ``source_probs`` is a plain array; no gradient ever flows into it.
    """
    n, k = _check_logits(target_logits, "rce")
    log_q = _log_source(source_probs, n, k, eps_log, "rce source_probs")
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
    n1, k1 = _check_logits(logits1, who)
    n2, k2 = _check_logits(logits2, who)
    if (n1, k1) != (n2, k2):
        raise ContractViolation(f"{who}: branch shapes differ, {logits1.shape} "
                                f"vs {logits2.shape}")
    return n1, k1


def cdd_batch(logits1: Tensor, logits2: Tensor) -> Tensor:
    """Batch-mean CDD between the two branches' softmax rows."""
    n, _ = _check_branches(logits1, logits2, "cdd_batch")
    s, grad = _cdd_term(_softmax(logits1.data), _softmax(logits2.data))

    def backward(g):
        dz1, dz2 = grad(g * (-1.0 / n))
        return ((logits1, dz1), (logits2, dz2))

    return _result((-1.0 / n) * s + 1.0, (logits1, logits2), backward)


def _branch(p, smoothed, log_q, eps_log):
    """One head's lsce, entropy and rce sums, and its logit gradient."""
    s_lsce, d_lsce = _lsce_term(p, smoothed)
    s_entropy, d_entropy = _entropy_term(p, eps_log)
    s_rce, d_rce = _rce_term(p, log_q)

    def grad(c_lsce, c_entropy, c_rce, dz_cdd):
        dz = d_rce(c_rce) if dz_cdd is None else dz_cdd + d_rce(c_rce)
        return (dz + d_entropy(c_entropy)) + d_lsce(c_lsce)

    return (s_lsce, s_entropy, s_rce), grad


@dataclass(frozen=True)
class BatchTargets:
    """Everything a step objective needs that depends only on the batch.

    Built once per batch by ``batch_targets`` and reused by every objective
    call on that batch, SAM's perturbed re-evaluation included.
    """
    smoothed: np.ndarray
    log_q1: np.ndarray
    log_q2: np.ndarray
    smoothing: SmoothingParams


def batch_targets(labels, source_probs1, source_probs2,
                  smoothing: SmoothingParams) -> BatchTargets:
    """Smoothed label targets and ln(q + eps) of both branches' source probs.

    Checks the labels and that each source-probability array is a batch of
    simplex rows; the batch shape [n, K] comes from ``source_probs1``.
    """
    q1 = np.asarray(source_probs1, dtype=np.float64)
    if q1.ndim != 2 or q1.shape[0] < 1 or q1.shape[1] < 2:
        raise ContractViolation(f"source_probs must be [n, K] with n >= 1 and K >= 2, "
                                f"got shape {q1.shape}")
    n, k = q1.shape
    labels = _check_labels(labels, n, k)
    eps = smoothing.eps_log
    return BatchTargets(_smoothed_targets(labels, n, k, smoothing.alpha_smooth),
                        _log_source(q1, n, k, eps, "source_probs1"),
                        _log_source(source_probs2, n, k, eps, "source_probs2"),
                        smoothing)


def _objective(logits1, logits2, targets, weights, cdd_weight, who):
    """One node over both branches; cdd_weight None leaves the CDD term out."""
    n, k = _check_branches(logits1, logits2, who)
    if targets.smoothed.shape != (n, k):
        raise ContractViolation(f"{who}: logits shape {(n, k)} != batch targets shape "
                                f"{targets.smoothed.shape}")
    smoothed, m, eps = targets.smoothed, -1.0 / n, targets.smoothing.eps_log
    p1, p2 = _softmax(logits1.data), _softmax(logits2.data)
    sums1, grad1 = _branch(p1, smoothed, targets.log_q1, eps)
    sums2, grad2 = _branch(p2, smoothed, targets.log_q2, eps)
    s_cdd, grad_cdd = _cdd_term(p1, p2)
    parts = {name: m * a + m * b for name, a, b in zip(("lsce", "entropy", "rce"), sums1, sums2)}
    parts["cdd"] = m * s_cdd + 1.0
    lambdas = (weights.lambda_lsce, weights.lambda_e, weights.lambda_rce)
    total = (lambdas[0] * parts["lsce"] + lambdas[1] * parts["entropy"]) \
        + lambdas[2] * parts["rce"]
    if cdd_weight is not None:
        total = total + cdd_weight * parts["cdd"]

    def backward(g):
        cs = [(g * lam) * m for lam in lambdas]
        dz_cdd = (None, None) if cdd_weight is None else grad_cdd((g * cdd_weight) * m)
        return ((logits1, grad1(*cs, dz_cdd[0])), (logits2, grad2(*cs, dz_cdd[1])))

    comps = {name: float(v) for name, v in parts.items()}
    return _result(total, (logits1, logits2), backward), comps


def step1_objective(logits1, logits2, targets: BatchTargets, weights: LossWeights):
    """Supervision + entropy + source anchoring, summed over both branches.

    Returns (scalar tensor, component values). The CDD value is computed for
    the log but takes no part in this objective.
    """
    return _objective(logits1, logits2, targets, weights, None, "step1_objective")


def step2_objective(logits1, logits2, targets: BatchTargets, weights: LossWeights,
                    cdd_sign: str = "as_printed"):
    """Step-1 terms with the weighted CDD term added.

    ``as_printed`` subtracts lambda_cdd * cdd (minimizing the objective pushes
    the two heads' determinacy disparity up); ``flipped`` adds it instead.
    """
    if cdd_sign not in ("as_printed", "flipped"):
        raise ContractViolation(f"cdd_sign must be as_printed or flipped, got {cdd_sign!r}")
    sign = -1.0 if cdd_sign == "as_printed" else 1.0
    return _objective(logits1, logits2, targets, weights, sign * weights.lambda_cdd,
                      "step2_objective")
