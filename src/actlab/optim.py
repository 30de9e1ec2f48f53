"""Optimizers: SGD with momentum, Adam, a SAM wrapper, and the poly LR decay.

All steps are functional: parameters in, state mutated, nothing returned
(except SAM, which returns the unperturbed loss for logging). State is keyed
by parameter object, never by list position, so update order cannot matter.

    sgd   v <- momentum * v + (g + wd * w);  w <- w - lr * v
    adam  standard bias-corrected moments, update m_hat / (sqrt(v_hat) + eps)
    sam   ascend rho * g / ||g||_2 (global norm), re-evaluate, restore, then
          apply the base optimizer with the perturbed-point gradient
    lr    eta(p) = eta0 * (1 + 10 p) ^ -0.75,  p in [0, 1]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .schema import Fraction, NonNegative, Positive, check_fields
from .tensor import Tensor, backward, zero_grad

SAM_NORM_FLOOR = 1e-12
POLY_SLOPE = 10.0
POLY_EXPONENT = -0.75


@dataclass(frozen=True)
class SgdConfig:
    lr: Positive
    momentum: Fraction = 0.9
    weight_decay: NonNegative = 0.0

    __post_init__ = check_fields


@dataclass(frozen=True)
class AdamConfig:
    lr: Positive = 1e-3
    beta1: Fraction = 0.9
    beta2: Fraction = 0.999
    eps_adam: Positive = 1e-8

    __post_init__ = check_fields


@dataclass(frozen=True)
class SamConfig:
    rho: NonNegative = 0.05  # 0 is allowed on purpose: it reduces SAM to the base optimizer
    base: AdamConfig = field(default_factory=AdamConfig)

    __post_init__ = check_fields


class SgdState:
    def __init__(self):
        self.velocity = {}


class AdamState:
    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


class SamState:
    def __init__(self):
        self.base = AdamState()


def lr_at(eta0: float, progress: float) -> float:
    if not eta0 > 0:
        raise ContractViolation(f"eta0 must be positive, got {eta0}")
    if not 0.0 <= progress <= 1.0:
        raise ContractViolation(f"progress must be in [0, 1], got {progress}")
    return eta0 * (1.0 + POLY_SLOPE * progress) ** POLY_EXPONENT


def _check_step_args(params, grads, lr_override, default_lr):
    if len(params) != len(grads):
        raise ContractViolation(f"{len(params)} params but {len(grads)} grads")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise ContractViolation(f"param {i} has no gradient")
        if np.shape(g) != p.shape:
            raise ContractViolation(f"param {i}: grad shape {np.shape(g)} != {p.shape}")
    if lr_override is None:
        return [default_lr] * len(params)
    if np.isscalar(lr_override):
        return [float(lr_override)] * len(params)
    lrs = [float(lr) for lr in lr_override]
    if len(lrs) != len(params):
        raise ContractViolation(f"{len(params)} params but {len(lrs)} lr overrides")
    return lrs


def sgd_step(params, grads, state: SgdState, cfg: SgdConfig, lr_override=None):
    lrs = _check_step_args(params, grads, lr_override, cfg.lr)
    for p, g, lr in zip(params, grads, lrs):
        step = np.asarray(g, dtype=np.float64) + cfg.weight_decay * p.data
        v = state.velocity.get(p)
        v = step if v is None else cfg.momentum * v + step
        state.velocity[p] = v
        p.data = p.data - lr * v


def adam_step(params, grads, state: AdamState, cfg: AdamConfig, lr_override=None):
    lrs = _check_step_args(params, grads, lr_override, cfg.lr)
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


def _collect_grads(params):
    # a parameter the loss never touched gets a zero gradient, not a crash
    return [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]


def global_grad_norm(grads) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def sam_step(params, loss_closure, state: SamState, cfg: SamConfig,
             lr_override=None, base_step=None) -> float:
    """One sharpness-aware step. Returns the loss at the unperturbed point.

    Phases: (1) gradient at w; (2) ascend to w + rho * g / ||g||; (3) fresh
    gradient there; (4) restore w bitwise; (5) base-optimizer step with the
    perturbed-point gradient. Gradients are zeroed before each phase so no
    stale state can leak in.
    """
    zero_grad(params)
    loss = loss_closure()
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ContractViolation("loss closure must return a scalar tensor")
    backward(loss)
    grads = _collect_grads(params)

    # steps rebind p.data and never write into it, so references restore w exactly
    saved = [p.data for p in params]
    scale = cfg.rho / (global_grad_norm(grads) + SAM_NORM_FLOOR)
    for p, g in zip(params, grads):
        p.data = p.data + scale * g

    zero_grad(params)
    backward(loss_closure())
    adv_grads = _collect_grads(params)

    for p, w in zip(params, saved):
        p.data = w

    if base_step is not None:
        base_step(params, adv_grads)
    else:
        adam_step(params, adv_grads, state.base, cfg.base, lr_override)
    return float(loss.item())
