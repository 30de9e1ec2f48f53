"""Optimizers: SGD with momentum, Adam, a SAM wrapper, and the poly LR decay.

All steps are functional: parameters in, state mutated, nothing returned
(except SAM, which returns the unperturbed loss for logging). A parameter is a
Tensor or a ``ParamVector``, arrays copied into one vector and stepped at once,
whose rate may be an array of per-entry rates; the arithmetic is elementwise, so
each entry gets its parameter's bits. SAM moves a vector, whose gradient is its
``leaf``'s, or a list of Tensors, through one adapter: a vector of their values
that their ``data`` views. A stacked ParamVector holds S models' vectors as
the rows of one matrix and steps them all at once; SAM takes one norm and one
scale per row, so each row gets the bits of its own step. State is keyed by
parameter object, never by list position, so update order cannot matter.
The states own their arrays: a first step allocates ``velocity[p]`` (SGD) or
``m[p]`` and ``v[p]`` (Adam), later steps update them in place, so a held one
sees every later step; SGD writes a ParamVector's step into its buffer.

    sgd   v <- momentum * v + (g + wd * w);  w <- w - lr * v
    adam  standard bias-corrected moments, update m_hat / (sqrt(v_hat) + eps)
    sam   ascend rho * g / ||g||_2 (global norm), re-evaluate, restore, then
          apply the base optimizer with the perturbed-point gradient
    lr    eta(p) = eta0 * (1 + 10 p) ^ -0.75,  p in [0, 1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .schema import Fraction, NonNegative, Positive, Probability, check_fields, checked
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


class ParamVector:
    """Arrays, copied, as one float64 vector that owns their values: ``views``
    holds a read-only reshaped view of one buffer per array, in order, made once,
    and so is ``data``. Assigning ``data``, SAM's perturb and restore and the
    optimizers' updates write into the buffer, so a snapshot is a copy. Given a
    `root` whose last parameters these are, buffer and views are the root's tail
    and last views. ``leaf``, a Tensor over ``data`` that requires a gradient, is
    the one parent of a node that gives the whole vector's gradient at once.

    With ``stacked``, every parameter has a leading cell axis of one length S,
    and ``data`` is an [S, P] matrix: row s is cell s's vector. Slots and tail
    index the last axis, ``np.s_[..., a:b]``, so every method treats each row as
    the vector of one model.
    """

    def __init__(self, arrays, root=None, stacked=False):
        arrays = list(arrays)
        if not arrays:
            raise ContractViolation("ParamVector needs one or more arrays")
        self._lead = arrays[0].shape[:1] if stacked else ()
        shapes = [a.shape[len(self._lead):] for a in arrays]
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        self._slots = [(np.s_[..., hi - math.prod(shape):hi], self._lead + shape)
                       for shape, hi in zip(shapes, ends)]
        # row-major, whatever the arrays' layout: each row is contiguous
        self._buffer = np.ascontiguousarray(self.flat(arrays), dtype=np.float64) \
            if root is None else root._buffer[..., -ends[-1]:]
        self.leaf = Tensor(self._buffer.view(), requires_grad=True)
        self.leaf.data.flags.writeable = False  # and so is every view of it
        self.views = root.views[-len(shapes):] if root else tuple(self.split(self.data))

    @property
    def data(self):
        return self.leaf.data

    @data.setter
    def data(self, vector):
        np.copyto(self._buffer, vector)

    def flat(self, arrays):  # one array per parameter, in its shape, as one new vector
        if not self._lead:
            return np.concatenate(arrays, axis=None)
        return np.concatenate([a.reshape(self._lead + (-1,)) for a in arrays], axis=-1)

    def segments(self, vector):  # one flat slice of `vector`'s last axis per parameter
        return [vector[index] for index, _ in self._slots]

    def split(self, vector):  # one view of `vector` per parameter, in its shape
        return [vector[index].reshape(shape) for index, shape in self._slots]


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


@checked
def lr_at(eta0: Positive, progress: Probability) -> float:
    return eta0 * (1.0 + POLY_SLOPE * progress) ** POLY_EXPONENT


def _check_step_args(params, grads, lr_override, default_lr):
    if len(params) != len(grads):
        raise ContractViolation(f"{len(params)} params but {len(grads)} grads")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise ContractViolation(f"param {i} has no gradient")
        d = p.data  # np.shape and np.isscalar are Python calls: arrays, floats and lists skip them
        if g.shape != d.shape if type(g) is type(d) is np.ndarray else np.shape(g) != np.shape(d):
            raise ContractViolation(f"param {i}: grad shape {np.shape(g)} != {np.shape(d)}")
    if lr_override is None or isinstance(lr_override, float) or (
            not isinstance(lr_override, list) and np.isscalar(lr_override)):
        return [default_lr if lr_override is None else float(lr_override)] * len(params)
    lrs = list(lr_override)
    if len(lrs) != len(params):
        raise ContractViolation(f"{len(params)} params but {len(lrs)} lr overrides")
    return lrs


def sgd_step(params, grads, state: SgdState, cfg: SgdConfig, lr_override=None):
    lrs = _check_step_args(params, grads, lr_override, cfg.lr)
    for p, g, lr in zip(params, grads, lrs):
        step = np.asarray(g, dtype=np.float64) + cfg.weight_decay * p.data
        v = state.velocity.get(p)
        if v is None:  # asarray: a 0-d sum is a scalar, which `*=` would rebind
            v = state.velocity[p] = np.asarray(step)
        else:  # bitwise momentum * v + step, without a new array
            v *= cfg.momentum
            v += step
        if isinstance(p, ParamVector):  # the step is written into the vector's buffer
            np.subtract(p.data, lr * v, out=p._buffer)
        else:
            p.data = p.data - lr * v


def adam_step(params, grads, state: AdamState, cfg: AdamConfig, lr_override=None):
    lrs = _check_step_args(params, grads, lr_override, cfg.lr)
    state.t += 1
    bias1 = 1.0 - cfg.beta1 ** state.t
    bias2 = 1.0 - cfg.beta2 ** state.t
    for p, g, lr in zip(params, grads, lrs):
        g = np.asarray(g, dtype=np.float64)
        m, v = state.m.get(p), state.v.get(p)
        if m is None:  # asarray: a 0-d product is a scalar, which `*=` would rebind
            m = state.m[p] = np.asarray((1.0 - cfg.beta1) * g)
            v = state.v[p] = np.asarray((1.0 - cfg.beta2) * g * g)
        else:  # bitwise beta1 * m + (1 - beta1) * g, without a new array per moment
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
        p.data = p.data - lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps_adam)


def _tensor_grad(vec, tensors):  # a Tensor the loss never reached has a zero gradient
    return vec.flat([np.zeros(t.shape) if t.grad is None else t.grad for t in tensors])


def sam_step(params, loss_closure, state: SamState, cfg: SamConfig,
             lr_override=None, base_step=None) -> float:
    """One sharpness-aware step. Returns the loss at the unperturbed point.

    Phases: (1) gradient at w; (2) ascend to w + rho * g / ||g||; (3) fresh
    gradient there; (4) restore w bitwise; (5) base-optimizer step with the
    perturbed-point gradient. Gradients are zeroed before each phase so no
    stale state can leak in. A `base_step(params, grads)` replaces the Adam
    step, which `lr_override` sets. Each array goes after its last reader:
    (1)'s node and activations before (2), (1)'s gradient before (3), and the
    snapshot of w after (4).

    `params` is a ParamVector, whose gradient is its leaf's (a first loss that
    does not reach the leaf is refused; a second one is refused by the Adam or
    SGD step's check), or a list of Tensors. For those, a vector of their
    values is made, each Tensor's ``data`` rebound to its view, so perturb and
    restore reach the tape; their gradients are gathered in layout order, zero
    for a Tensor the loss never reached, and the base step moves the Tensors.
    An empty list, or one with an entry that is not a Tensor, is refused.
    """
    if base_step is not None and lr_override is not None:
        raise ContractViolation("lr_override is not used with base_step")
    vec, tensors = params, []
    if not isinstance(params, ParamVector):  # the adapter
        tensors = list(params)
        if not tensors or not all(isinstance(t, Tensor) for t in tensors):
            raise ContractViolation("sam_step needs a ParamVector or one or more Tensors")
        vec = ParamVector([t.data for t in tensors])
        for t, view in zip(tensors, vec.views):
            t.data = view
    holders = tensors or [vec.leaf]  # the Tensors a tape reaches, or a step node's parent
    zero_grad(holders)
    loss = loss_closure()
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ContractViolation("loss closure must return a scalar tensor")
    backward(loss)
    value = float(loss.item())
    del loss  # the first pass's node, and the activations its rule holds
    grad = _tensor_grad(vec, tensors) if tensors else vec.leaf.grad
    if grad is None:  # not a zero gradient, which would step nothing
        raise ContractViolation("the loss does not depend on the vector's leaf")

    w = vec.data.copy()  # a snapshot: the perturbation writes into the vector
    # square once, sum per Tensor, add in layout order: the bits of a per-Tensor norm;
    # a stacked vector gets one norm and one scale per row
    norm = np.sqrt(sum([np.add.reduce(sq, axis=-1) for sq in vec.segments(grad * grad)]))
    scale = cfg.rho / (norm + SAM_NORM_FLOOR)
    vec.data = w + scale[..., None] * grad
    del grad

    zero_grad(holders)
    backward(loss_closure())
    adv_grad = _tensor_grad(vec, tensors) if tensors else vec.leaf.grad
    vec.data = w
    del w

    params, grads = (tensors, vec.split(adv_grad)) if tensors else ([vec], [adv_grad])
    if base_step is not None:
        base_step(params, grads)
    else:
        adam_step(params, grads, state.base, cfg.base, lr_override)
    return value
