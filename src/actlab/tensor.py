"""Reverse-mode automatic differentiation on float64 numpy arrays.

Define-by-run: every op that touches a gradient-requiring tensor records its
parents and a backward rule on the result, so the graph (the tape) is rebuilt
on every forward pass. ``backward`` walks that graph once in reverse
topological order and accumulates gradients additively into ``.grad`` of every
reachable tensor that requires one.

There is no general broadcasting. Elementwise ops take operands of identical
shape, or one operand that is a scalar (a Python number, or a tensor of size
one). Matrix ops are rank-2 only. Everything is float64.

The package's hot paths build fused nodes through ``_result`` (models.py per
layer stack, losses.py per loss) and use only ``+``, ``backward`` and
``zero_grad`` besides. The rest of the op set (``*``, ``matmul``, ``add_bias``,
``relu``, ``log_shifted``, ``softmax_rows``, the full ``sum`` and
``scalar_mul``) is exactly what the composed reference in ``tests/oracles.py``
needs: the tests hold the fused nodes to it, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode.

    ``_parents`` / ``_backward`` are populated only when the result actually
    needs a gradient; constants stay off the tape, so a forward pass through
    frozen parameters records nothing and costs nothing at backward time.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() needs a size-1 tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ------------------------------------------------

    def __add__(self, other):
        return _elementwise("add", self, other,
                            fwd=lambda a, b: a + b,
                            da=lambda g, a, b: g,
                            db=lambda g, a, b: g)

    def __mul__(self, other):
        return _elementwise("mul", self, other,
                            fwd=lambda a, b: a * b,
                            da=lambda g, a, b: g * b,
                            db=lambda g, a, b: g * a)

    # -- matrix ops ------------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise ContractViolation(f"matmul needs two rank-2 tensors, got {a.shape} @ {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ContractViolation(f"matmul inner dims differ: {a.shape} @ {b.shape}")
        out_data = a.data @ b.data

        def backward(g):
            return ((a, g @ b.data.T), (b, a.data.T @ g))

        return _result(out_data, (a, b), backward)

    def add_bias(self, bias: "Tensor") -> "Tensor":
        """Row-broadcast add: [n, k] + [k]. The one broadcast affine layers need."""
        mat, vec = self, bias
        if mat.ndim != 2 or vec.ndim != 1 or mat.shape[1] != vec.shape[0]:
            raise ContractViolation(f"add_bias needs [n,k] and [k], got {mat.shape} and {vec.shape}")
        out_data = mat.data + vec.data[None, :]

        def backward(g):
            return ((mat, g), (vec, g.sum(axis=0)))

        return _result(out_data, (mat, vec), backward)

    # -- nonlinearities --------------------------------------------------------

    def relu(self) -> "Tensor":
        x = self
        mask = x.data > 0.0  # subgradient at exactly 0 is 0
        out_data = np.where(mask, x.data, 0.0)

        def backward(g):
            return ((x, g * mask),)

        return _result(out_data, (x,), backward)

    def log_shifted(self, eps: float) -> "Tensor":
        """ln(x + eps). Every entry of x + eps must be strictly positive."""
        x = self
        shifted, out_data = _log_shifted(x.data, eps)

        def backward(g):
            return ((x, g / shifted),)

        return _result(out_data, (x,), backward)

    # -- reductions ------------------------------------------------------------

    def sum(self) -> "Tensor":
        """The sum of every entry, as a scalar tensor."""
        x = self
        out_data = x.data.sum()

        def backward(g):
            return ((x, np.broadcast_to(g, x.shape).copy()),)

        return _result(out_data, (x,), backward)

    def softmax_rows(self) -> "Tensor":
        """Row softmax of a [n, K] tensor, max-subtracted for stability."""
        x = self
        if x.ndim != 2:
            raise ContractViolation(f"softmax_rows needs a rank-2 tensor, got shape {x.shape}")
        p = _softmax(x.data)

        def backward(g):
            return ((x, _softmax_grad(p, g)),)

        return _result(p, (x,), backward)


# -- numpy kernels shared with the fused loss nodes in losses.py ----------------


def _log_shifted(x, eps):
    """(x + eps, ln(x + eps)) of an array; every x + eps must be strictly positive."""
    if eps < 0.0:
        raise ContractViolation(f"log_shifted eps must be nonnegative, got {eps}")
    shifted = x + eps
    positive = shifted > 0.0  # False for NaN too
    if not positive.all():
        i = int(np.flatnonzero(~positive)[0])
        raise ContractViolation(
            f"log_shifted: entry {i} is {x.reshape(-1)[i]!r}, not positive after +{eps}")
    return shifted, np.log(shifted)


def _softmax(x):
    """Row softmax of a [n, K] array, max-subtracted for stability."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_grad(p, g):
    """d/dx of a row softmax p = softmax(x), given g = d/dp: p * (g - sum_k g_k p_k)."""
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def _wrap(value):
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float, np.floating, np.integer)):
        return Tensor(np.float64(value))
    raise ContractViolation(f"cannot use {type(value).__name__} as a tensor operand")


def _result(data, parents, backward_rule):
    out = Tensor(data)
    for p in parents:  # not any(genexpr): the generator costs two Python calls per op
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_rule
            break
    return out


def _reduce_to(g, shape):
    # collapse a broadcast gradient back onto a size-1 operand
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


def _elementwise(name, a, b, fwd, da, db):
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ContractViolation(f"{name}: shapes {a.shape} and {b.shape} differ "
                                "and neither operand is a scalar")
    out_data = fwd(a.data, b.data)

    def backward(g):
        return ((a, _reduce_to(da(g, a.data, b.data), a.shape)),
                (b, _reduce_to(db(g, a.data, b.data), b.shape)))

    return _result(out_data, (a, b), backward)


def scalar_mul(c: float, t: Tensor) -> Tensor:
    return _wrap(float(c)) * t


def _topo_order(root: Tensor):
    """Operations ordered so every producer precedes its consumers (iterative DFS)."""
    order, visited = [], set()
    stack = [(root, iter(root._parents))]
    visited.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Tensor):
    """Accumulate d(loss)/d(t) into t.grad for every reachable requires_grad tensor.

    Gradients add across calls: two backward passes without zero_grad leave
    exactly twice the gradient of one pass. Each pass propagates through a
    scratch map so earlier passes can never leak into the current one.
    """
    if loss.size != 1:
        raise ContractViolation(f"backward needs a scalar loss, got shape {loss.shape}")
    topo = _topo_order(loss)
    pass_grads = {id(loss): np.ones_like(loss.data)}
    for t in reversed(topo):
        g = pass_grads.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            t.grad = g.copy() if t.grad is None else t.grad + g
        if t._backward is None:
            continue
        for parent, pg in t._backward(g):
            if not parent.requires_grad:
                continue
            held = pass_grads.get(id(parent))
            pass_grads[id(parent)] = pg if held is None else held + pg


def zero_grad(params):
    for p in params:
        p.grad = None
