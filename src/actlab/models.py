"""Small MLPs arranged for bi-classifier adaptation.

A bundle is one network: a feature extractor shared by two classifier heads.
``MlpSpec.param_shapes`` is its one parameter layout (names, shapes, checkpoint
order): ``build`` draws into it, ``bundle_from_params`` checks named arrays
against it, and the training scopes and checkpoints follow it.
Adaptation trains a clone and reads the caller's untouched bundle as the
frozen source model whose predictions anchor the losses. The forward pass
comes in two pieces, features then one head, so a caller that holds the
extractor fixed can compute its features once. ``plain_features`` and
``plain_head`` run the same numpy loop on plain arrays and record no tape
node, for the passes nothing differentiates. Checkpoints are JSON with
decimal parameter text, which round-trips float64 exactly; they are written
through a temporary file and renamed into place, so a crash never leaves a
truncated one. A checkpoint's spec block is read by ``schema.parse`` from
``MlpSpec``'s fields, as strictly as a config's ``model`` block.

Each piece is one tape node over its whole layer stack (affine layers with a
ReLU between consecutive ones). Its forward runs ``a @ W``, ``+ b`` and
``np.where(a > 0, a, 0)`` layer by layer, and its backward rule runs, from
the last layer down, the numpy operations the tape runs over the same stack
composed from ``Tensor.matmul`` / ``add_bias`` / ``relu``: ``g.sum(axis=0)``
for a bias, ``a.T @ g`` for a weight, ``g @ W.T`` for the layer input and
``g * mask`` through a ReLU. Gradients reaching a parameter shared by two
nodes (one extractor applied to two views) meet in ``tensor.backward`` in the
same order as the composed tape's, so logits and every parameter gradient are
bitwise those of the composed form; tests/test_models.py holds the node to
that form (kept in tests/oracles.py). The rule skips ``g @ W.T`` for an input
that needs no gradient, and such an input is not a parent of the node.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, ContractViolation, ParseError
from .fileio import atomic_write, read_text
from .schema import Classes, Count, Natural, check_fields, parse, to_plain
from .tensor import Tensor, _result

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    input_dim: Count
    hidden_dims: tuple[int, ...]
    feature_dim: Count
    num_classes: Classes
    activation: Literal["relu"] = "relu"
    init_seed: Natural = 0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ContractViolation(f"hidden dims must be positive, got {self.hidden_dims}")

    def param_shapes(self):
        """(name, shape) of every parameter, in checkpoint order: the extractor's
        layers (input -> hiddens -> feature), then ``head1`` and ``head2``; each
        layer is a weight ``[fan_in, fan_out]`` and then its bias ``[fan_out]``.
        """
        sizes = (self.input_dim,) + self.hidden_dims + (self.feature_dim,)
        layers = [(f"extractor.{i}", *dims) for i, dims in enumerate(zip(sizes, sizes[1:]))]
        layers += [(head, self.feature_dim, self.num_classes) for head in ("head1", "head2")]
        shapes = []
        for layer, fan_in, fan_out in layers:
            shapes += [(f"{layer}.weight", (fan_in, fan_out)), (f"{layer}.bias", (fan_out,))]
        return shapes


class ModelBundle:
    """Two-head MLP: one shared extractor and two classifier heads.

    ``params`` maps each name of ``spec.param_shapes()``, in that order, to a
    Tensor with requires_grad set. ``extractor`` / ``head1`` / ``head2`` are
    lists of (weight, bias) pairs of those same Tensors, as the forward
    passes read them.
    """

    def __init__(self, spec, params):
        self.spec = spec
        self.params = params
        tensors = list(params.values())
        layers = list(zip(tensors[0::2], tensors[1::2]))
        self.extractor, self.head1, self.head2 = layers[:-2], layers[-2:-1], layers[-1:]

    def named_params(self, side="target"):
        """(name, Tensor) pairs in checkpoint order. ``side`` may only be "target"."""
        if side != "target":
            raise ContractViolation(f"unknown side {side!r}")
        return list(self.params.items())


def build(spec: MlpSpec) -> ModelBundle:
    """Fresh bundle: Kaiming-uniform weights drawn in layout order, zero biases.

    Both heads start as copies of one draw, made after the extractor's.
    """
    rng = np.random.default_rng(spec.init_seed)
    params = {}
    for name, shape in spec.param_shapes():
        if name.endswith(".bias"):
            params[name] = np.zeros(shape)
        elif name == "head2.weight":
            params[name] = params["head1.weight"]
        else:
            bound = np.sqrt(6.0 / shape[0])  # Kaiming uniform over fan_in
            params[name] = rng.uniform(-bound, bound, size=shape)
    return bundle_from_params(spec, params)


def bundle_from_params(spec, params: dict) -> ModelBundle:
    """Bundle holding copies of named arrays, checked against ``spec.param_shapes()``."""
    layout = spec.param_shapes()
    names = {name for name, _ in layout}
    if set(params) != names:
        raise ContractViolation(f"parameter names do not match spec "
                                f"(missing {sorted(names - set(params))}, "
                                f"unexpected {sorted(set(params) - names)})")
    tensors = {}
    for name, shape in layout:
        got = np.asarray(params[name], dtype=np.float64)
        if got.shape != shape:
            raise ContractViolation(f"{name}: expected shape {shape}, got {got.shape}")
        tensors[name] = Tensor(got.copy(), requires_grad=True)
    return ModelBundle(spec, tensors)


def clone_for_adaptation(bundle: ModelBundle) -> ModelBundle:
    """New bundle with its own copies of `bundle`'s parameters."""
    return bundle_from_params(bundle.spec, {name: t.data for name, t in bundle.named_params()})


# -- forward passes -------------------------------------------------------------


def _check_rows(x, dim, who):
    if not isinstance(x, Tensor):
        x = Tensor(x)
    shape = x.data.shape
    if len(shape) != 2 or shape[1] != dim:
        raise ContractViolation(f"{who} must be [n, {dim}], got shape {shape}")
    return x


def _stack_forward(a, layers):
    """Affine layers with a ReLU between consecutive ones, on plain arrays.

    Returns the output, each layer's input and each ReLU's mask.
    """
    inputs, masks = [], []
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        inputs.append(a)
        a = a @ w.data
        a = a + b.data[None, :]
        if i < last:
            mask = a > 0.0  # subgradient at exactly 0 is 0
            masks.append(mask)
            a = np.where(mask, a, 0.0)
    return a, inputs, masks


def _layer_stack(x, layers):
    """One tape node over `_stack_forward`."""
    out, inputs, masks = _stack_forward(x.data, layers)
    params = []
    for w, b in layers:
        params += (w, b)
    last = len(layers) - 1
    input_grad = x.requires_grad
    if input_grad:
        params.append(x)

    def backward(g):
        grads = []
        for i in range(last, -1, -1):
            w, b = layers[i]
            grads += [(w, inputs[i].T @ g), (b, g.sum(axis=0))]
            if i > 0:
                g = (g @ w.data.T) * masks[i - 1]
            elif input_grad:
                grads.append((x, g @ w.data.T))
        return grads

    return _result(out, params, backward)


def forward_features(bundle, x):
    """Extractor output for inputs of shape [n, input_dim]."""
    return _layer_stack(_check_rows(x, bundle.spec.input_dim, "input"), bundle.extractor)


def forward_head(bundle, feats, branch):
    """Logits of head `branch` (1 or 2) on extractor features."""
    if branch not in (1, 2):
        raise ContractViolation(f"branch must be 1 or 2, got {branch!r}")
    feats = _check_rows(feats, bundle.spec.feature_dim, "features")
    return _layer_stack(feats, bundle.head1 if branch == 1 else bundle.head2)


def forward_target(bundle, x):
    """Logits of both heads from one shared extractor pass."""
    feats = forward_features(bundle, x)
    return forward_head(bundle, feats, 1), forward_head(bundle, feats, 2)


def plain_features(bundle, x):
    """`forward_features` as a plain array, recording no tape node.

    For the passes nothing differentiates (a frozen model, constant features,
    evaluation). The arithmetic, and so every bit, is `forward_features`'.
    """
    x = _check_rows(x, bundle.spec.input_dim, "input")
    return _stack_forward(x.data, bundle.extractor)[0]


def plain_head(bundle, feats, branch):
    """`forward_head` as a plain array, recording no tape node."""
    if branch not in (1, 2):
        raise ContractViolation(f"branch must be 1 or 2, got {branch!r}")
    feats = _check_rows(feats, bundle.spec.feature_dim, "features")
    return _stack_forward(feats.data, bundle.head1 if branch == 1 else bundle.head2)[0]


# -- parameter access -----------------------------------------------------------


def trainable_params(bundle, scope):
    """The Tensors that `scope` trains, in checkpoint order."""
    if scope == "all_target":
        return list(bundle.params.values())
    if scope == "classifiers_only":
        return [t for name, t in bundle.params.items() if not name.startswith("extractor.")]
    raise ContractViolation(f"unknown scope {scope!r}")


def params_fingerprint(tensors):
    """sha256 over the raw little-endian bytes of every array, in order."""
    h = hashlib.sha256()
    for t in tensors:
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


# -- checkpoints ------------------------------------------------------------------


def save_checkpoint(bundle: ModelBundle, path):
    """Write `bundle` to `path` atomically (`fileio.atomic_write`).

    Refuses a NaN or infinite parameter before touching the filesystem, since
    ``load_checkpoint`` would refuse the file.
    """
    named = dict(bundle.named_params("target"))
    for name, t in named.items():
        if not np.isfinite(t.data).all():
            raise ContractViolation(f"cannot save parameter {name!r}: it has a non-finite value")
    # the bytes of json.dumps(doc, sort_keys=True), one parameter at a time: the C
    # encoder holds a string per token, so encoding the whole document at once
    # would hold every parameter's tokens together
    with atomic_write(path) as f:
        f.write(f'{{"format_version": {CHECKPOINT_FORMAT_VERSION}, "params": {{')
        for i, name in enumerate(sorted(named)):
            data = named[name].data
            entry = {"data": data.reshape(-1).tolist(), "shape": list(data.shape)}
            f.write(f'{", " if i else ""}{json.dumps(name)}: {json.dumps(entry)}')
        f.write(f'}}, "spec": {json.dumps(to_plain(bundle.spec), sort_keys=True)}}}\n')


def _entry_array(path, name, entry, shape):
    """One checkpoint entry's data as a float64 array of its layout `shape`."""
    # `==` alone would let a float (2.0) or a bool (true for 1) stand for a size
    if not isinstance(entry, dict) or entry.get("shape") != list(shape) \
            or set(map(type, entry["shape"])) != {int}:
        raise ParseError(f"{path}: bad parameter {name!r} (expected an object with "
                         f"shape {list(shape)})")
    unknown = sorted(set(entry) - {"shape", "data"})
    if unknown:
        raise ParseError(f"{path}: bad parameter {name!r} (unknown key {unknown[0]!r})")
    data = entry.get("data")
    # one pass over the list; a bool is not a number, and np.array would cast it
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise ParseError(f"{path}: bad parameter {name!r} (data must be a flat list of numbers)")
    try:
        arr = np.array(data, dtype=np.float64).reshape(shape)
    except (OverflowError, ValueError) as e:
        raise ParseError(f"{path}: bad parameter {name!r} ({e})") from e
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: parameter {name!r} has a non-finite value")
    return arr


def load_checkpoint(path, expect_spec: MlpSpec | None = None) -> ModelBundle:
    try:
        doc = json.loads(read_text(path, "checkpoint"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not a valid checkpoint ({e})") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: checkpoint root must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format_version {version!r}")
    unknown = sorted(set(doc) - {"format_version", "spec", "params"})
    if unknown:
        raise ParseError(f"{path}: unknown key {unknown[0]!r}")
    for key in ("spec", "params"):
        if key not in doc:
            raise ParseError(f"{path}: missing {key!r}")
    try:
        spec = parse(MlpSpec, doc["spec"], "spec")
    except ConfigError as e:
        raise ParseError(f"{path}: {e}") from e
    if "init_seed" not in doc["spec"]:  # save_checkpoint always records the draw's seed
        raise ParseError(f"{path}: spec.init_seed: missing required key")
    if expect_spec is not None and spec != expect_spec:
        raise ContractViolation(
            f"checkpoint spec {spec} does not match expected spec {expect_spec}")
    if not isinstance(doc["params"], dict):
        raise ParseError(f"{path}: params must be an object")
    layout = dict(spec.param_shapes())
    # a name outside the layout keeps its raw entry: bundle_from_params refuses it
    params = {name: _entry_array(path, name, entry, layout[name]) if name in layout else entry
              for name, entry in doc["params"].items()}
    try:
        return bundle_from_params(spec, params)
    except ContractViolation as e:
        raise ParseError(f"{path}: {e}") from e
