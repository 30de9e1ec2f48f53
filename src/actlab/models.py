"""Small MLPs arranged for bi-classifier adaptation.

A bundle is one network: a feature extractor shared by two classifier heads.
``MlpSpec.param_shapes`` is its one parameter layout (names, shapes, checkpoint
order): ``build`` draws into it, ``bundle_from_params`` checks named arrays
against it, and the training scopes and checkpoints follow it. The bundle's
parameters are one float64 vector in that order (an ``optim.ParamVector``);
each is a read-only reshaped view of it, made once, so only a step, which
writes into the vector, moves them. ``classifiers_only`` trains its tail. A
bundle pickles and copies by rebuilding from its spec and named parameters.
Adaptation trains a clone and reads the caller's untouched bundle as the
frozen source model whose predictions anchor the losses. The forward pass
comes in two pieces, features then one head, so a caller that holds the
extractor fixed can compute its features once. Checkpoints are JSON whose
parameter data is the base64 text of little-endian float64 bytes, so every
value round-trips bit for bit; they are written through a temporary file and
renamed into place, so a crash never leaves a truncated one. A checkpoint's
spec block is read by ``schema.parse`` from ``MlpSpec``'s fields, as strictly
as a config's ``model`` block.

Each piece runs its layer stack (affine layers with a ReLU between consecutive
ones) on plain arrays and records no tape node. Its forward, ``_stack_forward``,
writes each activation once, in place: ``a @ W``, ``+= b``, then the ReLU as
``fmax(a, 0)`` and ``+= 0.0``, bitwise the tape's ``np.where(a > 0, a, 0)``.
It keeps each layer's input only for a caller that runs ``_stack_backward``,
which runs from the last layer down the numpy operations the tape runs over
the same stack composed from ``Tensor.matmul`` / ``add_bias`` / ``relu``:
``g.sum(axis=0)`` for a bias, ``a.T @ g`` for a weight, ``g @ W.T`` for the
layer input (only when asked) and ``g * (a > 0)`` through a ReLU of output a,
which is > 0 exactly where the ReLU's input was. So logits and every
parameter gradient are bitwise those of the composed form; tests/test_models.py
holds the pair to that form (kept in tests/oracles.py). Training chains the
pair by hand: pretraining runs ``head1`` alone (the two heads start as one
draw and get the same gradient every step, so ``head2`` gets ``head1``'s), and
each adaptation step wraps its pass in one tape node
(``pipeline._step_closure``). ``forward_features``, ``forward_head`` and
``forward_target`` are the forward alone, for evaluation and for callers
outside the package; they keep no layer input.

Adaptation runs its two branches as a leading axis of size 2: the extractor
once over [2, (S,) n, d] views (each weight serves both branches), then one
pass of ``head1`` and ``head2`` as one [2, (S,) f, K] layer (``_branch_heads``,
views of a heads' tail: the bundle's ``branch_heads``, made with it), so branch
b's logits are head b's. Its backward gives each head its branch's slice, and the extractor
the sum of the two branch slices, the two-term sum ``tensor.backward`` forms
where two extractor passes meet.

A stacked bundle (``clone_for_adaptation(bundle, cells=S)``) is S models
trained in lockstep: every parameter has a leading cell axis, the vector is an
[S, P] matrix, and the passes take [S, n, d] inputs (a 2-D weight, as of a
frozen source, serves every cell). The same code runs both: ``@`` and the
transpose of the last two axes (``.mT``) stack, a bias adds over
``[..., None, :]`` and its gradient sums over axis -2, so each cell's slice
computes what the cell alone would, bit for bit.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Literal

import numpy as np

from .errors import ConfigError, ContractViolation, ParseError
from .fileio import atomic_write, read_text
from .optim import ParamVector
from .schema import Classes, Count, Natural, check_fields, checked, parse, to_plain

CHECKPOINT_FORMAT_VERSION = 2  # load_checkpoint also reads version 1
# floats per write of save_checkpoint: a multiple of 3, since 3 floats are 24 bytes,
# 32 base64 characters, so each chunk's text joins the next without padding
CHECKPOINT_CHUNK = 3 * 1024


@dataclass(frozen=True)
class MlpSpec:
    input_dim: Count
    hidden_dims: tuple[Count, ...]
    feature_dim: Count
    num_classes: Classes
    activation: Literal["relu"] = "relu"
    init_seed: Natural = 0

    __post_init__ = check_fields

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

    ``vector`` holds a copy of `arrays` (named in ``spec.param_shapes()`` order),
    ``head_vector`` is its heads' tail, and ``params`` maps each name, read-only,
    to its read-only view of ``vector``. ``extractor`` / ``head1`` / ``head2`` are
    tuples of (weight, bias) views, as the forward passes read them, and
    ``branch_heads`` is both heads as one [2, (S,) f, K] layer of views of the
    tail. A ``stacked`` bundle holds S models: each parameter has a cell axis first.
    ``pickle``, ``copy.copy`` and ``copy.deepcopy`` rebuild it from its spec, its
    named parameters and ``stacked``, so the copy owns a vector of its own.
    """

    def __init__(self, spec, arrays, stacked=False):
        self.spec = spec
        self.vector = ParamVector(arrays.values(), stacked=stacked)
        views = self.vector.views
        self.params = MappingProxyType(dict(zip(arrays, views)))
        layers = tuple(zip(views[0::2], views[1::2]))
        self.extractor, self.head1, self.head2 = layers[:-2], layers[-2:-1], layers[-1:]
        # the heads' four parameters end the layout; built once: optimizer state is keyed by it
        self.head_vector = ParamVector(views[-4:], root=self.vector, stacked=stacked)
        self.branch_heads = _branch_heads(self.head_vector.data, spec)

    def __reduce__(self):  # pickle and copy rebuild a bundle with a vector of its own
        return ModelBundle, (self.spec, dict(self.params), self.vector.data.ndim == 2)

    def rate_vector(self):
        """A new float64 vector of a learning rate per entry of ``vector``'s last axis,
        and its heads' tail, a view: fill the vector with the extractor's rate, then the tail."""
        rates = np.empty(self.vector.data.shape[-1])
        return rates, rates[-self.head_vector.data.shape[-1]:]

    @checked
    def named_params(self, side: Literal["target"] = "target"):
        """(name, array view) pairs in checkpoint order. ``side`` may only be "target"."""
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


def _layout_arrays(spec, params):
    """Named arrays `params` as float64 arrays in ``spec.param_shapes()`` order, refused
    unless their names and shapes are the layout's and every value is finite."""
    layout = spec.param_shapes()
    names = {name for name, _ in layout}
    if set(params) != names:
        raise ContractViolation(f"parameter names do not match spec "
                                f"(missing {sorted(names - set(params))}, "
                                f"unexpected {sorted(set(params) - names)})")
    arrays = {name: np.asarray(params[name], dtype=np.float64) for name, _ in layout}
    for name, shape in layout:
        if arrays[name].shape != shape:
            raise ContractViolation(f"{name}: expected shape {shape}, got {arrays[name].shape}")
        if not np.isfinite(arrays[name]).all():
            raise ContractViolation(f"parameter {name!r} has a non-finite value")
    return arrays


def bundle_from_params(spec, params: dict) -> ModelBundle:
    """Bundle holding copies of named arrays, checked against ``spec.param_shapes()``
    and refused if not finite."""
    return ModelBundle(spec, _layout_arrays(spec, params))


@checked
def clone_for_adaptation(bundle: ModelBundle, cells: Count | None = None) -> ModelBundle:
    """New bundle with its own copies of `bundle`'s parameters.

    Given `cells`, a stacked bundle of that many copies: each parameter gains a
    leading cell axis, and the vector is one row per cell.
    """
    if cells is None:
        return bundle_from_params(bundle.spec, bundle.params)
    return ModelBundle(bundle.spec, {name: np.broadcast_to(a, (cells,) + a.shape)  # copied in
                                     for name, a in bundle.params.items()}, stacked=True)


# -- forward passes -------------------------------------------------------------


def _check_rows(x, dim, who):
    """`x` as a float64 array, checked to be finite real numbers, [n, dim] or [S, n, dim]."""
    try:
        a = np.asarray(x)
    except ValueError as e:  # ragged rows
        raise ContractViolation(f"{who} must be an array of real numbers ({e})") from None
    if a.dtype.kind not in "iuf":  # a Tensor, bools, strings, complex numbers
        raise ContractViolation(f"{who} must be an array of real numbers, got "
                                f"{type(x).__name__} of dtype {a.dtype}")
    if a.ndim not in (2, 3) or a.shape[-1] != dim:
        raise ContractViolation(f"{who} must be [n, {dim}] or [S, n, {dim}], got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ContractViolation(f"{who} must be finite, got a NaN or infinite entry")
    return a.astype(np.float64, copy=False)


def _stack_forward(a, layers, keep=True):
    """Affine layers with a ReLU between consecutive ones, on plain arrays.

    Returns the output and, given `keep`, each layer's input (else none: each
    activation is freed once the next is made). Writes only the arrays it makes.
    """
    inputs = []
    for i, (w, b) in enumerate(layers):
        if i:  # the ReLU, bitwise np.where(a > 0, a, 0.0): fmax maps NaN and -inf
            np.fmax(a, 0.0, out=a)  # to 0, and + 0.0 turns -0.0 into +0.0
            a += 0.0
        if keep:
            inputs.append(a)
        a = a @ w
        a += b[..., None, :]
    return a, inputs


def _stack_backward(g, layers, inputs, input_grad=False):
    """Backward of `_stack_forward`, given g = d/d(output) and its inputs; writes neither.

    Returns the gradients of every weight and bias in layer order (w0, b0, w1,
    b1, ...), computed from the last layer down, then, given `input_grad`, the
    input's gradient.
    """
    last = len(layers) - 1
    grads = [None] * (2 * last + 2)
    for i in range(last, -1, -1):
        grads[2 * i] = inputs[i].mT @ g
        grads[2 * i + 1] = np.add.reduce(g, axis=-2)  # g.sum(axis=-2) without its wrapper
        if i > 0:
            g = g @ layers[i][0].mT
            g *= inputs[i] > 0.0  # the ReLU's mask; its subgradient at exactly 0 is 0
    if input_grad:
        grads.append(g @ layers[0][0].mT)
    return grads


def _branch_heads(tail, spec):
    """`head1`'s and `head2`'s layer on a leading branch axis, as `_stack_forward`
    reads it: views of a heads' tail [(S,) 2(fK + K)], head1's weight and bias
    then head2's. The weight is [2, (S,) f, K] and the bias [2, (S,) K]; a
    plain tail given a leading axis of 1 serves S cells' [2, S, n, f] features.
    """
    f, k = spec.feature_dim, spec.num_classes
    rows = np.moveaxis(tail.reshape(tail.shape[:-1] + (2, -1)), -2, 0)  # [2, (S,) fK + K]
    return ((rows[..., :f * k].reshape(rows.shape[:-1] + (f, k)), rows[..., f * k:]),)


def forward_features(bundle, x):
    """Extractor output for inputs of shape [n, input_dim], or [S, n, input_dim]."""
    return _stack_forward(_check_rows(x, bundle.spec.input_dim, "input"), bundle.extractor,
                          keep=False)[0]


@checked
def forward_head(bundle, feats, branch: Literal[1, 2]):
    """Logits of head `branch` (1 or 2) on extractor features."""
    feats = _check_rows(feats, bundle.spec.feature_dim, "features")
    return _stack_forward(feats, bundle.head1 if branch == 1 else bundle.head2, keep=False)[0]


def forward_target(bundle, x):
    """Logits of both heads from one shared extractor pass."""
    feats = forward_features(bundle, x)
    return forward_head(bundle, feats, 1), forward_head(bundle, feats, 2)


# -- parameter access -----------------------------------------------------------


@checked
def trainable_params(bundle, scope: Literal["all_target", "classifiers_only"]):
    """The views of the parameters that `scope` trains, in checkpoint order."""
    return list((bundle.vector if scope == "all_target" else bundle.head_vector).views)


def params_fingerprint(arrays):
    """sha256 over the raw little-endian bytes of every array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# -- checkpoints ------------------------------------------------------------------


def save_checkpoint(bundle: ModelBundle, path):
    """Write `bundle` to `path` atomically (`fileio.atomic_write`), in format version 2.

    The file is one line: the bytes of ``json.dumps(doc, sort_keys=True)`` and a
    newline, where ``doc`` holds ``format_version``, the ``spec`` and, under each
    parameter's name, its ``shape`` and its ``data``, the base64 text of its
    little-endian float64 bytes in row-major order. The text is written
    ``CHECKPOINT_CHUNK`` floats at a time, so a save holds one chunk of it.

    Refuses what ``load_checkpoint`` would refuse, by ``bundle_from_params``' check
    and before touching the filesystem: parameter names or shapes that are not the
    spec's (a stacked bundle's, say), or a NaN or infinite value.
    """
    named = _layout_arrays(bundle.spec, bundle.params)
    with atomic_write(path) as f:
        f.write(f'{{"format_version": {CHECKPOINT_FORMAT_VERSION}, "params": {{')
        for i, name in enumerate(sorted(named)):
            flat = named[name].reshape(-1)
            f.write(f'{", " if i else ""}{json.dumps(name)}: {{"data": "')
            for start in range(0, flat.size, CHECKPOINT_CHUNK):
                chunk = np.ascontiguousarray(flat[start:start + CHECKPOINT_CHUNK], dtype="<f8")
                f.write(base64.b64encode(chunk.tobytes()).decode("ascii"))
            f.write(f'", "shape": {json.dumps(named[name].shape)}}}')
        f.write(f'}}, "spec": {json.dumps(to_plain(bundle.spec), sort_keys=True)}}}\n')


def _entry_array(path, name, entry, shape, version):
    """One checkpoint entry's data, read as format `version` has it, as a float64
    array of its layout `shape`."""
    # `==` alone would let a float (2.0) or a bool (true for 1) stand for a size
    if not isinstance(entry, dict) or entry.get("shape") != list(shape) \
            or set(map(type, entry["shape"])) != {int}:
        raise ParseError(f"{path}: bad parameter {name!r} (expected an object with "
                         f"shape {list(shape)})")
    unknown = sorted(set(entry) - {"shape", "data"})
    if unknown:
        raise ParseError(f"{path}: bad parameter {name!r} (unknown key {unknown[0]!r})")
    data = entry.get("data")
    if version == 1:
        # one pass over the list; a bool is not a number, and np.array would cast it
        if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
            raise ParseError(f"{path}: bad parameter {name!r} "
                             f"(data must be a flat list of numbers)")
        try:  # bundle_from_params refuses a non-finite value
            return np.array(data, dtype=np.float64).reshape(shape)
        except (OverflowError, ValueError) as e:
            raise ParseError(f"{path}: bad parameter {name!r} ({e})") from e
    if not isinstance(data, str):
        raise ParseError(f"{path}: bad parameter {name!r} (data must be base64 text)")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as e:  # binascii.Error, or a character outside ASCII
        raise ParseError(f"{path}: bad parameter {name!r} (data is not base64: {e})") from e
    count = math.prod(shape)
    if len(raw) != 8 * count:
        raise ParseError(f"{path}: bad parameter {name!r} (data holds {len(raw)} bytes, "
                         f"not the {8 * count} of {count} float64 values)")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)  # bundle_from_params copies it


def load_checkpoint(path, expect_spec: MlpSpec | None = None) -> ModelBundle:
    """The bundle saved at `path`, checked against `expect_spec` if one is given.

    Reads format version 2, which ``save_checkpoint`` writes (each parameter's
    ``data`` is base64 text that must decode to exactly 8 bytes per value of its
    shape), and version 1, whose ``data`` is a flat list of numbers. Every
    refusal of the file is a ``ParseError`` that names `path`: text that is not
    JSON, a root that is not an object, a ``format_version`` that is not the
    integer 1 or 2, an unknown or missing key, a spec block that ``schema.parse``
    refuses or that has no ``init_seed``, parameter names that are not the
    spec's, an entry whose stated shape or data is not its layout's (``bad
    parameter '<name>' (...)``), and a NaN or infinite value. A spec other than
    `expect_spec` is a ``ContractViolation``.
    """
    try:
        doc = json.loads(read_text(path, "checkpoint"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not a valid checkpoint ({e})") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: checkpoint root must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, CHECKPOINT_FORMAT_VERSION):
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
    params = {name: _entry_array(path, name, entry, layout[name], version)
              if name in layout else entry for name, entry in doc["params"].items()}
    try:
        return bundle_from_params(spec, params)
    except ContractViolation as e:
        raise ParseError(f"{path}: {e}") from e
