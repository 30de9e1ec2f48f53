"""Synthetic domain pairs, few-shot splits, augmentation, batching, export.

A domain pair is two draws from the same generator family; the target draw is
passed through a fixed shift (rotate in the first two dims, translate, add
Gaussian noise, in that order). All randomness flows through named child
streams of one seed so that data, split, augmentation and batch order never
share a stream.

Augmentation is two steps. ``_augment_draws`` takes every draw of one view
from the generator in the order a row-at-a-time loop takes it, writing the
draws into [n, d] buffers; ``_augment_apply`` then applies jitter, flips,
scales and drops elementwise, once over any leading axes of batches, and over
every lockstep cell of [n, S, d] rows, which share each row's draws.
``augment_batch`` is the two on one batch; adaptation draws the rows of a
block of batches in order and applies them once per block. The strong tier
decodes its op kinds and uniforms from raw PCG64 words, bit for bit, so
augmentation refuses a generator that is not PCG64, as every ``rng_stream`` is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Literal, get_args

import numpy as np

from .errors import ContractViolation, ParseError
from .fileio import atomic_write, read_text
from .schema import (Bound, Classes, Count, Natural, NonNegative, Probability, check_fields,
                     checked)

# blob geometry: class means equally spaced on this circle in the first two dims
BLOB_RADIUS = 2.5
BLOB_STD = 0.6

Purpose = Literal["source", "target", "split", "augment", "batch"]
_STREAMS = {purpose: i for i, purpose in enumerate(get_args(Purpose))}
Tier = Literal["weak", "strong"]


@checked
def rng_stream(seed: Natural, purpose: Purpose, index: Natural | None = None):
    """Independent, reproducible child generator for one purpose."""
    key = (_STREAMS[purpose],) if index is None else (_STREAMS[purpose], int(index))
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


@dataclass(frozen=True)
class ShiftSpec:
    rotation_deg: float = 0.0
    translation: tuple[float, ...] = ()
    noise_sigma: NonNegative = 0.0

    __post_init__ = check_fields


@dataclass(frozen=True)
class DomainSpec:
    generator: Literal["gaussian_blobs", "two_moons"]
    dim: Annotated[int, Bound(2)]  # shifts rotate the first two dims
    num_classes: Classes
    samples_per_class: tuple[Count, ...]
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    label_space_mode: Literal["closed_set", "partial_set"] = "closed_set"
    target_classes: tuple[Natural, ...] | None = None
    seed: Natural = 0

    def __post_init__(self):
        check_fields(self)
        if self.generator == "two_moons" and (self.num_classes != 2 or self.dim != 2):
            raise ContractViolation("two_moons is a 2-class, 2-dim generator")
        if len(self.samples_per_class) != self.num_classes:
            raise ContractViolation(
                f"samples_per_class has {len(self.samples_per_class)} entries "
                f"for {self.num_classes} classes")
        if self.shift.translation and len(self.shift.translation) != self.dim:
            raise ContractViolation(
                f"translation has {len(self.shift.translation)} entries for dim {self.dim}")
        if self.label_space_mode == "closed_set":
            if self.target_classes is not None:
                raise ContractViolation("target_classes only applies to partial_set mode")
        elif not self.target_classes:
            raise ContractViolation("partial_set mode needs target_classes")
        else:
            tc = tuple(sorted(self.target_classes))
            object.__setattr__(self, "target_classes", tc)
            if len(set(tc)) != len(tc) or tc[-1] >= self.num_classes:
                raise ContractViolation(f"target_classes {tc} not a subset of "
                                        f"[0, {self.num_classes})")
            if len(tc) == self.num_classes:
                raise ContractViolation("partial_set target_classes must be a proper subset")


@dataclass
class LabeledSet:
    xs: np.ndarray
    ys: np.ndarray
    num_classes: Classes
    name: str

    def __post_init__(self):
        check_fields(self)
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.int64)
        if self.xs.ndim != 2 or self.ys.ndim != 1 or len(self.xs) != len(self.ys):
            raise ContractViolation(f"bad labeled set shapes {self.xs.shape} / {self.ys.shape}")
        if len(self.ys) and (self.ys.min() < 0 or self.ys.max() >= self.num_classes):
            raise ContractViolation(f"labels outside [0, {self.num_classes})")
        finite = np.isfinite(self.xs).all(axis=1)
        if not finite.all():
            raise ContractViolation(f"set {self.name!r}: row {int(np.argmin(finite))} has a "
                                    f"NaN or infinite feature")

    def __len__(self):
        return len(self.ys)

    def class_counts(self):
        return np.bincount(self.ys, minlength=self.num_classes)


@dataclass
class SupportSplit:
    support: LabeledSet
    test: LabeledSet
    n_way: int
    k_shot: int
    seed: int


# -- generators -------------------------------------------------------------------


def _blob_mean(c, num_classes, dim):
    angle = 2.0 * np.pi * c / num_classes
    mean = np.zeros(dim)
    mean[0] = BLOB_RADIUS * np.cos(angle)
    mean[1] = BLOB_RADIUS * np.sin(angle)
    return mean


def _draw_class(rng, spec, c, n):
    if spec.generator == "gaussian_blobs":
        return _blob_mean(c, spec.num_classes, spec.dim) + rng.normal(0.0, BLOB_STD, (n, spec.dim))
    # two interleaved half-circles, the classic pair
    t = rng.uniform(0.0, np.pi, n)
    if c == 0:
        return np.column_stack([np.cos(t), np.sin(t)])
    return np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])


def _draw_domain(rng, spec, classes, name):
    xs, ys = [], []
    for c in classes:
        n = spec.samples_per_class[c]
        xs.append(_draw_class(rng, spec, c, n))
        ys.append(np.full(n, c, dtype=np.int64))
    return LabeledSet(np.vstack(xs), np.concatenate(ys), spec.num_classes, name)


@checked
def rotation_matrix_2d(degrees: float):
    theta = np.deg2rad(degrees)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _apply_shift(xs, shift: ShiftSpec, rng):
    out = xs.copy()
    if shift.rotation_deg != 0.0:
        out[:, :2] = out[:, :2] @ rotation_matrix_2d(shift.rotation_deg).T
    if shift.translation:
        out = out + np.asarray(shift.translation)
    noise = rng.normal(0.0, shift.noise_sigma, out.shape)
    return out + noise


def make_domain_pair(spec: DomainSpec):
    """(source, target): independent draws, target passed through the shift."""
    all_classes = list(range(spec.num_classes))
    source = _draw_domain(rng_stream(spec.seed, "source"), spec, all_classes, "source")
    target_classes = list(spec.target_classes) if spec.label_space_mode == "partial_set" \
        else all_classes
    rng_t = rng_stream(spec.seed, "target")
    target = _draw_domain(rng_t, spec, target_classes, "target")
    target.xs = _apply_shift(target.xs, spec.shift, rng_t)
    return source, target


# -- few-shot split ----------------------------------------------------------------


@checked
def sample_support(target: LabeledSet, n_way: Count, k_shot: Count,
                   seed: Natural) -> SupportSplit:
    """Uniform without-replacement support draw; everything else is the test set,
    which must keep at least one row."""
    classes = np.unique(target.ys)
    if n_way != len(classes):
        raise ContractViolation(f"n_way is {n_way} but the target set has "
                                f"{len(classes)} classes present")
    rng = rng_stream(seed, "split")
    chosen = []
    for c in classes:
        idx = np.flatnonzero(target.ys == c)
        if idx.size < k_shot:
            raise ContractViolation(f"class {int(c)} has {idx.size} items, "
                                    f"cannot draw K={k_shot}")
        chosen.append(np.sort(rng.choice(idx, size=k_shot, replace=False)))
    support_idx = np.concatenate(chosen)
    if support_idx.size == len(target):
        raise ContractViolation(f"K={k_shot} takes every row of each class into the support, "
                                "which leaves no test rows")
    mask = np.zeros(len(target), dtype=bool)
    mask[support_idx] = True
    support = LabeledSet(target.xs[support_idx], target.ys[support_idx],
                         target.num_classes, f"{target.name}-support")
    test = LabeledSet(target.xs[~mask], target.ys[~mask],
                      target.num_classes, f"{target.name}-test")
    return SupportSplit(support, test, n_way, k_shot, seed)


# -- augmentation -----------------------------------------------------------------


@dataclass(frozen=True)
class WeakTier:
    jitter_sigma: NonNegative = 0.05
    flip_axis_prob: Probability = 0.0

    __post_init__ = check_fields


@dataclass(frozen=True)
class StrongTier:
    jitter_sigma: NonNegative = 0.15
    scale_range: tuple[float, ...] = (0.8, 1.2)
    feature_drop_prob: Probability = 0.1
    num_ops: Natural = 2

    def __post_init__(self):
        check_fields(self)
        if len(self.scale_range) != 2 or self.scale_range[0] > self.scale_range[1]:
            raise ContractViolation(f"scale_range must be (lo, hi) with lo <= hi, "
                                    f"got {self.scale_range}")


@dataclass(frozen=True)
class AugmentPolicy:
    weak: WeakTier = field(default_factory=WeakTier)
    strong: StrongTier = field(default_factory=StrongTier)

    def __post_init__(self):
        check_fields(self)
        if self.strong.jitter_sigma < self.weak.jitter_sigma:
            raise ContractViolation("strong jitter must be at least the weak jitter")


@checked
def augment(x, policy: AugmentPolicy, tier: Tier, rng) -> np.ndarray:
    """One augmented view of one feature vector (or of S cells' rows [S, d], which
    share its draws). Consumes only `rng`."""
    return augment_batch(np.asarray(x, dtype=np.float64)[None], policy, tier, rng)[0]


@checked
def augment_batch(xs, policy: AugmentPolicy, tier: Tier, rng):
    """`augment` of each row of `xs`, in order: the same draws from `rng`, row by row.

    `xs` is [n, d], or [n, S, d] for S cells in lockstep: row i of every cell
    then takes row i's draws, so each cell's [n, d] slice is what it alone gets.
    This is ``_augment_apply`` of ``_augment_draws``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim not in (2, 3):
        raise ContractViolation(f"augment takes vectors, got rows of shape {xs.shape[1:]}")
    return _augment_apply(xs, _augment_draws(len(xs), xs.shape[-1], policy, tier, rng),
                          policy, tier)


def _augment_draws(n, d, policy, tier, rng):
    """The draws of one `tier` view of n rows of d features, in a row-at-a-time order.

    Row by row: the jitter's standard normals, then the weak tier's flip draw
    and axis, or each strong op's kind and its [d] uniforms (the scale's or the
    drop's). Returns arrays with a leading row axis: the normals z [n, d], then
    the weak tier's flip mask [n, d], or the strong tier's scale mask
    [n, ops, 1] (op k on row i: scale, else drop) and uniforms u [n, ops, d].

    The strong tier makes two calls per row: ``standard_normal(out=row)``,
    whose word use depends on its values, and one ``random_raw`` for the
    row's op words, decoded once per batch as PCG64 hands them out. An op's
    words are its kind's fresh word, taken only when no 32-bit half is held,
    then its d uniform words, each ``random()``'s ``(w >> 11) * 2**-53``.
    ``integers(2)`` is the top bit of the next half: the held one, else a
    fresh word's low half, whose high half is then held. On exit the held
    half is set as those calls would leave it. `rng` must be PCG64-backed.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ContractViolation(f"augmentation decodes PCG64 words, got a "
                                f"{type(bits).__name__} generator")
    normal = rng.standard_normal
    z = np.empty((n, d))
    if tier == "weak":
        random, integers = rng.random, rng.integers
        flip = np.zeros((n, d), dtype=bool)
        for row, flips in zip(z, flip):
            normal(out=row)
            if random() < policy.weak.flip_axis_prob:
                flips[integers(d)] = True
        return z, flip
    ops, state = policy.strong.num_ops, bits.state
    held = state["has_uint32"]
    # kind j draws a fresh word exactly when no 32-bit half is held
    fresh = (np.arange(held, held + n * ops).reshape(n, ops) & 1) == 0
    words = []
    for row, k in zip(z, (np.add.reduce(fresh, axis=1) + ops * d).tolist()):
        normal(out=row)
        words.append(bits.random_raw(k))
    # each (row, op) block of words: the kind's fresh word, if any, then d uniform words
    taken = fresh[..., None] | (np.arange(d + 1) > 0)  # [n, ops, d + 1]
    block = np.empty(taken.shape, np.uint64)
    block[taken] = np.frombuffer(b"".join(words), np.uint64)
    kind_words = block[..., 0][fresh]
    halves = np.empty(held + 2 * len(kind_words), "<u4")  # in hand-out order
    halves[:held] = state["uinteger"]
    halves[held:] = kind_words.astype("<u8").view("<u4")  # low half first
    state = bits.state
    state["has_uint32"] = len(halves) - n * ops
    if len(kind_words):
        state["uinteger"] = int(kind_words[-1] >> 32)
    bits.state = state
    scale = (halves[:n * ops] < 1 << 31).reshape(n, ops, 1)  # kind 0: bit 31 is clear
    return z, scale, (block[..., 1:] >> 11) * 2.0 ** -53


def _augment_apply(xs, draws, policy, tier):
    """Rows xs [..., n, (S,) d] augmented with `_augment_draws`' draws, [..., n, ...] each.

    Any leading axes are carried through, and a cell axis S shares its row's
    draws. Every operation is elementwise, as ``normal`` and ``uniform`` form
    a draw: jitter 0 + sigma * z, flips, scale lo + (hi - lo) * u, drops; so
    each row gets the bits it gets alone.
    """
    z = draws[0]
    cells = (..., slice(None), None, slice(None)) if xs.ndim > z.ndim else (...,)
    t = policy.weak if tier == "weak" else policy.strong
    out = xs + (t.jitter_sigma * z + 0.0)[cells]
    if tier == "weak":
        return np.where(draws[1][cells], -out, out)
    _, scales, u = draws
    lo, hi = t.scale_range
    for k in range(t.num_ops):
        scale, draw = scales[..., k, :], u[..., k, :]
        factor = np.where(scale, lo + (hi - lo) * draw, 1.0)
        drop = ~scale & (draw < t.feature_drop_prob)
        out = np.where(drop[cells], 0.0, out * factor[cells])
    return out


# -- batching ---------------------------------------------------------------------


@checked
def batches(labeled_set: LabeledSet, batch_size: Count, shuffle_seed: Natural, epoch: Natural):
    """Index batches for one epoch: a fresh permutation, short tail retained."""
    n = len(labeled_set)
    # the undecorated stream: both seeds are checked above
    perm = rng_stream.__wrapped__(shuffle_seed, "batch", index=epoch).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


# -- delimited text export ----------------------------------------------------------


def save_labeled_set(ls: LabeledSet, path):
    # ',' splits the header, and load_labeled_set's splitlines() breaks a line at each of these
    if any(c in ls.name for c in ",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
        raise ContractViolation(f"set name {ls.name!r} cannot contain ',' or a line break")
    try:
        ls.name.encode("utf-8")
    except UnicodeEncodeError as e:
        raise ContractViolation(f"set name {ls.name!r} cannot be written as UTF-8: {e}") from e
    with atomic_write(path) as f:
        f.write(f"{ls.xs.shape[1]},{ls.num_classes},{ls.name}\n")
        row_format = ",".join(["%.17g"] * ls.xs.shape[1]) + ",%d\n"  # one % per row
        for row, y in zip(ls.xs.tolist(), ls.ys.tolist()):
            f.write(row_format % (*row, y))


def load_labeled_set(path) -> LabeledSet:
    lines = read_text(path, "dataset").splitlines()
    if not lines:
        raise ParseError(f"{path}: empty dataset file")
    head = lines[0].split(",")
    if len(head) != 3:
        raise ParseError(f"{path}: header must be dim,num_classes,name")
    try:
        dim, num_classes = int(head[0]), int(head[1])
    except ValueError as e:
        raise ParseError(f"{path}: bad header ({e})") from e
    if dim < 1:
        raise ParseError(f"{path}: header dim must be >= 1, got {dim}")
    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ParseError(f"{path}:{lineno}: expected {dim + 1} columns, got {len(cells)}")
        try:
            xs.append([float(v) for v in cells[:-1]])
            ys.append(int(cells[-1]))
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from e
    try:
        return LabeledSet(np.array(xs, dtype=np.float64).reshape(len(xs), dim),
                          np.array(ys, dtype=np.int64), num_classes, head[2])
    except ContractViolation as e:
        raise ParseError(f"{path}: {e}") from e
