"""Synthetic domain pairs, few-shot splits, augmentation, batching, export.

A domain pair is two draws from the same generator family; the target draw is
passed through a fixed shift (rotate in the first two dims, translate, add
Gaussian noise, in that order). All randomness flows through named child
streams of one seed so that data, split, augmentation and batch order never
share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Literal

import numpy as np

from .errors import ContractViolation, ParseError
from .fileio import atomic_write, read_text
from .schema import Bound, Classes, Natural, NonNegative, Probability, check_fields

# blob geometry: class means equally spaced on this circle in the first two dims
BLOB_RADIUS = 2.5
BLOB_STD = 0.6

_STREAMS = {"source": 0, "target": 1, "split": 2, "augment": 3, "batch": 4}


def rng_stream(seed: int, purpose: str, index: int | None = None):
    """Independent, reproducible child generator for one purpose."""
    if purpose not in _STREAMS:
        raise ContractViolation(f"unknown rng purpose {purpose!r}")
    key = (_STREAMS[purpose],) if index is None else (_STREAMS[purpose], int(index))
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


@dataclass(frozen=True)
class ShiftSpec:
    rotation_deg: float = 0.0
    translation: tuple[float, ...] = ()
    noise_sigma: NonNegative = 0.0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "translation", tuple(float(t) for t in self.translation))


@dataclass(frozen=True)
class DomainSpec:
    generator: Literal["gaussian_blobs", "two_moons"]
    dim: Annotated[int, Bound(2)]  # shifts rotate the first two dims
    num_classes: Classes
    samples_per_class: tuple[int, ...]
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    label_space_mode: Literal["closed_set", "partial_set"] = "closed_set"
    target_classes: tuple[int, ...] | None = None
    seed: Natural = 0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "samples_per_class",
                           tuple(int(n) for n in self.samples_per_class))
        if self.generator == "two_moons" and (self.num_classes != 2 or self.dim != 2):
            raise ContractViolation("two_moons is a 2-class, 2-dim generator")
        if len(self.samples_per_class) != self.num_classes:
            raise ContractViolation(
                f"samples_per_class has {len(self.samples_per_class)} entries "
                f"for {self.num_classes} classes")
        if any(n < 1 for n in self.samples_per_class):
            raise ContractViolation("samples_per_class entries must be positive")
        if self.shift.translation and len(self.shift.translation) != self.dim:
            raise ContractViolation(
                f"translation has {len(self.shift.translation)} entries for dim {self.dim}")
        if self.label_space_mode == "closed_set":
            if self.target_classes is not None:
                raise ContractViolation("target_classes only applies to partial_set mode")
        elif not self.target_classes:
            raise ContractViolation("partial_set mode needs target_classes")
        else:
            tc = tuple(sorted(int(c) for c in self.target_classes))
            object.__setattr__(self, "target_classes", tc)
            if len(set(tc)) != len(tc) or any(not 0 <= c < self.num_classes for c in tc):
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


def sample_support(target: LabeledSet, n_way: int, k_shot: int, seed: int) -> SupportSplit:
    """Uniform without-replacement support draw; everything else is the test set."""
    if k_shot < 1:
        raise ContractViolation(f"k_shot must be >= 1, got {k_shot}")
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
        object.__setattr__(self, "scale_range", tuple(float(s) for s in self.scale_range))
        if len(self.scale_range) != 2 or self.scale_range[0] > self.scale_range[1]:
            raise ContractViolation(f"scale_range must be (lo, hi) with lo <= hi, "
                                    f"got {self.scale_range}")


@dataclass(frozen=True)
class AugmentPolicy:
    weak: WeakTier = field(default_factory=WeakTier)
    strong: StrongTier = field(default_factory=StrongTier)

    def __post_init__(self):
        if self.strong.jitter_sigma < self.weak.jitter_sigma:
            raise ContractViolation("strong jitter must be at least the weak jitter")


def augment(x, policy: AugmentPolicy, tier: str, rng) -> np.ndarray:
    """One augmented view of one feature vector. Consumes only `rng`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ContractViolation(f"augment takes one vector, got shape {x.shape}")
    if tier == "weak":
        t = policy.weak
        out = x + rng.normal(0.0, t.jitter_sigma, x.shape)
        if rng.random() < t.flip_axis_prob:
            axis = int(rng.integers(x.size))
            out[axis] = -out[axis]
        return out
    if tier == "strong":
        t = policy.strong
        out = x + rng.normal(0.0, t.jitter_sigma, x.shape)
        for _ in range(t.num_ops):
            if rng.integers(2) == 0:
                out = out * rng.uniform(t.scale_range[0], t.scale_range[1], x.shape)
            else:
                out = np.where(rng.random(x.shape) < t.feature_drop_prob, 0.0, out)
        return out
    raise ContractViolation(f"unknown tier {tier!r}")


def augment_batch(xs, policy, tier, rng):
    return np.stack([augment(x, policy, tier, rng) for x in xs])


# -- batching ---------------------------------------------------------------------


def batches(labeled_set: LabeledSet, batch_size: int, shuffle_seed: int, epoch: int):
    """Index batches for one epoch: a fresh permutation, short tail retained."""
    if batch_size < 1:
        raise ContractViolation(f"batch_size must be >= 1, got {batch_size}")
    if epoch < 0:
        raise ContractViolation(f"epoch must be >= 0, got {epoch}")
    n = len(labeled_set)
    perm = rng_stream(shuffle_seed, "batch", index=epoch).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


# -- delimited text export ----------------------------------------------------------


def save_labeled_set(ls: LabeledSet, path):
    if "," in ls.name or "\n" in ls.name:
        raise ContractViolation(f"set name {ls.name!r} cannot contain ',' or newlines")
    with atomic_write(path) as f:
        f.write(f"{ls.xs.shape[1]},{ls.num_classes},{ls.name}\n")
        for row, y in zip(ls.xs, ls.ys):
            f.write(",".join("%.17g" % v for v in row) + f",{int(y)}\n")


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
