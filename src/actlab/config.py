"""Experiment configs: strict JSON parsing, canonical form, content hash.

Parsing is closed-world: every key must be known, every value well-typed,
and any complaint carries the full dotted path of the offending field.
Omitted optional keys take the dataclass defaults, so a config hash covers
the complete effective configuration, not just what the file spelled out.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field

from .data import AugmentPolicy, DomainSpec, ShiftSpec, StrongTier, WeakTier
from .errors import ConfigError, ContractViolation, ParseError
from .losses import LossWeights, SmoothingParams
from .models import MlpSpec
from .optim import AdamConfig, SamConfig, SgdConfig
from .pipeline import AdaptConfig, PretrainConfig, ScheduleConfig

_RUN_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class ExperimentConfig:
    run_id: str
    output_dir: str
    n_way: int
    k_shot: int
    domain: DomainSpec
    model: MlpSpec
    split_seed: int = 0
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)

    def __post_init__(self):
        if not _RUN_ID.match(self.run_id):
            raise ContractViolation(
                f"run_id {self.run_id!r} must match [A-Za-z0-9][A-Za-z0-9._-]*")
        if not self.output_dir:
            raise ContractViolation("output_dir cannot be empty")
        if self.n_way < 2:
            raise ContractViolation(f"n_way must be >= 2, got {self.n_way}")
        if self.k_shot < 1:
            raise ContractViolation(f"k_shot must be >= 1, got {self.k_shot}")
        if self.split_seed < 0:
            raise ContractViolation(f"split_seed must be >= 0, got {self.split_seed}")
        if self.model.input_dim != self.domain.dim:
            raise ContractViolation(f"model input_dim {self.model.input_dim} != "
                                    f"domain dim {self.domain.dim}")
        if self.model.num_classes != self.domain.num_classes:
            raise ContractViolation(f"model num_classes {self.model.num_classes} != "
                                    f"domain num_classes {self.domain.num_classes}")
        if self.domain.label_space_mode == "partial_set":
            expected = len(self.domain.target_classes)
        else:
            expected = self.domain.num_classes
        if self.n_way != expected:
            raise ContractViolation(f"n_way is {self.n_way} but the target domain "
                                    f"presents {expected} classes")


# -- field parsers -----------------------------------------------------------------


def _fail(path, message):
    raise ConfigError(path or "<root>", message)


def _int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, got {v!r}")
    return v


def _num(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        _fail(path, "number is out of float64 range")
    if not math.isfinite(x):
        _fail(path, f"expected a finite number, got {v!r}")
    return x


def _str(v, path):
    if not isinstance(v, str):
        _fail(path, f"expected a string, got {v!r}")
    return v


def _bool(v, path):
    if not isinstance(v, bool):
        _fail(path, f"expected true/false, got {v!r}")
    return v


def _list_of(item):
    def parse(v, path):
        if not isinstance(v, (list, tuple)):
            _fail(path, f"expected a list, got {v!r}")
        return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))
    return parse


def _optional(item):
    return lambda v, path: None if v is None else item(v, path)


def _struct(fields, required, builder):
    """Closed-world object parser: known keys only, builder defaults for the rest."""
    def parse(v, path):
        if not isinstance(v, dict):
            _fail(path, f"expected an object, got {type(v).__name__}")
        unknown = sorted(set(v) - set(fields))
        if unknown:
            where = f"{path}.{unknown[0]}" if path else unknown[0]
            rest = f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else ""
            _fail(where, f"unknown key{rest}")
        kwargs = {}
        for key, item in fields.items():
            sub = f"{path}.{key}" if path else key
            if key in v:
                kwargs[key] = item(v[key], sub)
            elif key in required:
                _fail(sub, "missing required key")
        try:
            return builder(**kwargs)
        except ContractViolation as e:
            raise ConfigError(path or "<root>", str(e)) from e
    return parse


_parse_shift = _struct(
    {"rotation_deg": _num, "translation": _list_of(_num), "noise_sigma": _num},
    set(), ShiftSpec)

_parse_domain = _struct(
    {"generator": _str, "dim": _int, "num_classes": _int,
     "samples_per_class": _list_of(_int), "shift": _parse_shift,
     "label_space_mode": _str, "target_classes": _optional(_list_of(_int)),
     "seed": _int},
    {"generator", "dim", "num_classes", "samples_per_class"}, DomainSpec)

_parse_model = _struct(
    {"input_dim": _int, "hidden_dims": _list_of(_int), "feature_dim": _int,
     "num_classes": _int, "activation": _str, "init_seed": _int},
    {"input_dim", "hidden_dims", "feature_dim", "num_classes"}, MlpSpec)

_parse_sgd = _struct(
    {"lr": _num, "momentum": _num, "weight_decay": _num}, {"lr"}, SgdConfig)

_parse_pretrain = _struct(
    {"epochs": _int, "batch_size": _int, "sgd": _parse_sgd,
     "lr_multiplier_heads": _num, "alpha_smooth": _num, "seed": _int},
    set(), PretrainConfig)

_parse_weights = _struct(
    {"lambda_lsce": _num, "lambda_e": _num, "lambda_rce": _num, "lambda_cdd": _num},
    set(), LossWeights)

_parse_smoothing = _struct(
    {"alpha_smooth": _num, "eps_log": _num}, set(), SmoothingParams)

_parse_adam = _struct(
    {"lr": _num, "beta1": _num, "beta2": _num, "eps_adam": _num}, set(), AdamConfig)

_parse_sam = _struct({"rho": _num, "base": _parse_adam}, set(), SamConfig)

_parse_schedule = _struct(
    {"eta0": _num, "head_multiplier": _num, "schedule_extractor": _bool,
     "schedule_heads": _bool},
    set(), ScheduleConfig)

_parse_adapt = _struct(
    {"total_iterations": _int, "batch_size": _int, "weights": _parse_weights,
     "smoothing": _parse_smoothing, "sam": _parse_sam, "schedule": _parse_schedule,
     "cdd_sign": _str, "step_pattern": _str, "fresh_batch_per_step": _bool,
     "view_mode": _str, "eval_head": _str, "seed": _int},
    set(), AdaptConfig)

_parse_weak = _struct(
    {"jitter_sigma": _num, "flip_axis_prob": _num}, set(), WeakTier)

_parse_strong = _struct(
    {"jitter_sigma": _num, "scale_range": _list_of(_num),
     "feature_drop_prob": _num, "num_ops": _int},
    set(), StrongTier)

_parse_augment = _struct(
    {"weak": _parse_weak, "strong": _parse_strong}, set(), AugmentPolicy)

_parse_experiment = _struct(
    {"run_id": _str, "output_dir": _str, "n_way": _int, "k_shot": _int,
     "split_seed": _int, "domain": _parse_domain, "model": _parse_model,
     "pretrain": _parse_pretrain, "adapt": _parse_adapt, "augment": _parse_augment},
    {"run_id", "output_dir", "n_way", "k_shot", "domain", "model"},
    ExperimentConfig)


# -- public surface -----------------------------------------------------------------


def parse_config(doc: dict) -> ExperimentConfig:
    return _parse_experiment(doc, "")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"config {path} is not valid JSON: {e}") from e
    return parse_config(doc)


def _plain(v):
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical JSON-ready document with every default made explicit."""
    return _plain(asdict(cfg))


def config_hash(cfg: ExperimentConfig) -> str:
    doc = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()
