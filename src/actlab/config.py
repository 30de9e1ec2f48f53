"""Experiment configs: strict JSON parsing, canonical form, content hash.

The dataclasses are the schema: ``ExperimentConfig`` and the config classes
it nests declare every key, its type and its default once, and
``schema.parse`` derives the parser from them. Parsing is closed-world: every
key must be known, every value well-typed, and any complaint carries the full
dotted path of the offending field. Omitted optional keys take the dataclass
defaults, so a config hash covers the complete effective configuration, not
just what the file spelled out.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .data import AugmentPolicy, DomainSpec
from .errors import ContractViolation, ParseError
from .models import MlpSpec
from .pipeline import AdaptConfig, PretrainConfig
from .schema import parse, to_plain

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


# -- public surface -----------------------------------------------------------------


def parse_config(doc: dict) -> ExperimentConfig:
    return parse(ExperimentConfig, doc)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"config {path} is not valid JSON: {e}") from e
    return parse_config(doc)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical JSON-ready document with every default made explicit."""
    return to_plain(cfg)


def config_hash(cfg: ExperimentConfig) -> str:
    doc = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()
