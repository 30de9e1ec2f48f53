"""Experiment configs: strict JSON parsing, canonical form, content hash.

The dataclasses are the schema: ``ExperimentConfig`` and the config classes
it nests declare every key, its type, range and default once, and
``schema.parse`` derives the strict parser from them. Omitted keys take their
defaults, so a config hash covers the complete effective configuration, not
just what the file spelled out.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Annotated

from .data import AugmentPolicy, DomainSpec
from .errors import ContractViolation, ParseError
from .fileio import read_text
from .models import MlpSpec
from .pipeline import AdaptConfig, PretrainConfig
from .schema import Classes, Count, Match, Natural, check_fields, parse, to_plain


@dataclass(frozen=True)
class ExperimentConfig:
    run_id: Annotated[str, Match("[A-Za-z0-9][A-Za-z0-9._-]*")]
    output_dir: Annotated[str, Match(".+")]
    n_way: Classes
    k_shot: Count
    domain: DomainSpec
    model: MlpSpec
    split_seed: Natural = 0
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)

    def __post_init__(self):
        check_fields(self)
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
        doc = json.loads(read_text(path, "config"))
    except json.JSONDecodeError as e:
        raise ParseError(f"config {path} is not valid JSON: {e}") from e
    return parse_config(doc)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical JSON-ready document with every default made explicit."""
    return to_plain(cfg)


def config_hash(cfg: ExperimentConfig) -> str:
    doc = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()
