"""Desk-scale lab for source-free few-shot adaptation of a two-head MLP.

The pieces, bottom to top: a small reverse-mode tensor core (`tensor`), the
two-head model and its checkpoints (`models`), the adaptation losses
(`losses`), SAM-wrapped optimizers and the polynomial schedule (`optim`),
synthetic domain pairs and augmentation (`data`), the pretrain/adapt/eval
pipeline (`pipeline`), strict experiment configs (`config`), and a CLI
(`cli`, installed as `actlab`).
"""

from .config import (ExperimentConfig, config_hash, config_to_dict, load_config,
                     parse_config)
from .data import (AugmentPolicy, DomainSpec, LabeledSet, ShiftSpec, StrongTier,
                   SupportSplit, WeakTier, augment, augment_batch, batches,
                   load_labeled_set, make_domain_pair, rng_stream,
                   sample_support, save_labeled_set)
from .errors import ConfigError, ContractViolation, DivergenceError, ParseError
from .losses import (BatchTargets, LossWeights, SmoothingParams, batch_targets,
                     cdd_batch, cdd_pair, cond_entropy, lsce, rce, step1_objective,
                     step2_objective)
from .models import (MlpSpec, ModelBundle, build, bundle_from_params,
                     clone_for_adaptation, forward_target, load_checkpoint,
                     params_fingerprint, save_checkpoint, trainable_params)
from .optim import (AdamConfig, AdamState, SamConfig, SamState, SgdConfig,
                    SgdState, adam_step, lr_at, sam_step, sgd_step)
from .pipeline import (AdaptConfig, EvalResult, PretrainConfig, RunReport,
                       ScheduleConfig, StepRecord, SweepCell, SweepReport,
                       adapt, adapt_cells, evaluate, pretrain_source, seed_sweep)
from .tensor import Tensor, backward, zero_grad

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig", "AdamConfig", "AdamState", "AugmentPolicy", "BatchTargets",
    "ConfigError",
    "ContractViolation", "DivergenceError", "DomainSpec", "EvalResult",
    "ExperimentConfig", "LabeledSet", "LossWeights", "MlpSpec",
    "ModelBundle", "ParseError", "PretrainConfig", "RunReport", "SamConfig",
    "SamState", "ScheduleConfig", "SgdConfig", "SgdState", "ShiftSpec",
    "SmoothingParams", "StepRecord", "StrongTier", "SupportSplit", "SweepCell",
    "SweepReport", "Tensor", "WeakTier", "adam_step", "adapt", "adapt_cells", "augment",
    "augment_batch", "backward", "batch_targets", "batches", "build",
    "bundle_from_params",
    "cdd_batch", "cdd_pair", "clone_for_adaptation", "cond_entropy",
    "config_hash", "config_to_dict", "evaluate", "forward_target",
    "load_checkpoint", "load_config",
    "load_labeled_set", "lr_at", "lsce", "make_domain_pair",
    "params_fingerprint", "parse_config", "pretrain_source", "rce",
    "rng_stream", "sam_step", "sample_support", "save_checkpoint",
    "save_labeled_set", "seed_sweep", "sgd_step", "step1_objective",
    "step2_objective", "trainable_params", "zero_grad",
]
