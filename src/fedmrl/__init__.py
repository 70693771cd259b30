"""Federated learning with heterogeneous client models and nested dual-granularity heads.

A desk-scale, numpy-only simulator.  Clients hold a private model, a
projector, and a working copy of a shared small model; every local step
fuses the two representations and trains both prediction granularities
at once, while only the shared model is ever communicated.
"""

from .config import ConfigError, ExperimentConfig, load_config, parse_config_text
from .core import (
    InferenceVariant,
    LearningRates,
    LossWeights,
    Mode,
    Projector,
    TheoryConstants,
    forward_loss,
    infer,
    lr_bound,
    train_step,
)
from .data import (
    ClassCountSpec,
    DirichletSpec,
    LabeledDataset,
    PartitionPlan,
    gen_synthetic,
    load_csv,
    partition_class_count,
    partition_dirichlet,
    save_csv,
    split_train_test,
)
from .experiment import run_experiment
from .federation import RunConfig, run_training
from .metrics import RoundReport, export_reports, load_reports_json
from .models import Extractor, Header, ModelConfig, Net, init_model, load_model, save_model
from .numerics import derive_rng, make_rng

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "InferenceVariant",
    "LearningRates",
    "LossWeights",
    "Mode",
    "Projector",
    "TheoryConstants",
    "forward_loss",
    "infer",
    "lr_bound",
    "train_step",
    "ClassCountSpec",
    "DirichletSpec",
    "LabeledDataset",
    "PartitionPlan",
    "gen_synthetic",
    "load_csv",
    "partition_class_count",
    "partition_dirichlet",
    "save_csv",
    "split_train_test",
    "run_experiment",
    "RunConfig",
    "run_training",
    "RoundReport",
    "export_reports",
    "load_reports_json",
    "Extractor",
    "Header",
    "ModelConfig",
    "Net",
    "init_model",
    "load_model",
    "save_model",
    "derive_rng",
    "make_rng",
    "__version__",
]
