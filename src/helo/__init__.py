"""Multi-modal emotion distribution learning with transport-based fusion."""

from .config import TrainConfig
from .data import (
    DMER_SCHEMA,
    WESAD_SCHEMA,
    DatasetSchema,
    Sample,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .metrics import MetricVector, average_rank, evaluate_set, metric_vector
from .model import AblationSpec, Model
from .training import evaluate_model, train
from .transport import TransportPlan, sinkhorn

__version__ = "0.1.0"

__all__ = [
    "AblationSpec",
    "DatasetSchema",
    "DMER_SCHEMA",
    "MetricVector",
    "Model",
    "Sample",
    "TrainConfig",
    "TransportPlan",
    "WESAD_SCHEMA",
    "__version__",
    "average_rank",
    "evaluate_model",
    "evaluate_set",
    "generate_synthetic",
    "load_dataset",
    "metric_vector",
    "save_dataset",
    "sinkhorn",
    "train",
]
