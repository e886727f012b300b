"""Training configuration with reproducibility helpers."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigurationError


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The values each field annotation admits; an int is a valid float.
_ADMITS = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
    "dict[str, int]": lambda v: isinstance(v, dict)
    and all(isinstance(k, str) and _is_int(c) for k, c in v.items()),
}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 300
    heads: int = 4
    embed_dim: int = 128
    ffn_dim: int = 64
    encoder_depth: int = 1
    sinkhorn_epsilon: float = 0.1
    sinkhorn_max_iter: int = 200
    sinkhorn_tol: float = 1e-6
    lambda_cc: float = 1.0
    seed: int = 0
    tokens_per_modality: int = 2
    head_hidden1: int = 128
    head_hidden2: int = 64
    rescale_transport: bool = True
    dataset_level_correlation: bool = False
    modality_channels: dict[str, int] = field(default_factory=dict)

    def validate(self) -> "TrainConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if not _ADMITS[f.type](value):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        positives = (
            ("learning_rate", self.learning_rate),
            ("batch_size", self.batch_size),
            ("heads", self.heads),
            ("embed_dim", self.embed_dim),
            ("ffn_dim", self.ffn_dim),
            ("encoder_depth", self.encoder_depth),
            ("sinkhorn_epsilon", self.sinkhorn_epsilon),
            ("sinkhorn_max_iter", self.sinkhorn_max_iter),
            ("sinkhorn_tol", self.sinkhorn_tol),
            ("tokens_per_modality", self.tokens_per_modality),
            ("head_hidden1", self.head_hidden1),
            ("head_hidden2", self.head_hidden2),
        )
        for name, value in positives:
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.lambda_cc < 0:
            raise ConfigurationError(f"lambda_cc must be >= 0, got {self.lambda_cc}")
        if self.embed_dim % self.heads != 0:
            raise ConfigurationError(
                f"heads ({self.heads}) must divide embed_dim ({self.embed_dim})"
            )
        for name, channels in self.modality_channels.items():
            if channels <= 0:
                raise ConfigurationError(
                    f"modality_channels[{name!r}] must be positive, got {channels}"
                )
        return self

    def channels_for(self, modality: str) -> int:
        return int(self.modality_channels.get(modality, 1))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc).validate()

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs).validate()

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
