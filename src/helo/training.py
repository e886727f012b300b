"""Adam optimization, the epoch loop, and run artifacts.

Training is single-threaded over batches with a seeded shuffle so identical
configs produce byte-identical histories and checkpoints.  Evaluation runs
the batched forward pass over chunks of `batch_size` samples; predictions
do not depend on the chunking.

A checkpoint (format version 2) is one JSON document holding the schema
document, the config and its hash, the ablation switches, the split record,
and every parameter and Adam moment as a record of its shape, the base64 of
its little-endian float64 bytes and their sha256.  `_encode_array` writes
each record and `_decode_array` checks it on load; version-1 files are
refused.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .data import (
    Sample,
    labels_matrix,
    load_json_object,
    schema_from_dict,
    schema_to_dict,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    NumericalError,
    SplitError,
    ValidationError,
)
from .labelspace import batch_label_correlation
from .metrics import MetricVector, evaluate_set
from .model import AblationSpec, Model

CHECKPOINT_FORMAT_VERSION = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(model: Model) -> AdamState:
    state = AdamState()
    for name, p in model.params.items():
        state.m[name] = np.zeros_like(p.value)
        state.v[name] = np.zeros_like(p.value)
    return state


def adam_step(params, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update; gradients are left untouched."""
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for name, p in params.items():
        m = state.m[name]
        v = state.v[name]
        if m.shape != p.value.shape or v.shape != p.value.shape:
            raise DimensionError(
                f"adam moment shape drift for {name}: {m.shape} vs {p.value.shape}"
            )
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_model(model: Model, samples: list[Sample], indices) -> MetricVector:
    subset = [samples[i] for i in indices]
    step = model.config.batch_size
    preds: list[np.ndarray] = []
    for start in range(0, len(subset), step):
        chunk = subset[start : start + step]
        preds.extend(model.predict_batch([s.features for s in chunk]))
    return evaluate_set(preds, [s.label for s in subset])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_kld: float
    train_cc: float
    test_metrics: MetricVector


def train(
    model: Model,
    samples: list[Sample],
    train_indices,
    test_indices,
    state: AdamState | None = None,
) -> tuple[list[EpochRecord], AdamState]:
    """Seeded-shuffle minibatch training; history has one record per epoch."""
    cfg = model.config
    train_indices = list(train_indices)
    test_indices = list(test_indices)
    if not train_indices:
        raise SplitError("training split is empty")
    if not test_indices and cfg.epochs > 0:
        raise SplitError(
            "test split is empty; the per-subject ceiling rule kept every "
            "sample in training (add trials or adjust the ratio)"
        )
    if state is None:
        state = init_adam(model)
    shuffle_rng = np.random.default_rng([1, cfg.seed])
    m_gt_full = None
    if model.use_lcdca and cfg.dataset_level_correlation:
        m_gt_full = batch_label_correlation(
            labels_matrix([samples[i] for i in train_indices])
        )
    history: list[EpochRecord] = []
    n_train = len(train_indices)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n_train)
        loss_sum = kld_sum = cc_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            batch = [samples[train_indices[i]] for i in chunk]
            try:
                total, kld, cc, _ = model.batch_loss(batch, m_gt=m_gt_full)
            except NumericalError as exc:
                raise DivergenceError(
                    f"epoch {epoch}, batch at sample {start}: {exc}"
                ) from None
            adam_step(model.params, state, cfg.learning_rate)
            loss_sum += total * len(batch)
            kld_sum += kld * len(batch)
            cc_sum += cc * len(batch)
        metrics = evaluate_model(model, samples, test_indices)
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / n_train,
                train_kld=kld_sum / n_train,
                train_cc=cc_sum / n_train,
                test_metrics=metrics,
            )
        )
    return history, state


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------


HISTORY_COLUMNS = ("epoch", "loss", "cheb", "clark", "canb", "kl", "cos", "inter")


def provenance_line(config_hash: str, seed: int) -> str:
    return f"# config_hash={config_hash} seed={seed}"


def write_history_csv(history: list[EpochRecord], path, config_hash: str, seed: int):
    lines = [provenance_line(config_hash, seed), ",".join(HISTORY_COLUMNS)]
    for rec in history:
        m = rec.test_metrics
        row = (
            rec.epoch,
            rec.train_loss,
            m.chebyshev,
            m.clark,
            m.canberra,
            m.kl,
            m.cosine,
            m.intersection,
        )
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_label_correlation_csv(model: Model, path, config_hash: str, seed: int):
    corr = model.label_correlation()
    names = model.schema.label_names
    lines = [provenance_line(config_hash, seed), "," + ",".join(names)]
    for name, row in zip(names, corr):
        lines.append(name + "," + ",".join(repr(float(x)) for x in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _encode_array(arr: np.ndarray) -> dict:
    """An array as a checkpoint record: its shape, and the base64 of its
    little-endian float64 bytes with their sha256."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {
        "shape": list(arr.shape),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def _decode_array(record, shape: tuple, where: str) -> np.ndarray:
    """A writable float64 copy of the array `_encode_array` stored.

    `where` names the file and the array.  A record that is not of `shape`,
    not base64, of the wrong byte length or whose bytes do not match their
    digest raises ValidationError; a non-finite value raises NumericalError.
    """
    if not isinstance(record, dict):
        raise ValidationError(f"{where} is not an object")
    try:
        stored_shape, data, digest = record["shape"], record["data"], record["sha256"]
    except KeyError as exc:
        raise ValidationError(f"{where} lacks the field {exc}") from None
    if not isinstance(stored_shape, list) or tuple(stored_shape) != shape:
        raise ValidationError(
            f"{where} has shape {stored_shape!r}, expected {list(shape)}"
        )
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ValidationError(f"{where} is not base64: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValidationError(
            f"{where} holds {len(raw)} bytes, expected {8 * math.prod(shape)}"
        )
    if hashlib.sha256(raw).hexdigest() != digest:
        raise ValidationError(f"{where} does not match its sha256 digest")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(arr).all():
        raise NumericalError(f"{where} holds non-finite values")
    return arr


def save_checkpoint(
    model: Model,
    state: AdamState,
    path,
    split_info: dict | None = None,
) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "schema": schema_to_dict(model.schema),
        "config": model.config.to_dict(),
        "config_hash": model.config.hash(),
        "ablation": {
            "disable_capf": model.ablation.disable_capf,
            "disable_othm": model.ablation.disable_othm,
            "disable_lcdca": model.ablation.disable_lcdca,
            "excluded_modalities": sorted(model.ablation.excluded_modalities),
        },
        "split": split_info or {},
        "params": {name: _encode_array(p.value) for name, p in model.params.items()},
        "adam": {
            "step": state.step,
            "beta1": state.beta1,
            "beta2": state.beta2,
            "eps": state.eps,
            "m": {k: _encode_array(v) for k, v in state.m.items()},
            "v": {k: _encode_array(v) for k, v in state.v.items()},
        },
    }
    # json.dumps encodes in C; json.dump would run the pure-Python encoder
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_checkpoint(path) -> tuple[Model, AdamState, dict]:
    """Rebuild the model, Adam state and split record saved at `path`.

    Every error names the file: a file that is not JSON, is cut short, lacks
    a field, is of another format version or whose config does not match
    its `config_hash` raises ValidationError, and so does a bad array record
    (see `_decode_array`, which also names the array).
    """
    doc = load_json_object(path, "checkpoint")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValidationError(
            f"checkpoint {path} has format_version {version!r}; only version "
            f"{CHECKPOINT_FORMAT_VERSION} can be read"
        )
    try:
        return _restore_checkpoint(doc, path)
    except KeyError as exc:
        raise ValidationError(f"checkpoint {path} lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"checkpoint {path} is malformed: {exc}") from None
    except ConfigurationError as exc:
        raise ValidationError(f"checkpoint {path}: {exc}") from None


def _restore_checkpoint(doc: dict, path) -> tuple[Model, AdamState, dict]:
    config = TrainConfig.from_dict(doc["config"])
    if config.hash() != doc["config_hash"]:
        raise ValidationError(
            f"checkpoint {path}: config_hash {doc['config_hash']!r} does not "
            f"match its config ({config.hash()!r})"
        )
    ab = doc["ablation"]
    ablation = AblationSpec(
        disable_capf=ab["disable_capf"],
        disable_othm=ab["disable_othm"],
        disable_lcdca=ab["disable_lcdca"],
        excluded_modalities=frozenset(ab["excluded_modalities"]),
    )
    schema = schema_from_dict(doc["schema"], f"checkpoint {path} schema")
    model = Model(schema, config, ablation)
    adam = doc["adam"]

    def arrays(records: dict, group: str) -> dict[str, np.ndarray]:
        return {
            name: _decode_array(
                records[name], p.value.shape, f"checkpoint {path} {group} {name}"
            )
            for name, p in model.params.items()
        }

    for name, value in arrays(doc["params"], "params").items():
        model.params[name].value[...] = value
    state = AdamState(
        step=int(adam["step"]),
        beta1=float(adam["beta1"]),
        beta2=float(adam["beta2"]),
        eps=float(adam["eps"]),
        m=arrays(adam["m"], "adam.m"),
        v=arrays(adam["v"], "adam.v"),
    )
    split = doc["split"]
    if not isinstance(split, dict):
        raise ValidationError(f"checkpoint {path} split is not an object")
    return model, state, split
