"""Adam optimization, the epoch loop, and run artifacts.

Training is single-threaded over batches with a seeded shuffle so identical
configs produce byte-identical histories and checkpoints.  Adam's moments
are two flat buffers laid out like the model's `values`, and one step
updates the whole slab.  Evaluation runs the batched forward pass over
chunks of `batch_size` samples and scores all predictions as one (N, L)
array; neither the predictions nor their measures depend on the chunking.

A checkpoint (format version 2) is one JSON document holding the schema
document, the config and its hash, the ablation switches, the split record,
the Adam step and constants, and every parameter and Adam moment as a
record of its shape, the base64 of its little-endian float64 bytes and their
sha256, in the order of the model's parameters.  `_encode_array` writes each
record from a view of its slab and `_decode_array` checks it on load and
decodes it into that view; version-1 files and other Adam constants are
refused.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass

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
# Written into every checkpoint; a checkpoint of other values is refused.
ADAM_CONSTANTS = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}
# Elements per chunk of the Adam update: the update's temporaries for one
# chunk stay in cache, which a whole-buffer expression's do not.
ADAM_CHUNK = 32768


@dataclass
class AdamState:
    """Step count and the first and second moments, laid out like the
    model's `values` buffer."""

    step: int
    m: np.ndarray
    v: np.ndarray


def init_adam(model: Model) -> AdamState:
    return AdamState(0, np.zeros_like(model.values), np.zeros_like(model.values))


def adam_step(
    values: np.ndarray, grads: np.ndarray, state: AdamState, lr: float
) -> None:
    """Bias-corrected Adam update of a flat values buffer, chunk by chunk;
    gradients are left untouched.  Every operation is elementwise, so the
    chunking does not change a bit."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for start in range(0, values.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        g, m, v = grads[chunk], state.m[chunk], state.v[chunk]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        values[chunk] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_model(model: Model, samples: list[Sample], indices) -> MetricVector:
    """Mean measures of the indexed samples, predicted in chunks of
    `batch_size` and scored as one (N, L) array."""
    subset = [samples[i] for i in indices]
    step = model.config.batch_size
    chunks = [
        model.predict_batch([s.features for s in subset[start : start + step]])
        for start in range(0, len(subset), step)
    ]
    preds = np.concatenate(chunks) if chunks else []
    return evaluate_set(preds, labels_matrix(subset))


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
            adam_step(model.values, model.grads, state, cfg.learning_rate)
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


def _decode_array(record, out: np.ndarray, where: str) -> None:
    """Decode the array `_encode_array` stored into `out`, a view of a slab.

    `where` names the file and the array.  A record that is not of the shape
    of `out`, not base64, of the wrong byte length or whose bytes do not
    match their digest raises ValidationError; a non-finite value raises
    NumericalError.
    """
    if not isinstance(record, dict):
        raise ValidationError(f"{where} is not an object")
    try:
        stored_shape, data, digest = record["shape"], record["data"], record["sha256"]
    except KeyError as exc:
        raise ValidationError(f"{where} lacks the field {exc}") from None
    if not isinstance(stored_shape, list) or tuple(stored_shape) != out.shape:
        raise ValidationError(
            f"{where} has shape {stored_shape!r}, expected {list(out.shape)}"
        )
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ValidationError(f"{where} is not base64: {exc}") from None
    if len(raw) != 8 * out.size:
        raise ValidationError(f"{where} holds {len(raw)} bytes, expected {8 * out.size}")
    if hashlib.sha256(raw).hexdigest() != digest:
        raise ValidationError(f"{where} does not match its sha256 digest")
    out[...] = np.frombuffer(raw, dtype="<f8").reshape(out.shape)
    if not np.isfinite(out).all():
        raise NumericalError(f"{where} holds non-finite values")


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
            **ADAM_CONSTANTS,
            "m": {k: _encode_array(v) for k, v in model.views(state.m).items()},
            "v": {k: _encode_array(v) for k, v in model.views(state.v).items()},
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
    a field, is of another format version, whose config does not match its
    `config_hash`, whose Adam constants differ from `ADAM_CONSTANTS` or whose
    Adam step is not a count raises ValidationError, and so does a bad array
    record (see `_decode_array`, which also names the array).
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
    for key, value in ADAM_CONSTANTS.items():
        if adam[key] != value:
            raise ValidationError(
                f"checkpoint {path}: adam.{key} is {adam[key]!r}, but this "
                f"program's Adam uses {value!r}"
            )
    step = adam["step"]
    if not isinstance(step, int) or isinstance(step, bool) or step < 0:
        raise ValidationError(
            f"checkpoint {path}: adam.step is {step!r}, not a count of steps"
        )
    state = init_adam(model)
    state.step = step
    for group, flat, records in (
        ("params", model.values, doc["params"]),
        ("adam.m", state.m, adam["m"]),
        ("adam.v", state.v, adam["v"]),
    ):
        for name, view in model.views(flat).items():
            _decode_array(records[name], view, f"checkpoint {path} {group} {name}")
    split = doc["split"]
    if not isinstance(split, dict):
        raise ValidationError(f"checkpoint {path} split is not an object")
    return model, state, split
