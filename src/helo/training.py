"""Adam optimization, the epoch loop, and run artifacts.

Training is single-threaded over batches with a seeded shuffle so identical
configs produce byte-identical histories and checkpoints.  Evaluation runs
the batched forward pass over chunks of `batch_size` samples; predictions
do not depend on the chunking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .data import Sample, labels_matrix, load_json_object, schema_by_name
from .errors import (
    DimensionError,
    DivergenceError,
    NumericalError,
    SplitError,
    ValidationError,
)
from .labelspace import batch_label_correlation
from .metrics import MetricVector, evaluate_set
from .model import AblationSpec, Model

CHECKPOINT_FORMAT_VERSION = 1

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


def save_checkpoint(
    model: Model,
    state: AdamState,
    path,
    split_info: dict | None = None,
) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "schema": model.schema.name,
        "config": model.config.to_dict(),
        "config_hash": model.config.hash(),
        "ablation": {
            "disable_capf": model.ablation.disable_capf,
            "disable_othm": model.ablation.disable_othm,
            "disable_lcdca": model.ablation.disable_lcdca,
            "excluded_modalities": sorted(model.ablation.excluded_modalities),
        },
        "split": split_info or {},
        "params": {
            name: {"shape": list(p.value.shape), "data": p.value.reshape(-1).tolist()}
            for name, p in model.params.items()
        },
        "adam": {
            "step": state.step,
            "beta1": state.beta1,
            "beta2": state.beta2,
            "eps": state.eps,
            "m": {k: v.reshape(-1).tolist() for k, v in state.m.items()},
            "v": {k: v.reshape(-1).tolist() for k, v in state.v.items()},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> tuple[Model, AdamState, dict]:
    """Rebuild the model, Adam state and split record saved at `path`.

    A file that is not JSON, is cut short or lacks a field raises
    ValidationError naming the file.
    """
    doc = load_json_object(path, "checkpoint")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DimensionError(
            f"unsupported checkpoint format_version {doc.get('format_version')!r}"
        )
    try:
        return _restore_checkpoint(doc)
    except KeyError as exc:
        raise ValidationError(f"checkpoint {path} lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"checkpoint {path} is malformed: {exc}") from None


def _restore_checkpoint(doc: dict) -> tuple[Model, AdamState, dict]:
    config = TrainConfig.from_dict(doc["config"])
    ab = doc["ablation"]
    ablation = AblationSpec(
        disable_capf=ab["disable_capf"],
        disable_othm=ab["disable_othm"],
        disable_lcdca=ab["disable_lcdca"],
        excluded_modalities=frozenset(ab["excluded_modalities"]),
    )
    model = Model(schema_by_name(doc["schema"]), config, ablation)
    for name, p in model.params.items():
        stored = doc["params"][name]
        arr = np.array(stored["data"], dtype=np.float64).reshape(stored["shape"])
        if arr.shape != p.value.shape:
            raise DimensionError(f"checkpoint parameter {name} has shape {arr.shape}")
        p.value[...] = arr
    state = AdamState(
        step=int(doc["adam"]["step"]),
        beta1=float(doc["adam"]["beta1"]),
        beta2=float(doc["adam"]["beta2"]),
        eps=float(doc["adam"]["eps"]),
        m={
            k: np.array(v, dtype=np.float64).reshape(model.params[k].value.shape)
            for k, v in doc["adam"]["m"].items()
        },
        v={
            k: np.array(v, dtype=np.float64).reshape(model.params[k].value.shape)
            for k, v in doc["adam"]["v"].items()
        },
    )
    return model, state, doc.get("split", {})
