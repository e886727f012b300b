"""Dataset schemas, synthetic data with planted label structure, and splits.

Two built-in schemas mirror the desk-scale feature layout this pipeline
targets: a 913-feature four-modality set with 10 emotion classes and a
wearable four-modality set with 4 affect classes.  The synthetic generator
draws a latent emotion vector from a correlated Gaussian whose correlation
matrix carries known clusters, so correlation-learning behaviour can be
checked against a recoverable target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SplitError, ValidationError

SCHEMA_FORMAT_VERSION = 1

PHYSIOLOGICAL = "physiological"
BEHAVIORAL = "behavioral"

# Synthetic-generation constants.
CLUSTER_RHO = 0.8
LABEL_SHARPNESS = 2.0
SUBJECT_SCALE = 0.4
NOISE_SCALE = 0.2


@dataclass(frozen=True)
class Modality:
    name: str
    dim: int
    group: str


@dataclass(frozen=True)
class DatasetSchema:
    name: str
    modalities: tuple[Modality, ...]
    label_names: tuple[str, ...]

    @property
    def label_count(self) -> int:
        return len(self.label_names)

    @property
    def behavioral(self) -> Modality:
        behav = [m for m in self.modalities if m.group == BEHAVIORAL]
        if len(behav) != 1:
            raise ValidationError(
                f"schema {self.name!r} must have exactly one behavioral modality"
            )
        return behav[0]


DMER_SCHEMA = DatasetSchema(
    name="dmer",
    modalities=(
        Modality("eeg", 90, PHYSIOLOGICAL),
        Modality("gsr", 28, PHYSIOLOGICAL),
        Modality("ppg", 27, PHYSIOLOGICAL),
        Modality("video", 768, BEHAVIORAL),
    ),
    label_names=(
        "inspired",
        "alert",
        "excited",
        "enthusiastic",
        "determined",
        "afraid",
        "upset",
        "nervous",
        "scared",
        "distressed",
    ),
)

WESAD_SCHEMA = DatasetSchema(
    name="wesad",
    modalities=(
        Modality("ecg", 73, PHYSIOLOGICAL),
        Modality("eda", 4, PHYSIOLOGICAL),
        Modality("emg", 14, PHYSIOLOGICAL),
        Modality("acc", 12, BEHAVIORAL),
    ),
    label_names=("neutral", "stressed", "amused", "meditated"),
)

SCHEMAS = {s.name: s for s in (DMER_SCHEMA, WESAD_SCHEMA)}

# Label clusters planted into the synthetic latent correlation.
PLANTED_CLUSTERS = {
    "dmer": (("alert", "excited", "enthusiastic", "determined"),
             ("afraid", "nervous", "scared")),
    "wesad": (("neutral", "meditated"),),
}


def schema_by_name(name: str) -> DatasetSchema:
    try:
        return SCHEMAS[name]
    except KeyError:
        raise ValidationError(
            f"unknown schema {name!r}; available: {sorted(SCHEMAS)}"
        ) from None


def schema_to_dict(schema: DatasetSchema) -> dict:
    """The JSON document of a schema file; `schema_from_dict` reads it back."""
    return {
        "format_version": SCHEMA_FORMAT_VERSION,
        "name": schema.name,
        "modalities": [
            {"name": m.name, "dim": m.dim, "group": m.group}
            for m in schema.modalities
        ],
        "label_names": list(schema.label_names),
    }


def save_schema(schema: DatasetSchema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_to_dict(schema), fh, indent=2)
        fh.write("\n")


def load_json_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; anything else raises
    ValidationError naming `what` and the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path} is not a JSON object")
    return doc


def schema_from_dict(doc, where: str) -> DatasetSchema:
    """The schema a `schema_to_dict` document describes; a bad document
    raises ValidationError naming `where`."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} is not a JSON object")
    if doc.get("format_version") != SCHEMA_FORMAT_VERSION:
        raise ValidationError(
            f"{where}: unsupported schema format_version {doc.get('format_version')!r}"
        )
    try:
        schema = DatasetSchema(
            name=doc["name"],
            modalities=tuple(
                Modality(m["name"], m["dim"], m["group"]) for m in doc["modalities"]
            ),
            label_names=tuple(doc["label_names"]),
        )
    except KeyError as exc:
        raise ValidationError(f"{where} lacks the field {exc}") from None
    except TypeError as exc:
        raise ValidationError(f"{where} is malformed: {exc}") from None
    for m in schema.modalities:
        if type(m.dim) is not int or m.dim <= 0:
            raise ValidationError(f"{where}: {m.name!r} dim {m.dim!r} is not a positive integer")
        if m.group not in (PHYSIOLOGICAL, BEHAVIORAL):
            raise ValidationError(f"{where}: {m.name!r} has the unknown group {m.group!r}")
    _check_names(where, "modalities", [m.name for m in schema.modalities])
    _check_names(where, "label_names", doc["label_names"])
    try:
        schema.behavioral  # validates the one-behavioral invariant
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return schema


def _check_names(where: str, field: str, names) -> None:
    if not isinstance(names, list) or not names:
        raise ValidationError(f"{where}: {field} must be a non-empty list")
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise ValidationError(f"{where}: {field} entry {name!r} is not a string")
        if name in names[:i]:
            raise ValidationError(f"{where}: {field} repeats the name {name!r}")


def load_schema(path) -> DatasetSchema:
    return schema_from_dict(load_json_object(path, "schema"), f"schema {path}")


@dataclass
class Sample:
    subject: int
    trial: int
    features: dict[str, np.ndarray]
    label: np.ndarray


def labels_matrix(samples: list[Sample]) -> np.ndarray:
    return np.array([s.label for s in samples], dtype=np.float64)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def planted_correlation(schema: DatasetSchema) -> np.ndarray:
    """The latent correlation matrix: unit diagonal, CLUSTER_RHO inside each
    planted cluster, zero elsewhere (block structure keeps it PSD)."""
    n = schema.label_count
    sigma = np.eye(n)
    for cluster in PLANTED_CLUSTERS.get(schema.name, ()):
        idx = [schema.label_names.index(name) for name in cluster]
        for i in idx:
            for j in idx:
                if i != j:
                    sigma[i, j] = CLUSTER_RHO
    return sigma


def planted_cluster_indices(schema: DatasetSchema) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(schema.label_names.index(name) for name in cluster)
        for cluster in PLANTED_CLUSTERS.get(schema.name, ())
    )


def generate_synthetic(
    schema: DatasetSchema,
    n_subjects: int,
    trials_per_subject: int,
    seed: int,
) -> list[Sample]:
    """Deterministic synthetic samples with planted label correlation.

    Every sample's latent emotion vector z ~ N(0, planted correlation) maps
    through a sharpened softmax to the label; each modality sees a fixed
    linear map of z plus a per-subject offset plus noise, with physiological
    and behavioral streams passed through different nonlinear warps.
    """
    if n_subjects <= 0 or trials_per_subject <= 0:
        raise ValidationError("subject and trial counts must be positive")
    rng = np.random.default_rng(seed)
    n_labels = schema.label_count
    chol = np.linalg.cholesky(planted_correlation(schema))
    maps = {
        m.name: rng.normal(0.0, 1.0 / math.sqrt(n_labels), size=(n_labels, m.dim))
        for m in schema.modalities
    }
    offsets = {
        (s, m.name): rng.normal(0.0, SUBJECT_SCALE, size=m.dim)
        for s in range(n_subjects)
        for m in schema.modalities
    }
    samples = []
    for subject in range(n_subjects):
        for trial in range(trials_per_subject):
            z = chol @ rng.standard_normal(n_labels)
            scaled = LABEL_SHARPNESS * z
            e = np.exp(scaled - scaled.max())
            label = e / e.sum()
            features = {}
            for m in schema.modalities:
                raw = (
                    z @ maps[m.name]
                    + offsets[(subject, m.name)]
                    + rng.normal(0.0, NOISE_SCALE, size=m.dim)
                )
                # Distinct warps keep the two groups genuinely heterogeneous.
                features[m.name] = (
                    np.tanh(raw) if m.group == PHYSIOLOGICAL else np.cbrt(raw)
                )
            samples.append(
                Sample(subject=subject, trial=trial, features=features, label=label)
            )
    return samples


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def save_dataset(samples: list[Sample], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            record = {
                "subject": int(s.subject),
                "trial": int(s.trial),
                "features": {k: [float(x) for x in v] for k, v in s.features.items()},
                "label": [float(x) for x in s.label],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _parse_record(doc: dict, schema: DatasetSchema, line_no: int) -> Sample:
    def fail(field: str, message: str):
        raise ValidationError(f"line {line_no}, field {field!r}: {message}")

    for field in ("subject", "trial", "features", "label"):
        if field not in doc:
            fail(field, "missing")
    for field in ("subject", "trial"):
        if not isinstance(doc[field], int) or isinstance(doc[field], bool):
            fail(field, f"expected an integer, got {doc[field]!r}")
    features = {}
    for m in schema.modalities:
        vec = doc["features"].get(m.name)
        if vec is None:
            fail(m.name, "missing modality")
        arr = np.asarray(vec, dtype=np.float64)
        if arr.shape != (m.dim,):
            fail(m.name, f"expected {m.dim} features, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            fail(m.name, "non-finite feature values")
        features[m.name] = arr
    extra = set(doc["features"]) - {m.name for m in schema.modalities}
    if extra:
        fail(sorted(extra)[0], "not part of the schema")
    label = np.asarray(doc["label"], dtype=np.float64)
    if label.shape != (schema.label_count,):
        fail(
            "label", f"expected {schema.label_count} classes, got shape {label.shape}"
        )
    if not np.isfinite(label).all():
        fail("label", "non-finite probability")
    if (label < 0.0).any():
        fail("label", "negative probability")
    if abs(label.sum() - 1.0) > 1e-9:
        fail("label", f"probabilities sum to {label.sum()!r}, not 1")
    return Sample(
        subject=doc["subject"],
        trial=doc["trial"],
        features=features,
        label=label,
    )


def load_dataset(path, schema: DatasetSchema) -> list[Sample]:
    """Read and schema-validate a JSON-lines dataset; empty file is empty."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {line_no}: invalid JSON ({exc})") from None
            try:
                samples.append(_parse_record(doc, schema, line_no))
            except (AttributeError, TypeError, ValueError, IndexError) as exc:
                raise ValidationError(
                    f"line {line_no}: malformed record ({exc})"
                ) from None
    return samples


# ---------------------------------------------------------------------------
# split protocols
# ---------------------------------------------------------------------------


def _indices_by_subject(samples: list[Sample]) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        groups.setdefault(s.subject, []).append(i)
    return groups


def split_subject_dependent(
    samples: list[Sample], ratio: float = 0.8, seed: int = 0
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-subject seeded shuffle assigning ceil(ratio*n) samples to train."""
    if not 0.0 < ratio < 1.0:
        raise SplitError(f"ratio must be in (0, 1), got {ratio}")
    groups = _indices_by_subject(samples)
    rng = np.random.default_rng(seed)
    train: list[int] = []
    test: list[int] = []
    for subject in sorted(groups):
        idx = groups[subject]
        if len(idx) < 2:
            raise SplitError(
                f"subject {subject} has {len(idx)} sample(s); need at least 2"
            )
        order = rng.permutation(len(idx))
        n_train = math.ceil(ratio * len(idx))
        train.extend(idx[i] for i in order[:n_train])
        test.extend(idx[i] for i in order[n_train:])
    return tuple(train), tuple(test)


def split_loso(
    samples: list[Sample],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One fold per subject; that subject's samples form the test set."""
    groups = _indices_by_subject(samples)
    if len(groups) < 2:
        raise SplitError(f"leave-one-subject-out needs >= 2 subjects, got {len(groups)}")
    folds = []
    all_idx = set(range(len(samples)))
    for subject in sorted(groups):
        test = tuple(groups[subject])
        train = tuple(sorted(all_idx - set(test)))
        folds.append((train, test))
    return folds
