import json

import numpy as np
import pytest

from helo.data import (
    DMER_SCHEMA,
    WESAD_SCHEMA,
    generate_synthetic,
    load_dataset,
    load_schema,
    planted_cluster_indices,
    planted_correlation,
    save_dataset,
    save_schema,
    schema_by_name,
    split_loso,
    split_subject_dependent,
)
from helo.errors import SplitError, ValidationError
from helo.labelspace import batch_label_correlation


# -- schemas -----------------------------------------------------------------


def test_builtin_schema_dimensions():
    dims = {m.name: m.dim for m in DMER_SCHEMA.modalities}
    assert dims == {"eeg": 90, "gsr": 28, "ppg": 27, "video": 768}
    assert sum(dims.values()) == 913
    assert DMER_SCHEMA.label_count == 10
    assert DMER_SCHEMA.behavioral.name == "video"

    dims = {m.name: m.dim for m in WESAD_SCHEMA.modalities}
    assert dims == {"ecg": 73, "eda": 4, "emg": 14, "acc": 12}
    assert WESAD_SCHEMA.behavioral.name == "acc"


def test_schema_roundtrip(tmp_path):
    path = tmp_path / "schema.json"
    save_schema(WESAD_SCHEMA, path)
    loaded = load_schema(path)
    assert loaded == WESAD_SCHEMA
    assert json.loads(path.read_text())["format_version"] == 1


def test_unknown_schema_name():
    with pytest.raises(ValidationError):
        schema_by_name("deap")


# -- synthetic generation ----------------------------------------------------------


def test_generator_deterministic():
    a = generate_synthetic(WESAD_SCHEMA, 3, 4, seed=5)
    b = generate_synthetic(WESAD_SCHEMA, 3, 4, seed=5)
    assert len(a) == len(b) == 12
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.label, sb.label)
        for name in sa.features:
            np.testing.assert_array_equal(sa.features[name], sb.features[name])


def test_generator_sample_count_matches_protocol_scale():
    samples = generate_synthetic(DMER_SCHEMA, 73, 32, seed=0)
    assert len(samples) == 2336


def test_generator_labels_are_distributions():
    for s in generate_synthetic(DMER_SCHEMA, 2, 5, seed=1):
        assert s.label.shape == (10,)
        assert s.label.sum() == pytest.approx(1.0, abs=1e-12)
        assert (s.label >= 0).all()


def test_generator_recovers_planted_clusters_against_mc_oracle():
    # Independent Monte-Carlo oracle: replay the label-generating process with
    # separate sampling code and compare empirical class correlations.
    schema = DMER_SCHEMA
    n = 10_000
    samples = generate_synthetic(schema, 10, n // 10, seed=33)
    empirical = batch_label_correlation(np.array([s.label for s in samples]))

    rng = np.random.default_rng(12345)
    chol = np.linalg.cholesky(planted_correlation(schema))
    z = rng.standard_normal((n, schema.label_count)) @ chol.T
    scaled = 2.0 * z
    e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    labels = e / e.sum(axis=1, keepdims=True)
    oracle = batch_label_correlation(labels)

    assert np.abs(empirical - oracle).max() <= 0.1


def test_generator_cluster_entries_exceed_background():
    schema = DMER_SCHEMA
    samples = generate_synthetic(schema, 10, 1000, seed=7)
    corr = batch_label_correlation(np.array([s.label for s in samples]))
    clusters = planted_cluster_indices(schema)
    assert clusters
    in_cluster = set()
    for cluster in clusters:
        for i in cluster:
            for j in cluster:
                if i != j:
                    in_cluster.add((i, j))
    n = schema.label_count
    outside = [
        corr[i, j]
        for i in range(n)
        for j in range(n)
        if i != j and (i, j) not in in_cluster
    ]
    for i, j in in_cluster:
        assert corr[i, j] > np.mean(outside)


# -- dataset files -----------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    samples = generate_synthetic(WESAD_SCHEMA, 2, 3, seed=9)
    path = tmp_path / "data.jsonl"
    save_dataset(samples, path)
    loaded = load_dataset(path, WESAD_SCHEMA)
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert (a.subject, a.trial) == (b.subject, b.trial)
        np.testing.assert_array_equal(a.label, b.label)
        for name in a.features:
            np.testing.assert_array_equal(a.features[name], b.features[name])


def test_load_rejects_wrong_dimension(tmp_path):
    samples = generate_synthetic(DMER_SCHEMA, 1, 2, seed=0)
    record = {
        "subject": 0,
        "trial": 0,
        "features": {k: list(v) for k, v in samples[0].features.items()},
        "label": list(samples[0].label),
    }
    record["features"]["eeg"] = record["features"]["eeg"][:89]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValidationError, match=r"line 1.*'eeg'.*90"):
        load_dataset(path, DMER_SCHEMA)


def test_load_rejects_invalid_distribution(tmp_path):
    samples = generate_synthetic(WESAD_SCHEMA, 1, 2, seed=0)
    record = {
        "subject": 0,
        "trial": 0,
        "features": {k: list(v) for k, v in samples[0].features.items()},
        "label": [0.5, 0.2, 0.2, 0.2],
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValidationError, match="label"):
        load_dataset(path, WESAD_SCHEMA)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_dataset(path, DMER_SCHEMA) == []


# -- splits --------------------------------------------------------------------------


def test_subject_dependent_ceiling_split():
    samples = generate_synthetic(DMER_SCHEMA, 2, 32, seed=3)
    train, test = split_subject_dependent(samples, ratio=0.8, seed=0)
    per_subject_train = {s: 0 for s in (0, 1)}
    per_subject_test = {s: 0 for s in (0, 1)}
    for i in train:
        per_subject_train[samples[i].subject] += 1
    for i in test:
        per_subject_test[samples[i].subject] += 1
    assert per_subject_train == {0: 26, 1: 26}  # ceil(0.8 * 32) = 26
    assert per_subject_test == {0: 6, 1: 6}


def test_subject_dependent_deterministic_partition():
    samples = generate_synthetic(WESAD_SCHEMA, 4, 5, seed=2)
    a = split_subject_dependent(samples, seed=11)
    b = split_subject_dependent(samples, seed=11)
    assert a == b
    train, test = a
    assert sorted(train + test) == list(range(len(samples)))
    assert set(train).isdisjoint(test)


def test_subject_dependent_rejects_singleton_subject():
    samples = generate_synthetic(WESAD_SCHEMA, 2, 2, seed=0)
    samples = samples[:3]  # subject 1 keeps one sample
    with pytest.raises(SplitError, match="subject 1"):
        split_subject_dependent(samples)


def test_loso_fold_count_and_partition():
    samples = generate_synthetic(WESAD_SCHEMA, 14, 3, seed=1)
    folds = split_loso(samples)
    assert len(folds) == 14
    seen = []
    for train, test in folds:
        assert set(train).isdisjoint(test)
        assert len(train) + len(test) == len(samples)
        subjects = {samples[i].subject for i in test}
        assert len(subjects) == 1
        seen.extend(test)
    assert sorted(seen) == list(range(len(samples)))


def test_loso_requires_two_subjects():
    samples = generate_synthetic(WESAD_SCHEMA, 1, 4, seed=0)
    with pytest.raises(SplitError):
        split_loso(samples)


def test_split_plans_generate_validate_load_loop(tmp_path):
    samples = generate_synthetic(WESAD_SCHEMA, 3, 4, seed=21)
    path = tmp_path / "loop.jsonl"
    save_dataset(samples, path)
    loaded = load_dataset(path, WESAD_SCHEMA)
    assert split_subject_dependent(loaded, seed=5) == split_subject_dependent(
        samples, seed=5
    )
    assert split_loso(loaded) == split_loso(samples)
    assert len(split_loso(loaded)) == 3
