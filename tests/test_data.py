import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helo.cli import run
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
from helo.errors import HeloError, SplitError, ValidationError
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


def set_first_label_nan(record):
    record["label"][0] = float("nan")  # json.dumps writes NaN, json.loads reads it


def set_field(field, value):
    return lambda record: record.__setitem__(field, value)


def label_as_column(record):
    record["label"] = [[p] for p in record["label"]]


# case: (edit of a valid record, field the error names, text it must hold)
BAD_RECORDS = {
    "nan_label": (set_first_label_nan, "label", "non-finite"),
    "fractional_subject": (set_field("subject", 1.7), "subject", "1.7"),
    "boolean_subject": (set_field("subject", True), "subject", "True"),
    "string_subject": (set_field("subject", "3"), "subject", "'3'"),
    "fractional_trial": (set_field("trial", 2.5), "trial", "2.5"),
    "boolean_trial": (set_field("trial", False), "trial", "False"),
    "column_label": (label_as_column, "label", "(4, 1)"),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_load_refuses_record_naming_line_and_field(tmp_path, case):
    edit, field, text = BAD_RECORDS[case]
    sample = generate_synthetic(WESAD_SCHEMA, 1, 1, seed=0)[0]
    record = {
        "subject": 0,
        "trial": 0,
        "features": {k: list(v) for k, v in sample.features.items()},
        "label": list(sample.label),
    }
    edit(record)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValidationError, match=rf"line 1, field '{field}'") as info:
        load_dataset(path, WESAD_SCHEMA)
    assert text in str(info.value)


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


# -- random corruption of dataset lines ----------------------------------------------


TINY = [
    "--set", "embed_dim=4", "--set", "heads=1", "--set", "ffn_dim=4",
    "--set", "head_hidden1=4", "--set", "head_hidden2=4",
    "--set", "tokens_per_modality=1", "--set", "batch_size=8",
]


@pytest.fixture(scope="module")
def saved_lines(tmp_path_factory):
    root = tmp_path_factory.mktemp("lines")
    save_dataset(generate_synthetic(WESAD_SCHEMA, 2, 5, seed=4), root / "data.jsonl")
    return root, (root / "data.jsonl").read_text().splitlines()


@st.composite
def corrupted_line(draw, line):
    kind = draw(st.sampled_from(["truncate", "replace", "delete_key"]))
    # a uniform position: integer draws favour small values, which would
    # keep most cuts and replacements near the start of the line
    at = draw(st.randoms(use_true_random=False)).randrange(1, len(line))
    if kind == "truncate":
        return kind, line[:at]  # at >= 1: an empty line is a blank line
    if kind == "replace":
        # number characters often keep the line valid JSON, so records that
        # still load reach training as well
        chars = st.one_of(
            st.sampled_from("0123456789.-e"), st.characters(codec="utf-8")
        )
        char = draw(chars.filter(lambda c: c != line[at]))
        return kind, line[:at] + char + line[at + 1 :]
    record = json.loads(line)
    node = record
    key = draw(st.sampled_from(sorted(node)))
    if key == "features" and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node)))
    del node[key]
    return kind, json.dumps(record, separators=(",", ":"))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupt_dataset_line_raises_only_named_errors(saved_lines, data):
    root, lines = saved_lines
    at = data.draw(st.integers(0, len(lines) - 1))
    kind, line = data.draw(corrupted_line(lines[at]))
    path = root / "broken.jsonl"
    path.write_text("\n".join(lines[:at] + [line] + lines[at + 1 :]) + "\n",
                    encoding="utf-8")
    try:
        load_dataset(path, WESAD_SCHEMA)
        loaded = True
    except HeloError:
        loaded = False
    assert not (kind in ("truncate", "delete_key") and loaded)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        # no --schema: a broken first line also reaches schema inference
        code = run(["train", "--data", str(path), "--out-dir", str(root / "out"),
                    "--epochs", "1", *TINY])
    assert "Traceback" not in err.getvalue()
    assert code in ({0, 2, 3} if loaded else {2, 3})
