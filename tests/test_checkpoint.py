"""Checkpoint format version 3: round trips, resumed training, and the checks
made on load."""

import base64
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helo.cli import run
from helo.config import TrainConfig
from helo.data import (
    WESAD_SCHEMA,
    generate_synthetic,
    save_dataset,
    split_subject_dependent,
)
from helo.errors import HeloError, ValidationError
from helo.model import Model
from helo.training import init_adam, load_checkpoint, save_checkpoint, train


def small_config(**overrides):
    base = dict(
        embed_dim=8, heads=2, ffn_dim=6, tokens_per_modality=2,
        head_hidden1=10, head_hidden2=6, batch_size=8, epochs=2, seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def wesad_run():
    samples = generate_synthetic(WESAD_SCHEMA, 3, 8, seed=11)
    train_idx, test_idx = split_subject_dependent(samples, seed=11)
    return samples, train_idx, test_idx


def test_round_trip_is_bit_exact_with_writable_moments(tmp_path, wesad_run):
    samples, tr_idx, te_idx = wesad_run
    model = Model(WESAD_SCHEMA, small_config())
    _, state = train(model, samples, tr_idx, te_idx)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(model, state, path, {"mode": "subject_dependent", "seed": 11})
    restored, restored_state, split = load_checkpoint(path)
    assert split == {"mode": "subject_dependent", "seed": 11}
    assert restored.schema == model.schema and restored.config == model.config
    assert restored_state.step == state.step
    for saved, loaded in (
        (model.values, restored.values),
        (state.m, restored_state.m),
        (state.v, restored_state.v),
    ):
        assert loaded.dtype == np.float64 and loaded.flags.writeable
        assert loaded.tobytes() == saved.tobytes()
    for name, p in restored.params.items():
        assert p.value.tobytes() == model.params[name].value.tobytes()


def test_resumed_training_is_bit_identical(tmp_path, wesad_run):
    # `train` starts its shuffle afresh on every call, so the uninterrupted
    # reference also trains in two calls, only without the save and load.
    samples, tr_idx, te_idx = wesad_run
    model = Model(WESAD_SCHEMA, small_config())
    _, state = train(model, samples, tr_idx, te_idx)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(model, state, path)
    resumed, resumed_state, _ = load_checkpoint(path)

    history, state = train(model, samples, tr_idx, te_idx, state)
    resumed_history, resumed_state = train(
        resumed, samples, tr_idx, te_idx, resumed_state
    )
    assert resumed_history == history
    assert resumed_state.step == state.step
    assert resumed.values.tobytes() == model.values.tobytes()
    assert resumed_state.m.tobytes() == state.m.tobytes()
    assert resumed_state.v.tobytes() == state.v.tobytes()


def test_saving_the_same_state_twice_gives_identical_bytes(tmp_path, wesad_run):
    samples, tr_idx, te_idx = wesad_run
    model = Model(WESAD_SCHEMA, small_config(epochs=1))
    _, state = train(model, samples, tr_idx, te_idx)
    save_checkpoint(model, state, tmp_path / "a.json", {"mode": "loso", "fold": 0})
    save_checkpoint(model, state, tmp_path / "b.json", {"mode": "loso", "fold": 0})
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_array_records_are_little_endian_float64_with_digest(tmp_path):
    model = Model(WESAD_SCHEMA, small_config())
    state = init_adam(model)
    state.m += 0.5  # three slabs of different bytes
    state.v += 2.0
    save_checkpoint(model, state, tmp_path / "c.json")
    doc = json.loads((tmp_path / "c.json").read_text())
    assert doc["format_version"] == 3
    # one record per slab, holding the whole buffer
    for record, flat in (
        (doc["params"], model.values),
        (doc["adam"]["m"], state.m),
        (doc["adam"]["v"], state.v),
    ):
        assert sorted(record) == ["data", "sha256"]
        raw = base64.b64decode(record["data"])
        assert record["sha256"] == hashlib.sha256(raw).hexdigest()
        assert raw == flat.astype("<f8").tobytes()


def test_config_hash_mismatch_is_refused(tmp_path):
    model = Model(WESAD_SCHEMA, small_config())
    path = tmp_path / "c.json"
    save_checkpoint(model, init_adam(model), path)
    doc = json.loads(path.read_text())
    doc["config"]["learning_rate"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"c\.json: config_hash"):
        load_checkpoint(path)


# -- random corruption -------------------------------------------------------


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory, wesad_run):
    samples, tr_idx, te_idx = wesad_run
    root = tmp_path_factory.mktemp("corrupt")
    model = Model(WESAD_SCHEMA, small_config(epochs=1))
    _, state = train(model, samples, tr_idx, te_idx)
    save_checkpoint(model, state, root / "checkpoint.json",
                    {"mode": "subject_dependent", "ratio": 0.8, "seed": 11})
    save_dataset(samples, root / "data.jsonl")
    return root, (root / "checkpoint.json").read_text()


@st.composite
def corruptions(draw, text):
    kind = draw(st.sampled_from(["truncate", "replace", "delete_key"]))
    if kind == "truncate":
        # the last character is the newline after the document
        return kind, text[: draw(st.integers(0, len(text) - 2))]
    if kind == "replace":
        at = draw(st.integers(0, len(text) - 1))
        char = draw(
            st.characters(codec="utf-8").filter(lambda c: c != text[at])
        )
        return kind, text[:at] + char + text[at + 1 :]
    # walk down from the top, one level at a time, so that the few keys of
    # a small section are drawn as often as those of a large one
    doc = json.loads(text)
    node = doc
    key = draw(st.sampled_from(sorted(node)))
    while isinstance(node[key], dict) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node)))
    del node[key]
    return kind, json.dumps(doc, separators=(",", ":"))


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(data=st.data())
def test_corrupt_checkpoint_raises_only_named_errors(saved_run, data):
    root, text = saved_run
    kind, corrupt = data.draw(corruptions(text))
    path = root / "broken.json"
    path.write_text(corrupt, encoding="utf-8")
    try:
        load_checkpoint(path)
        loaded = True
    except HeloError:
        loaded = False
    assert not (kind == "truncate" and loaded)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run(["evaluate", "--checkpoint", str(path),
                    "--data", str(root / "data.jsonl")])
    assert "Traceback" not in err.getvalue()
    # A change the checks cannot see (a label name, the split seed) loads and
    # evaluates; everything else exits 2 or 3.
    assert code in ({0, 2, 3} if loaded else {2, 3})
    if not loaded:
        named = ("error: checkpoint", "numerical error: checkpoint")
        assert err.getvalue().startswith(named)
