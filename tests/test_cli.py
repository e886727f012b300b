import base64
import hashlib
import json
import logging
import re

import numpy as np
import pytest

from helo.cli import run
from helo.data import DMER_SCHEMA, WESAD_SCHEMA, load_dataset
from helo.metrics import METRIC_NAMES

SMALL = [
    "--set", "embed_dim=8",
    "--set", "heads=2",
    "--set", "ffn_dim=6",
    "--set", "head_hidden1=10",
    "--set", "head_hidden2=6",
    "--set", "tokens_per_modality=2",
    "--set", "batch_size=8",
]

def gen(tmp_path, schema="wesad", subjects=3, trials=6, seed=0, name="data.jsonl"):
    path = tmp_path / name
    assert (
        run(
            [
                "generate", "--schema", schema, "--subjects", str(subjects),
                "--trials", str(trials), "--seed", str(seed), "--out", str(path),
            ]
        )
        == 0
    )
    return path

def test_generate_line_count(tmp_path):
    path = gen(tmp_path, schema="dmer", subjects=2, trials=3)
    assert len(path.read_text().strip().splitlines()) == 6
    assert len(load_dataset(path, DMER_SCHEMA)) == 6

def test_generate_deterministic_bytes(tmp_path):
    a = gen(tmp_path, seed=4, name="a.jsonl").read_bytes()
    b = gen(tmp_path, seed=4, name="b.jsonl").read_bytes()
    assert a == b


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["train"]) == 1
    assert "required" in capsys.readouterr().err


def test_unknown_flag_rejected():
    assert run(["generate", "--schema", "dmer", "--bogus", "1"]) == 1


def test_unknown_command_rejected():
    assert run(["explode"]) == 1


def test_validation_errors_exit_2(tmp_path):
    missing = tmp_path / "missing.jsonl"
    assert run(["train", "--data", str(missing), "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"subject": 0}\n')
    assert run(["train", "--data", str(bad), "--out-dir", str(tmp_path)]) == 2


def test_train_evaluate_report_roundtrip(tmp_path):
    data = gen(tmp_path, subjects=3, trials=6, seed=1)
    out = tmp_path / "run"
    code = run(
        ["train", "--data", str(data), "--split", "subject-dependent",
         "--out-dir", str(out), "--epochs", "2", "--seed", "3", *SMALL]
    )
    assert code == 0
    assert (out / "history.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "label_correlation.csv").exists()

    # evaluate reproduces the final-epoch test metrics recorded in history
    eval_csv = tmp_path / "eval_full.csv"
    code = run(
        ["evaluate", "--checkpoint", str(out / "checkpoint.json"),
         "--data", str(data), "--out", str(eval_csv), "--method", "full"]
    )
    assert code == 0
    hist_rows = [
        l for l in (out / "history.csv").read_text().splitlines()
        if l and not l.startswith(("#", "epoch"))
    ]
    final = [float(x) for x in hist_rows[-1].split(",")[2:]]
    eval_row = eval_csv.read_text().splitlines()[2].split(",")
    evaluated = [float(x) for x in eval_row[1:]]
    np.testing.assert_allclose(evaluated, final, atol=1e-12)

    second = tmp_path / "eval_b.csv"
    second.write_text(
        eval_csv.read_text().replace("full,", "variant_b,").replace("# ", "# b "),
    )
    table_csv = tmp_path / "ranks.csv"
    code = run(["report", str(eval_csv), str(second), "--out", str(table_csv)])
    assert code == 0
    text = table_csv.read_text()
    assert "average_rank" in text and "full" in text and "variant_b" in text


def test_train_loso_single_fold(tmp_path):
    data = gen(tmp_path, subjects=3, trials=4, seed=2)
    out = tmp_path / "loso"
    code = run(
        ["train", "--data", str(data), "--split", "loso", "--fold", "1",
         "--out-dir", str(out), "--epochs", "1", *SMALL]
    )
    assert code == 0
    assert (out / "fold_01" / "history.csv").exists()
    assert (out / "summary.csv").exists()


def test_train_byte_identical_runs(tmp_path):
    data = gen(tmp_path, subjects=2, trials=6, seed=5)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert (
            run(
                ["train", "--data", str(data), "--out-dir", str(out),
                 "--epochs", "2", "--seed", "9", *SMALL]
            )
            == 0
        )
        outs.append(out)
    for artifact in ("history.csv", "checkpoint.json", "label_correlation.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    data = gen(tmp_path, subjects=2, trials=5, seed=6)
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "embed_dim": 8, "heads": 2, "ffn_dim": 6, "head_hidden1": 10,
                "head_hidden2": 6, "tokens_per_modality": 2, "batch_size": 8,
                "epochs": 7,
            }
        )
    )
    out = tmp_path / "cfgrun"
    assert (
        run(
            ["train", "--data", str(data), "--config", str(cfg),
             "--out-dir", str(out), "--epochs", "1"]
        )
        == 0
    )
    doc = json.loads((out / "checkpoint.json").read_text())
    assert doc["config"]["epochs"] == 1  # flag beats the config file
    assert doc["config"]["embed_dim"] == 8


def test_gradcheck_runs_with_diagnostics(tmp_path, capsys):
    diag = tmp_path / "sinkhorn.csv"
    assert run(["gradcheck", "--seed", "7", "--sinkhorn-csv", str(diag)]) == 0
    printed = capsys.readouterr().out
    assert "max relative gradient error" in printed
    assert float(printed.strip().rsplit(" ", 1)[1]) <= 1e-4
    lines = diag.read_text().splitlines()
    assert lines[0] == "iteration,violation"
    assert len(lines) > 1


def array_record(arr):
    """A checkpoint array record: shape, sha256 and base64 of `<f8` bytes."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {
        "shape": list(arr.shape),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def stored_array(record):
    raw = base64.b64decode(record["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(record["shape"]).copy()


def test_corrupted_checkpoint_exits_3(tmp_path, capsys):
    data = gen(tmp_path, subjects=2, trials=5, seed=7)
    out = tmp_path / "run3"
    assert run(["train", "--data", str(data), "--out-dir", str(out),
                "--epochs", "1", *SMALL]) == 0
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    # a NaN stored with a matching digest: only the finiteness check sees it
    w1 = stored_array(doc["params"]["head.w1"])
    w1.flat[0] = float("nan")
    doc["params"]["head.w1"] = array_record(w1)
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert "head.w1" in err and "Traceback" not in err


def test_schema_file_path_flag(tmp_path):
    from helo.data import WESAD_SCHEMA, save_schema

    schema_path = tmp_path / "wesad_schema.json"
    save_schema(WESAD_SCHEMA, schema_path)
    path = tmp_path / "s.jsonl"
    assert run(["generate", "--schema", str(schema_path), "--subjects", "2",
                "--trials", "2", "--out", str(path)]) == 0
    assert len(path.read_text().strip().splitlines()) == 4


def test_non_finite_config_values_exit_2(tmp_path, capsys):
    data = gen(tmp_path, subjects=2, trials=4, seed=8)
    out = tmp_path / "nan"
    for flags in (["--learning-rate", "nan"], ["--set", "sinkhorn_epsilon=Infinity"]):
        code = run(["train", "--data", str(data), "--out-dir", str(out),
                    "--epochs", "1", *SMALL, *flags])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
    assert not (out / "history.csv").exists()


def test_truncated_or_incomplete_checkpoint_exits_2(tmp_path, capsys):
    data = gen(tmp_path, subjects=2, trials=5, seed=7)
    out = tmp_path / "run4"
    assert run(["train", "--data", str(data), "--out-dir", str(out),
                "--epochs", "1", *SMALL]) == 0
    text = (out / "checkpoint.json").read_text()
    no_array = json.loads(text)
    del no_array["params"]["head.w1"]
    no_digest = json.loads(text)
    del no_digest["adam"]["m"]["head.w1"]["sha256"]
    broken = {
        "cut.json": text[: text.index('"data":"', text.index('"head.w1"')) + 20],
        "empty.json": "",
        "missing.json": json.dumps(no_array),
        "no_digest.json": json.dumps(no_digest),
    }
    capsys.readouterr()
    for name, content in broken.items():
        ckpt = tmp_path / name
        ckpt.write_text(content)
        assert run(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and "Traceback" not in err, name


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    data = gen(root, subjects=2, trials=5, seed=7)
    assert run(["train", "--data", str(data), "--out-dir", str(root / "run"),
                "--epochs", "1", *SMALL]) == 0
    return data, json.loads((root / "run" / "checkpoint.json").read_text())


def as_version_1(doc):
    """The same state in the layout of checkpoint format version 1."""
    def lists(records):
        return {k: stored_array(r).reshape(-1).tolist() for k, r in records.items()}

    return {
        **doc,
        "format_version": 1,
        "schema": doc["schema"]["name"],
        "params": {
            k: {"shape": r["shape"], "data": stored_array(r).reshape(-1).tolist()}
            for k, r in doc["params"].items()
        },
        "adam": {**doc["adam"], "m": lists(doc["adam"]["m"]),
                 "v": lists(doc["adam"]["v"])},
    }


def flip_first_data_char(doc):
    record = doc["params"]["head.w1"]
    record["data"] = ("B" if record["data"][0] == "A" else "A") + record["data"][1:]
    return doc


def wrong_shape(doc):
    doc["params"]["head.w1"]["shape"].append(1)
    return doc


def other_adam_beta1(doc):
    doc["adam"]["beta1"] = 0.8
    return doc


def negative_adam_step(doc):
    doc["adam"]["step"] = -1  # resumed training would divide by zero
    return doc


def wrong_config_hash(doc):
    doc["config"]["lambda_cc"] = 0.5
    return doc


def split_without_seed(doc):
    del doc["split"]["seed"]
    return doc


def unknown_split_mode(doc):
    doc["split"]["mode"] = "subject-dependent"
    return doc


# case: (edit of the saved document, text stderr must hold)
BAD_CHECKPOINTS = {
    "version_1": (as_version_1, "format_version 1"),
    "flipped_base64_char": (flip_first_data_char, "params head.w1"),
    "wrong_shape": (wrong_shape, "params head.w1"),
    "config_hash_mismatch": (wrong_config_hash, "config_hash"),
    "other_adam_beta1": (other_adam_beta1, "adam.beta1"),
    "negative_adam_step": (negative_adam_step, "adam.step"),
    "split_without_seed": (split_without_seed, "split record"),
    "unknown_split_mode": (unknown_split_mode, "split record"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_bad_checkpoint_exits_2_naming_it(tmp_path, capsys, trained_checkpoint, case):
    data, doc = trained_checkpoint
    edit, named = BAD_CHECKPOINTS[case]
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(edit(json.loads(json.dumps(doc)))))
    capsys.readouterr()
    assert run(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}") and "Traceback" not in err
    assert named in err


def test_checkpoint_carries_a_schema_file(tmp_path):
    from helo.data import Modality, DatasetSchema, save_schema

    schema = DatasetSchema(
        name="mylab",
        modalities=(
            Modality("eeg", 6, "physiological"),
            Modality("hr", 3, "physiological"),
            Modality("face", 5, "behavioral"),
        ),
        label_names=("calm", "tense", "glad"),
    )
    schema_path = tmp_path / "my.json"
    save_schema(schema, schema_path)
    data = tmp_path / "d.jsonl"
    assert run(["generate", "--schema", str(schema_path), "--subjects", "2",
                "--trials", "5", "--out", str(data)]) == 0
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--schema", str(schema_path),
                "--out-dir", str(out), "--epochs", "1", *SMALL]) == 0
    schema_path.unlink()  # evaluation needs only the checkpoint
    eval_csv = tmp_path / "eval.csv"
    assert run(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                "--data", str(data), "--out", str(eval_csv)]) == 0
    final = (out / "history.csv").read_text().splitlines()[-1].split(",")[2:]
    evaluated = eval_csv.read_text().splitlines()[2].split(",")[1:]
    np.testing.assert_allclose(
        [float(x) for x in evaluated], [float(x) for x in final], atol=1e-12
    )


def test_unconverged_plans_are_reported_without_changing_artifacts(tmp_path, caplog):
    data = gen(tmp_path, subjects=2, trials=5, seed=7)
    argv = ["train", "--data", str(data), "--epochs", "2", "--seed", "4", *SMALL,
            "--set", "sinkhorn_max_iter=1"]
    with caplog.at_level(logging.WARNING, logger="helo.model"):
        assert run(argv + ["--out-dir", str(tmp_path / "warned")]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.name == "helo.model"]
    # one warning per solve: 2 epochs of (1 train batch + 1 evaluation chunk)
    assert len(warnings) == 4
    assert all(
        re.fullmatch(r"\d+ of \d+ transport plans did not converge within "
                     r"sinkhorn_max_iter=1 \(worst marginal violation \S+\)", w)
        for w in warnings
    ), warnings
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="helo.model"):
        assert run(argv + ["--out-dir", str(tmp_path / "quiet")]) == 0
    assert not caplog.records
    for artifact in ("history.csv", "checkpoint.json", "label_correlation.csv"):
        warned = (tmp_path / "warned" / artifact).read_bytes()
        assert warned == (tmp_path / "quiet" / artifact).read_bytes(), artifact


def _eval_csv(rows):
    return "method," + ",".join(METRIC_NAMES) + "\n" + "".join(r + "\n" for r in rows)


# (files to write, command and flags, text stderr must name)
BAD_INPUTS = {
    "cut_first_line": ({"d.jsonl": '{"subject": 0, "feat'}, ["train"], "d.jsonl"),
    "schema_not_json": (
        {"s.json": "not json"}, ["train", "--schema", "s.json"], "s.json"
    ),
    "schema_lacks_modalities": (
        {"s.json": '{"format_version": 1, "name": "x"}'},
        ["train", "--schema", "s.json"],
        "modalities",
    ),
    "config_not_json": (
        {"c.json": "{epochs: 3"}, ["train", "--config", "c.json"], "c.json"
    ),
    "set_not_json": ({}, ["train", "--set", "epochs=abc"], "epochs"),
    "set_str_for_int": ({}, ["train", "--set", 'epochs="3"'], "epochs"),
    "set_float_for_int": ({}, ["train", "--set", "epochs=2.0"], "epochs"),
    "set_int_for_bool": (
        {}, ["train", "--set", "rescale_transport=1"], "rescale_transport"
    ),
    "set_str_channels": (
        {}, ["train", "--set", 'modality_channels={"ecg": "2"}'], "modality_channels"
    ),
    "record_features_not_object": (
        {"d.jsonl": '{"subject": 0, "trial": 0, "features": [], "label": []}'},
        ["train", "--schema", "wesad"],
        "line 1",
    ),
    "record_value_not_number": (
        {"d.jsonl": '{"subject": 0, "trial": 0, "features": {"ecg": "x"}, "label": []}'},
        ["train", "--schema", "wesad"],
        "line 1",
    ),
    "report_empty_csv": ({"e.csv": ""}, ["report", "e.csv"], "e.csv"),
    "report_not_a_number": (
        {"e.csv": _eval_csv(["full,0.1,0.2,0.3,0.4,0.5,abc"])},
        ["report", "e.csv"],
        "e.csv",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_outside_input_exits_2_without_traceback(tmp_path, capsys, case):
    files, argv, named = BAD_INPUTS[case]
    data = gen(tmp_path, subjects=2, trials=5)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    if argv[0] == "train":
        if "d.jsonl" in files:
            data = tmp_path / "d.jsonl"
        # the case's own flags come last, so they win over SMALL
        out = ["--data", str(data), "--out-dir", str(tmp_path / "out"), *SMALL]
        argv = argv[:1] + out + argv[1:]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err
    assert not (tmp_path / "out" / "history.csv").exists()


def _schema_doc(edit):
    from helo.data import schema_to_dict

    doc = schema_to_dict(WESAD_SCHEMA)
    edit(doc)
    return json.dumps(doc)


# each document edits the wesad schema; stderr must name the field
BAD_SCHEMAS = {
    "repeated_modality": (
        lambda d: d["modalities"].append(dict(d["modalities"][0])), "modalities"
    ),
    "repeated_label": (lambda d: d["label_names"].append("amused"), "label_names"),
    "unknown_group": (lambda d: d["modalities"][0].update(group="vocal"), "group"),
    "zero_dim": (lambda d: d["modalities"][0].update(dim=0), "dim"),
    "string_dim": (lambda d: d["modalities"][0].update(dim="73"), "dim"),
    "fractional_dim": (lambda d: d["modalities"][0].update(dim=73.5), "dim"),
    "bool_dim": (lambda d: d["modalities"][1].update(dim=True), "dim"),
    "empty_label_names": (lambda d: d.update(label_names=[]), "label_names"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCHEMAS))
def test_bad_schema_document_exits_2_naming_the_field(tmp_path, capsys, case):
    edit, field = BAD_SCHEMAS[case]
    data = gen(tmp_path, subjects=2, trials=5)
    schema_path = tmp_path / "bad.json"
    schema_path.write_text(_schema_doc(edit))
    capsys.readouterr()
    code = run(["train", "--data", str(data), "--schema", str(schema_path),
                "--out-dir", str(tmp_path / "out"), *SMALL])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert field in err and "bad.json" in err
    assert not (tmp_path / "out" / "history.csv").exists()
