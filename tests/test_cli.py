import json

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


def test_corrupted_checkpoint_exits_3(tmp_path):
    data = gen(tmp_path, subjects=2, trials=5, seed=7)
    out = tmp_path / "run3"
    assert run(["train", "--data", str(data), "--out-dir", str(out),
                "--epochs", "1", *SMALL]) == 0
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["params"]["head.w1"]["data"][0] = float("nan")
    ckpt.write_text(json.dumps(doc))
    assert run(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 3


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
    doc = json.loads(text)
    del doc["params"]["head.w1"]
    broken = {
        "cut.json": text[:5000],
        "empty.json": "",
        "missing.json": json.dumps(doc),
    }
    capsys.readouterr()
    for name, content in broken.items():
        ckpt = tmp_path / name
        ckpt.write_text(content)
        assert run(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and "Traceback" not in err, name


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
