"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from helo import training  # noqa: E402
from session import SIZES, WORKLOADS, Tally, prediction_ok, run_session  # noqa: E402
from tracing import Tracer, _child_coverage  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["transport.sinkhorn.unconverged"]["value"] == 0
        assert result["metrics"]["model.Model.forward_sample.calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_failed_output_counts_as_failed(tmp_path, monkeypatch):
    load = training.load_checkpoint

    def load_corrupted(path):
        model, state, split = load(path)
        next(iter(model.params.values())).value[0, 0] += 1e-3
        return model, state, split

    monkeypatch.setattr(training, "load_checkpoint", load_corrupted)
    tally = Tally()
    run_session(WORKLOADS["train_dmer"], 3, 0.0, SIZES["tiny"], tmp_path, tally)
    assert tally.failed > 0
    assert tally.failures.get("prediction of the reloaded model", 0) > 0
    assert tally.attempted > tally.failed


def test_tally_and_prediction_check():
    tally = Tally()
    assert tally.check("ok", True) and not tally.check("bad", False)
    assert (tally.attempted, tally.failed, tally.failures) == (2, 1, {"bad": 1})
    good = np.full(4, 0.25)
    assert prediction_ok(good, 4)
    assert not prediction_ok(good * 1.01, 4)
    assert not prediction_ok(np.array([np.nan, 0.5, 0.25, 0.25]), 4)


def test_child_coverage_merges_overlapping_children():
    # span 0 [0, 10] has children 1 [1, 3] and 2 [2, 5], which overlap as
    # worker threads do; span 1 has child 3 [1, 2].
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0, 1, 2, 1])
    end = np.array([10, 3, 5, 2])
    assert _child_coverage(parent, start, end, 4).tolist() == [4, 1, 0, 0]


def test_tracer_restores_every_attribute():
    from tracing import COUNTED, TIMED, _lookup

    before = [_lookup(owner, attr) for owner, attr, _ in TIMED + COUNTED]
    with Tracer() as tracer:
        assert any(
            _lookup(o, a) is not b for (o, a, _), b in zip(TIMED + COUNTED, before)
        )
    assert tracer.unrestored == []
    assert [_lookup(owner, attr) for owner, attr, _ in TIMED + COUNTED] == before
