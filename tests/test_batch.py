"""The batch-first pipeline against its per-sample references."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helo
from helo.config import TrainConfig
from helo.data import DMER_SCHEMA, generate_synthetic, save_dataset
from helo.labelspace import batch_label_correlation
from helo.metrics import evaluate_set
from helo.model import Model
from helo.training import evaluate_model
from helo.transport import sinkhorn, sinkhorn_batch, uniform_marginal

# The two benchmark configurations: dmer defaults (4x4 plans, d=128) and
# 8 tokens per modality (16x16 plans, d=32).
CONFIGS = {
    "dmer": TrainConfig(),
    "sinkhorn": TrainConfig(
        tokens_per_modality=8,
        embed_dim=32,
        heads=2,
        ffn_dim=32,
        sinkhorn_max_iter=50000,
    ),
}


@pytest.fixture(scope="module")
def samples256():
    return generate_synthetic(DMER_SCHEMA, 4, 64, seed=21)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_predict_equals_its_row_of_any_batch(name, samples256):
    model = Model(DMER_SCHEMA, CONFIGS[name])
    features = [s.features for s in samples256]
    single = np.array([model.predict(f) for f in features])
    for size in (1, 3, 128, 256):
        batched = model.predict_batch(features[:size])
        assert batched.shape == (size, DMER_SCHEMA.label_count)
        assert np.array_equal(batched, single[:size]), size


def test_evaluate_model_equals_evaluate_set_of_predicts(samples256):
    # 100 samples in chunks of 32: the last chunk is short.
    model = Model(DMER_SCHEMA, CONFIGS["dmer"].with_overrides(batch_size=32))
    indices = range(7, 107)
    preds = [model.predict(samples256[i].features) for i in indices]
    expected = evaluate_set(preds, [samples256[i].label for i in indices])
    assert evaluate_model(model, samples256, indices) == expected


def _assert_same_plans(batch, costs, u, v, eps, max_iter, tol):
    for i, cost in enumerate(costs):
        alone = sinkhorn(cost, u, v, eps, max_iter, tol)
        plan = batch.plan(i)
        assert np.array_equal(plan.t, alone.t)
        assert plan.iterations == alone.iterations
        assert plan.converged == alone.converged
        assert plan.violation_history == alone.violation_history
        assert plan.marginal_violation == alone.marginal_violation
        assert plan.wd == alone.wd


def test_batched_sinkhorn_equals_per_plan_solves_on_mixed_batch():
    rng = np.random.default_rng(4)
    n = 6
    # near-zero costs converge in a step or two, spread costs take longer
    costs = rng.uniform(0.0, 2.0, size=(12, n, n))
    costs[::3] *= 1e-3
    u = v = uniform_marginal(n)
    batch = sinkhorn_batch(costs, u, v, 0.1, 300, 1e-6)
    assert batch.iterations.min() <= 2 and batch.iterations.max() > 200
    assert batch.converged.all()
    _assert_same_plans(batch, costs, u, v, 0.1, 300, 1e-6)
    # a cap that stops the two slowest plans mid-way, at the very iteration
    # where the third slowest converges
    cap = int(np.sort(batch.iterations)[-3])
    capped = sinkhorn_batch(costs, u, v, 0.1, cap, 1e-6)
    assert capped.converged.sum() == len(costs) - 2
    assert (capped.iterations == cap).sum() == 3
    _assert_same_plans(capped, costs, u, v, 0.1, cap, 1e-6)


def test_batched_sinkhorn_equals_per_plan_solves_when_unconverged():
    rng = np.random.default_rng(5)
    costs = rng.uniform(0.0, 2.0, size=(5, 4, 4))
    u = v = uniform_marginal(4)
    batch = sinkhorn_batch(costs, u, v, 0.1, 1, 1e-6)
    assert not batch.converged.any()
    assert batch.iterations.tolist() == [1] * 5
    _assert_same_plans(batch, costs, u, v, 0.1, 1, 1e-6)


def test_batch_gradient_is_sum_of_single_sample_gradients():
    config = TrainConfig(
        embed_dim=8, heads=2, ffn_dim=6, head_hidden1=10, head_hidden2=6, batch_size=6
    )
    model = Model(DMER_SCHEMA, config)
    batch = generate_synthetic(DMER_SCHEMA, 2, 3, seed=8)
    m_gt = batch_label_correlation(np.array([s.label for s in batch]))
    model.batch_loss(batch, m_gt=m_gt)
    # batch_loss takes the mean KL; the cc term enters once per call
    batched = {k: len(batch) * p.grad for k, p in model.params.items()}
    summed = {k: np.zeros_like(p.grad) for k, p in model.params.items()}
    for sample in batch:
        model.batch_loss([sample], m_gt=m_gt)
        for k, p in model.params.items():
            summed[k] += p.grad
    for k in batched:
        scale = np.abs(summed[k]).max()
        assert np.abs(batched[k] - summed[k]).max() <= 1e-12 * scale, k


def test_history_identical_across_blas_thread_counts(tmp_path):
    data = tmp_path / "data.jsonl"
    save_dataset(generate_synthetic(DMER_SCHEMA, 2, 12, seed=4), data)
    src = str(Path(helo.__file__).resolve().parent.parent)
    histories = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "helo.cli", "train", "--data", str(data),
             "--out-dir", str(out), "--epochs", "2", "--batch-size", "16"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1]
