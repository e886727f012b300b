"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance and
runtime budget is asserted inside the test bodies.
"""

import itertools
import math
import time

import numpy as np
import pytest

from helo.cli import run
from helo.config import TrainConfig
from helo.data import (
    DMER_SCHEMA,
    WESAD_SCHEMA,
    generate_synthetic,
    labels_matrix,
    planted_cluster_indices,
    split_loso,
    split_subject_dependent,
)
from helo.labelspace import batch_label_correlation

from helo.metrics import METRIC_NAMES, average_rank, metric_vector, truncate2
from helo.model import Model
from helo.training import train
from helo.transport import sinkhorn, uniform_marginal

class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"ACCEPTANCE {status}: {self.name} ({elapsed:.1f}s / {self.seconds}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"


def naive_scalar_metrics(pred, truth):
    eps = 1e-8
    n = len(truth)
    cheb = max(abs(truth[j] - pred[j]) for j in range(n))
    clark = math.sqrt(
        sum(
            0.0 if truth[j] + pred[j] == 0.0
            else (truth[j] - pred[j]) ** 2 / (truth[j] + pred[j]) ** 2
            for j in range(n)
        )
    )
    canb = sum(
        0.0 if truth[j] + pred[j] == 0.0
        else abs(truth[j] - pred[j]) / (truth[j] + pred[j])
        for j in range(n)
    )
    ts = [(truth[j] + eps) / (sum(truth) + n * eps) for j in range(n)]
    ps = [(pred[j] + eps) / (sum(pred) + n * eps) for j in range(n)]
    kl = sum(ts[j] * math.log(ts[j] / ps[j]) for j in range(n))
    cos = sum(t * p for t, p in zip(truth, pred)) / (
        math.sqrt(sum(t * t for t in truth)) * math.sqrt(sum(p * p for p in pred))
    )
    inter = sum(min(t, p) for t, p in zip(truth, pred))
    return (cheb, clark, canb, kl, cos, inter)


def test_criterion_1_metric_oracle_equivalence():
    with Budget("1 metric oracle equivalence", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            truth = rng.dirichlet(np.ones(n))
            pred = rng.dirichlet(np.ones(n))
            ours = metric_vector(pred, truth).as_tuple()
            oracle = naive_scalar_metrics(list(pred), list(truth))
            np.testing.assert_allclose(ours, oracle, atol=1e-10)


def test_criterion_2_sinkhorn_correctness():
    with Budget("2 sinkhorn correctness", 30.0):
        # (a) convergence quality on 100 random costs
        rng = np.random.default_rng(7)
        for _ in range(100):
            cost = rng.uniform(0.0, 2.0, size=(8, 8))
            plan = sinkhorn(
                cost, uniform_marginal(8), uniform_marginal(8),
                epsilon=0.1, max_iter=2000, tol=1e-6,
            )
            assert plan.converged and plan.marginal_violation <= 1e-6
        # (b) near-LP transport cost at small regularization
        for n in (2, 3, 4, 5):
            cost = rng.uniform(0.0, 2.0, size=(n, n))
            plan = sinkhorn(
                cost, uniform_marginal(n), uniform_marginal(n),
                epsilon=0.005, max_iter=40000, tol=1e-4,
            )
            best = min(
                sum(cost[i, perm[i]] for i in range(n)) / n
                for perm in itertools.permutations(range(n))
            )
            assert abs(plan.wd - best) <= 0.05, f"n={n}: {plan.wd} vs LP {best}"
        # (c) zero cost factorizes into the marginal outer product
        u = np.array([0.1, 0.2, 0.3, 0.4])
        v = np.array([0.25, 0.25, 0.25, 0.25])
        plan = sinkhorn(np.zeros((4, 4)), u, v, epsilon=0.05)
        np.testing.assert_allclose(plan.t, np.outer(u, v), atol=1e-9)


def test_criterion_3_gradient_integrity(tiny_gradcheck):
    with Budget("3 gradient integrity (3 seeds)", 60.0):
        for seed in (0, 1, 2):
            err, _, _ = tiny_gradcheck(seed)
            print(f"  seed {seed}: max relative error {err:.3e}")
            assert err <= 1e-4


def test_criterion_4_overfit_benchmark():
    with Budget("4 overfit benchmark", 120.0):
        samples = generate_synthetic(DMER_SCHEMA, 2, 32, seed=0)  # 64 samples
        train_idx, test_idx = split_subject_dependent(samples, seed=0)
        config = TrainConfig(seed=0, epochs=500)  # defaults otherwise
        model = Model(DMER_SCHEMA, config)
        history, _ = train(model, samples, train_idx, test_idx)
        losses = [rec.train_loss for rec in history]
        assert all(np.isfinite(l) for l in losses)
        assert losses[-1] < losses[0]
        final_kld = history[-1].train_kld
        print(f"  final train KL {final_kld:.2e}")
        assert final_kld < 0.01


def test_criterion_5_correlation_learning(tmp_path):
    with Budget("5 correlation learning", 300.0):
        samples = generate_synthetic(DMER_SCHEMA, 10, 100, seed=101)  # 1000 samples
        train_idx, test_idx = split_subject_dependent(samples, seed=101)
        config = TrainConfig(seed=101, epochs=30)
        model = Model(DMER_SCHEMA, config)
        m_gt = batch_label_correlation(
            labels_matrix([samples[i] for i in train_idx])
        )
        dist_init = float(np.linalg.norm(model.label_correlation() - m_gt))
        train(model, samples, train_idx, test_idx)
        dist_final = float(np.linalg.norm(model.label_correlation() - m_gt))
        print(f"  ||M_L - M_gt||_F init {dist_init:.3f} -> final {dist_final:.3f}")
        assert dist_final <= 0.5 * dist_init

        from helo.training import write_label_correlation_csv

        csv_path = tmp_path / "label_correlation.csv"
        write_label_correlation_csv(model, csv_path, config.hash(), config.seed)
        lines = [
            l for l in csv_path.read_text().splitlines() if not l.startswith("#")
        ]
        corr = np.array(
            [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
        )
        for cluster in planted_cluster_indices(DMER_SCHEMA):
            members = set(cluster)
            outside = [
                corr[i, j]
                for i in cluster
                for j in range(corr.shape[0])
                if j not in members
            ]
            boundary = float(np.mean(outside))
            for i in cluster:
                for j in cluster:
                    if i != j:
                        assert corr[i, j] > boundary, (
                            f"cluster entry ({i},{j})={corr[i, j]:.3f} "
                            f"not above inter-cluster mean {boundary:.3f}"
                        )


def test_criterion_6_ablation_harness(tmp_path):
    with Budget("6 ablation harness completeness", 600.0):
        data = tmp_path / "ablate.jsonl"
        assert run([
            "generate", "--schema", "dmer", "--subjects", "10", "--trials", "20",
            "--seed", "5", "--out", str(data),
        ]) == 0  # 200 samples
        grid = tmp_path / "grid.csv"
        assert run([
            "ablate", "--data", str(data), "--out", str(grid),
            "--epochs", "3", "--seed", "5",
            "--set", "embed_dim=32", "--set", "head_hidden1=32",
            "--set", "head_hidden2=16",
        ]) == 0
        lines = [l for l in grid.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "variant,cheb,clark,canb,kl,cos,inter"
        variants = {line.split(",")[0] for line in lines[1:]}
        assert variants == {
            "full", "wo_capf", "wo_othm", "wo_lcdca",
            "wo_eeg", "wo_gsr", "wo_ppg", "wo_video",
        }
        for line in lines[1:]:
            cells = line.split(",")[1:]
            assert len(cells) == 6
            for cell in cells:
                assert np.isfinite(float(cell)), f"NaN cell in {line}"


def test_criterion_7_protocol_fidelity():
    with Budget("7 protocol fidelity", 5.0):
        samples = generate_synthetic(DMER_SCHEMA, 3, 32, seed=0)
        train_idx, test_idx = split_subject_dependent(samples, ratio=0.8, seed=4)
        per_subject = {}
        for i in train_idx:
            per_subject.setdefault(samples[i].subject, [0, 0])[0] += 1
        for i in test_idx:
            per_subject.setdefault(samples[i].subject, [0, 0])[1] += 1
        assert all(counts == [26, 6] for counts in per_subject.values())
        assert split_subject_dependent(samples, seed=4) == (train_idx, test_idx)

        wesad = generate_synthetic(WESAD_SCHEMA, 14, 4, seed=1)
        folds = split_loso(wesad)
        assert len(folds) == 14
        assert folds == split_loso(wesad)

        scores = {
            "ours": dict(zip(METRIC_NAMES, [0.1, 0.1, 0.1, 0.2, 0.9, 0.9])),
            "baseline": dict(zip(METRIC_NAMES, [0.2, 0.2, 0.2, 0.1, 0.8, 0.8])),
        }
        table = average_rank(scores)
        assert [table.ranks["ours"][m] for m in METRIC_NAMES] == [1, 1, 1, 2, 1, 1]
        assert abs(table.average_rank["ours"] - 7 / 6) < 1e-12
        assert truncate2(table.average_rank["ours"]) == pytest.approx(1.16)


def test_criterion_8_training_determinism(tmp_path):
    with Budget("8 byte-identical training runs", 300.0):
        data = tmp_path / "det.jsonl"
        assert run([
            "generate", "--schema", "wesad", "--subjects", "3", "--trials", "8",
            "--seed", "2", "--out", str(data),
        ]) == 0
        outputs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            assert run([
                "train", "--data", str(data), "--out-dir", str(out),
                "--epochs", "3", "--seed", "13",
                "--set", "embed_dim=16", "--set", "heads=2",
                "--set", "ffn_dim=8", "--set", "head_hidden1=16",
                "--set", "head_hidden2=8", "--set", "batch_size=16",
            ]) == 0
            outputs.append(out)
        for artifact in ("history.csv", "checkpoint.json", "label_correlation.csv"):
            a = (outputs[0] / artifact).read_bytes()
            b = (outputs[1] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"
