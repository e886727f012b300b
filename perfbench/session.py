"""The benchmark's workloads and the helo session each one runs.

Every run is one complete user session through helo's public Python entry
points, so every end-to-end metric is measured on every workload:

  set-up      generate_synthetic + split + Model(...), repeated; median
  train       train() for a fixed number of epochs: about --seconds on the
              seed commit and at least 100 steps
  rounds      save_checkpoint, load_checkpoint, then evaluate_model of the
              reloaded model over the whole generated set in chunks, and one
              Model.predict per sample; repeated, medians over the rounds

A workload fixes the model configuration.  Every output is checked; each
check is one attempted operation and each failed check one failed operation.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from helo import data, metrics, training
from helo.config import TrainConfig
from helo.model import Model

from tracing import StepClock

SCHEMA = data.DMER_SCHEMA
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Program defaults apart from the listed fields, including the model
    # seed: --seed makes the data, not the model.
    config: TrainConfig
    # Training time per epoch when the benchmark was written (2 CPUs).  A
    # run trains --seconds / seconds_per_epoch epochs: the same work on
    # every commit, so a faster commit does not train into another state.
    seconds_per_epoch: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_dmer",
            "dmer defaults (d=128, 4 heads, eps=0.1, 4x4 plans, B=128): attention "
            "dominates the step; batching should show here, Sinkhorn changes little",
            TrainConfig(),
            seconds_per_epoch=1.45,
        ),
        Workload(
            "train_sinkhorn",
            "8 tokens per modality (16x16 plans), d=32, eps=0.1, B=128: Sinkhorn is "
            "the largest layer; warm starts and cheaper iterations should show here",
            # Every plan must converge: the slowest solves seen take ~1300
            # iterations, far below this cap.
            TrainConfig(
                tokens_per_modality=8,
                embed_dim=32,
                heads=2,
                ffn_dim=32,
                sinkhorn_max_iter=50000,
            ),
            seconds_per_epoch=1.4,
        ),
    )
}


@dataclass(frozen=True)
class Size:
    """How much work one run does besides training."""

    worlds: int           # generate_synthetic calls, one subject each
    trials: int
    setups: int           # the set-up is repeated; setup_s is the median
    # The checkpoint and read path run in rounds, at least `rounds` of them
    # and for at least `rounds_s` seconds; their metrics are medians.
    rounds: int
    rounds_s: float
    # A round evaluates the samples in evaluate_model calls of this many, each
    # timed: a burst of load on the shared machine then slows a few of the
    # calls the median is taken over, not all of them.
    eval_chunk: int
    min_steps: int        # training steps, enough for a p90 with 10 beyond it


SIZES = {
    "full": Size(
        worlds=64,
        trials=20,
        setups=11,
        rounds=5,
        rounds_s=25.0,
        eval_chunk=256,
        min_steps=100,
    ),
    # For the benchmark's own tests: every phase and check, seconds not minutes.
    "tiny": Size(
        worlds=2,
        trials=10,
        setups=2,
        rounds=2,
        rounds_s=0.0,
        eval_chunk=256,
        min_steps=2,
    ),
}


@dataclass
class Tally:
    """Checked outputs: every check is attempted, a false one has failed."""

    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] = self.failures.get(what, 0) + 1
        return ok


@dataclass
class Session:
    metrics: dict[str, float]
    counts: dict[str, int]
    phase_s: dict[str, float]  # wall time of each phase, checks included
    wall_s: float
    round_s: dict[str, list[float]]  # each save, load and evaluate_model call


def prediction_ok(pred: np.ndarray, n_labels: int) -> bool:
    """A prediction is a finite distribution over the labels."""
    return (
        pred.shape == (n_labels,)
        and bool(np.isfinite(pred).all())
        and abs(float(pred.sum()) - 1.0) <= PROB_SUM_TOL
    )


def make_samples(seed: int, size: Size) -> list[data.Sample]:
    """One subject from each of ``size.worlds`` synthetic populations.

    Each generate_synthetic seed draws its own feature maps, and how many
    transport plans converge slowly depends on them; pooling several
    populations keeps one run's cost from hanging on a single draw.
    """
    samples = []
    for world in range(size.worlds):
        for s in data.generate_synthetic(SCHEMA, 1, size.trials, seed * size.worlds + world):
            s.subject = world
            samples.append(s)
    return samples


def _median(values) -> float:
    return float(statistics.median(values))


def run_session(
    workload: Workload,
    seed: int,
    seconds: float,
    size: Size,
    workdir: Path,
    tally: Tally,
) -> Session:
    clock = time.perf_counter
    session_start = clock()

    # -- set-up ---------------------------------------------------------------
    setup_s = []
    for _ in range(size.setups):
        t = clock()
        samples = make_samples(seed, size)
        train_idx, test_idx = data.split_subject_dependent(samples, seed=seed)
        steps_per_epoch = math.ceil(len(train_idx) / workload.config.batch_size)
        epochs = max(
            2,
            math.ceil(size.min_steps / steps_per_epoch),
            round(seconds / workload.seconds_per_epoch),
        )
        config = workload.config.with_overrides(epochs=epochs)
        model = Model(SCHEMA, config)
        setup_s.append(clock() - t)

    phase_s = {"setup": clock() - session_start}

    # -- train ----------------------------------------------------------------
    # Two epochs on a fresh model of the same seed warm the process up and
    # are the reference the measured run must repeat exactly.
    reference, _ = training.train(
        Model(SCHEMA, config.with_overrides(epochs=2)), samples, train_idx, test_idx
    )
    with StepClock() as steps:
        t = clock()
        history, state = training.train(model, samples, train_idx, test_idx)
        train_s = clock() - t
    tally.check("step clock restored", not steps.unrestored)
    losses = [r.train_loss for r in history]
    tally.check("history repeats for the same seed", history[: len(reference)] == reference)
    tally.check("train losses finite", all(math.isfinite(x) for x in losses))
    tally.check("train loss falls from first to last epoch", losses[-1] < losses[0])
    for s in [samples[i] for i in test_idx]:
        tally.check("transport plan converged", model.forward_sample(s.features).plan.converged)

    phase_s["train"] = clock() - session_start - sum(phase_s.values())

    # -- checkpoint and read path, in rounds --------------------------------
    # A round saves and reloads the model, then, chunk by chunk, evaluates the
    # reloaded model on the chunk and predicts each of its samples once.  The
    # rounds fill the rest of the run and every metric is a median over them,
    # so a slow spell of the shared machine moves a few rounds, not a whole
    # metric.
    split_info = {"mode": "subject_dependent", "ratio": 0.8, "seed": seed}
    reference_preds = {i: model.predict(samples[i].features) for i in test_idx}
    everything = range(len(samples))
    chunks = [everything[i : i + size.eval_chunk] for i in everything[:: size.eval_chunk]]
    labels = [s.label for s in samples]
    save_s, load_s, eval_s, eval_per_s = [], [], [], []
    latency_ms: dict[int, list[float]] = {i: [] for i in everything}
    rounds_start = clock()
    while len(save_s) < size.rounds or clock() - rounds_start < size.rounds_s:
        # A new file each time: ext4 flushes a file that is truncated and
        # rewritten, which would time the disk instead of the save.
        path = workdir / f"checkpoint-{len(save_s)}.json"
        t = clock()
        training.save_checkpoint(model, state, path, split_info)
        save_s.append(clock() - t)
        ckpt_bytes = path.stat().st_size
        t = clock()
        loaded, _, _ = training.load_checkpoint(path)
        load_s.append(clock() - t)
        path.unlink()

        for chunk in chunks:
            t = clock()
            evaluated = training.evaluate_model(loaded, samples, chunk)
            eval_s.append(clock() - t)
            eval_per_s.append(len(chunk) / eval_s[-1])
            preds = []
            for i in chunk:
                t = clock()
                pred = loaded.predict(samples[i].features)
                latency_ms[i].append((clock() - t) * 1e3)
                preds.append(pred)
                ok = prediction_ok(pred, SCHEMA.label_count)
                if i in reference_preds:
                    ok = ok and np.array_equal(pred, reference_preds[i])
                tally.check("prediction of the reloaded model", ok)
            tally.check(
                "evaluate_model equals evaluate_set over predict outputs",
                evaluated == metrics.evaluate_set(preds, [labels[i] for i in chunk]),
            )
    # A sample's latency is its median over the rounds.
    predict_ms = [statistics.median(v) for v in latency_ms.values()]

    phase_s["rounds"] = clock() - session_start - sum(phase_s.values())

    n_train = len(train_idx) * len(history)
    e2e = {
        "setup_s": _median(setup_s),
        "train_samples_per_s": n_train / train_s,
        "train_step_ms_p50": float(np.percentile(steps.steps_ms, 50)),
        "train_step_ms_p90": float(np.percentile(steps.steps_ms, 90)),
        "ckpt_save_s": _median(save_s),
        "ckpt_mb": ckpt_bytes / 1e6,
        "ckpt_load_s": _median(load_s),
        "eval_samples_per_s": _median(eval_per_s),
        "predict_ms_p50": float(np.percentile(predict_ms, 50)),
        "predict_ms_p90": float(np.percentile(predict_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {
        "setups": len(setup_s),
        "train_steps": len(steps.steps_ms),
        "train_epochs": len(history),
        "train_samples": n_train,
        "rounds": len(save_s),
        "eval_samples": len(samples),
        "eval_calls": len(eval_s),
        "predicts": len(predict_ms) * len(save_s),
    }
    round_s = {"save": save_s, "load": load_s, "evaluate": eval_s}
    return Session(e2e, counts, phase_s, clock() - session_start, round_s)
