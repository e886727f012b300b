import numpy as np
import pytest

from helo.config import TrainConfig
from helo.data import (
    DMER_SCHEMA,
    WESAD_SCHEMA,
    generate_synthetic,
    labels_matrix,
    split_subject_dependent,
)
from helo.labelspace import batch_label_correlation
from helo.linalg import slab_views
from helo.model import AblationSpec, Model
from helo.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    adam_step,
    evaluate_model,
    init_adam,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
    write_label_correlation_csv,
)

def tiny_config(seed=0, **overrides):
    base = dict(
        embed_dim=8,
        heads=2,
        ffn_dim=6,
        encoder_depth=1,
        tokens_per_modality=2,
        head_hidden1=10,
        head_hidden2=6,
        batch_size=8,
        epochs=3,
        seed=seed,
    )
    base.update(overrides)
    return TrainConfig(**base)

def scalar_slab(value, grad):
    """A one-entry values buffer, its gradient and fresh Adam moments."""
    state = AdamState(0, np.zeros(1), np.zeros(1))
    return np.array([value]), np.array([grad]), state


# -- adam ---------------------------------------------------------------------


def test_adam_zero_gradient_fixed_point():
    values, grads, state = scalar_slab(1.5, 0.0)
    adam_step(values, grads, state, lr=1e-3)
    assert values[0] == 1.5


def test_adam_first_step_magnitude_is_lr():
    # bias-corrected m/sqrt(v) is 1 on the first step for any constant gradient
    values, grads, state = scalar_slab(0.0, 1.0)
    adam_step(values, grads, state, lr=1e-3)
    assert values[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_lr_zero_is_identity():
    values, grads, state = scalar_slab(0.7, 2.0)
    adam_step(values, grads, state, lr=0.0)
    assert values[0] == 0.7


def test_adam_deterministic_across_runs():
    results = []
    for _ in range(2):
        rng = np.random.default_rng(0)
        values = rng.normal(size=9)
        state = AdamState(0, np.zeros(9), np.zeros(9))
        for step in range(10):
            adam_step(values, rng.normal(size=9), state, lr=1e-2)
        results.append(values)
    np.testing.assert_array_equal(results[0], results[1])


def reference_adam_step(params, m, v, step, lr):
    """Adam over one parameter array at a time, with per-name moments."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for name, p in params.items():
        g = p.grad
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
        p.value -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)


@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(),  # dmer defaults: 457k entries, 14 chunks
        TrainConfig(embed_dim=32, heads=2, ffn_dim=32, tokens_per_modality=8),
    ],
    ids=["dmer_defaults", "train_sinkhorn"],
)
def test_slab_adam_equals_per_array_reference(config):
    model = Model(DMER_SCHEMA, config)
    reference = Model(DMER_SCHEMA, config)
    state = init_adam(model)
    m = {n: np.zeros_like(p.value) for n, p in reference.params.items()}
    v = {n: np.zeros_like(p.value) for n, p in reference.params.items()}
    rng = np.random.default_rng(5)
    for step in range(1, 4):
        model.grads[...] = rng.normal(size=model.grads.size)
        for name, p in reference.params.items():
            p.grad[...] = model.params[name].grad
        adam_step(model.values, model.grads, state, lr=1e-3)
        reference_adam_step(reference.params, m, v, step, lr=1e-3)
    assert state.step == 3
    slab_m = slab_views(state.m, model.params.values())
    slab_v = slab_views(state.v, model.params.values())
    for (name, p), sm, sv in zip(reference.params.items(), slab_m, slab_v):
        assert model.params[name].value.tobytes() == p.value.tobytes(), name
        assert sm.tobytes() == m[name].tobytes(), name
        assert sv.tobytes() == v[name].tobytes(), name


# -- training loop -----------------------------------------------------------------


@pytest.fixture(scope="module")
def wesad_setup():
    samples = generate_synthetic(WESAD_SCHEMA, 3, 8, seed=11)
    train_idx, test_idx = split_subject_dependent(samples, seed=11)
    return samples, train_idx, test_idx


def test_zero_epochs_empty_history(wesad_setup):
    samples, tr_idx, te_idx = wesad_setup
    model = Model(WESAD_SCHEMA, tiny_config(epochs=0))
    before = {n: p.value.copy() for n, p in model.params.items()}
    history, _ = train(model, samples, tr_idx, te_idx)
    assert history == []
    for n, p in model.params.items():
        np.testing.assert_array_equal(before[n], p.value)


def test_training_reduces_loss_and_stays_finite(wesad_setup):
    samples, tr_idx, te_idx = wesad_setup
    model = Model(WESAD_SCHEMA, tiny_config(epochs=15))
    history, _ = train(model, samples, tr_idx, te_idx)
    losses = [rec.train_loss for rec in history]
    assert all(np.isfinite(l) for l in losses)
    assert losses[-1] < losses[0]


def test_training_deterministic(wesad_setup):
    samples, tr_idx, te_idx = wesad_setup
    hists = []
    for _ in range(2):
        model = Model(WESAD_SCHEMA, tiny_config(epochs=3))
        history, _ = train(model, samples, tr_idx, te_idx)
        hists.append(history)
    assert hists[0] == hists[1]


def test_disabling_label_attention_removes_exactly_cc(wesad_setup):
    samples, tr_idx, te_idx = wesad_setup
    model = Model(WESAD_SCHEMA, tiny_config(epochs=2), AblationSpec(disable_lcdca=True))
    history, _ = train(model, samples, tr_idx, te_idx)
    for rec in history:
        assert rec.train_cc == 0.0
        assert abs(rec.train_loss - rec.train_kld) <= 1e-12


def test_history_and_checkpoint_artifacts(tmp_path, wesad_setup):
    samples, tr_idx, te_idx = wesad_setup
    config = tiny_config(epochs=2)
    model = Model(WESAD_SCHEMA, config)
    history, state = train(model, samples, tr_idx, te_idx)

    hist_path = tmp_path / "history.csv"
    write_history_csv(history, hist_path, config.hash(), config.seed)
    lines = hist_path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "epoch,loss,cheb,clark,canb,kl,cos,inter"
    assert len(lines) == 2 + len(history)

    corr_path = tmp_path / "corr.csv"
    write_label_correlation_csv(model, corr_path, config.hash(), config.seed)
    corr_lines = corr_path.read_text().splitlines()
    assert corr_lines[1] == "," + ",".join(WESAD_SCHEMA.label_names)
    assert len(corr_lines) == 2 + WESAD_SCHEMA.label_count

    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(model, state, ckpt, {"mode": "subject_dependent", "seed": 11})
    restored, restored_state, split_info = load_checkpoint(ckpt)
    assert split_info["mode"] == "subject_dependent"
    assert restored_state.step == state.step
    for n, p in model.params.items():
        np.testing.assert_array_equal(p.value, restored.params[n].value)
    f = samples[0].features
    np.testing.assert_array_equal(model.predict(f), restored.predict(f))


def test_evaluate_model_matches_final_history_row(wesad_setup):
    samples, tr_idx, te_idx = wesad_setup
    model = Model(WESAD_SCHEMA, tiny_config(epochs=2))
    history, _ = train(model, samples, tr_idx, te_idx)
    metrics = evaluate_model(model, samples, te_idx)
    np.testing.assert_allclose(
        metrics.as_tuple(), history[-1].test_metrics.as_tuple(), atol=1e-12
    )


def test_divergence_error_names_epoch_and_batch(wesad_setup):
    from helo.errors import DivergenceError

    samples, tr_idx, te_idx = wesad_setup
    model = Model(WESAD_SCHEMA, tiny_config(epochs=2))
    model.params["head.w1"].value[0, 0] = np.nan
    with pytest.raises(DivergenceError, match=r"epoch 0, batch at sample 0"):
        train(model, samples, tr_idx, te_idx)


def test_full_model_and_allfalse_ablation_identical_histories(wesad_setup):
    from helo.model import AblationSpec

    samples, tr_idx, te_idx = wesad_setup
    full_model = Model(WESAD_SCHEMA, tiny_config(epochs=2))
    ablated = Model(WESAD_SCHEMA, tiny_config(epochs=2), AblationSpec())
    hist_full, _ = train(full_model, samples, tr_idx, te_idx)
    hist_ablated, _ = train(ablated, samples, tr_idx, te_idx)
    assert hist_full == hist_ablated


@pytest.mark.parametrize("dataset_level", [False, True])
def test_dataset_level_correlation_reaches_every_batch(
    monkeypatch, wesad_setup, dataset_level
):
    samples, tr_idx, te_idx = wesad_setup
    seen = []
    batch_loss = Model.batch_loss

    def spy(self, batch, m_gt=None, **kwargs):
        seen.append(m_gt)
        return batch_loss(self, batch, m_gt=m_gt, **kwargs)

    monkeypatch.setattr(Model, "batch_loss", spy)
    config = tiny_config(epochs=1, dataset_level_correlation=dataset_level)
    train(Model(WESAD_SCHEMA, config), samples, tr_idx, te_idx)
    assert len(seen) == -(-len(tr_idx) // config.batch_size)
    if not dataset_level:
        assert all(m_gt is None for m_gt in seen)
        return
    whole = batch_label_correlation(labels_matrix([samples[i] for i in tr_idx]))
    for m_gt in seen:
        np.testing.assert_array_equal(m_gt, whole)
