import numpy as np
import pytest

import helo
from helo.config import TrainConfig
from helo.data import DMER_SCHEMA, WESAD_SCHEMA, generate_synthetic
from helo.errors import ConfigurationError
from helo.model import AblationSpec, Model, ablation_grid


def small_config(seed=0, **overrides):
    base = dict(
        embed_dim=8,
        heads=2,
        ffn_dim=6,
        encoder_depth=1,
        tokens_per_modality=2,
        head_hidden1=10,
        head_hidden2=6,
        batch_size=8,
        epochs=1,
        seed=seed,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dmer_samples():
    return generate_synthetic(DMER_SCHEMA, 2, 4, seed=3)


def test_forward_produces_distribution(dmer_samples):
    model = Model(DMER_SCHEMA, small_config())
    pred = model.predict(dmer_samples[0].features)
    assert pred.shape == (10,)
    assert pred.sum() == pytest.approx(1.0, abs=1e-9)
    assert (pred >= 0).all()


def test_full_model_wiring(dmer_samples):
    model = Model(DMER_SCHEMA, small_config())
    assert model.query_modality == "eeg"
    assert model.kv_modalities == ["gsr", "ppg"]
    assert model.behavioral == "video"
    c = model.config.tokens_per_modality
    assert model.n_phy_tokens == 2 * c
    assert model.n_fused == 4 * c
    cache = model.forward_sample(dmer_samples[0].features)
    assert cache.x_phy.shape == (2 * c, 8)
    assert cache.plan.t.shape == (2 * c, 2 * c)
    assert cache.x_m.shape == (4 * c, 8)
    assert cache.pooled.shape == (10, 8)


def test_wesad_wiring():
    model = Model(WESAD_SCHEMA, small_config())
    assert model.query_modality == "ecg"
    assert model.kv_modalities == ["eda", "emg"]
    assert model.behavioral == "acc"


def test_all_false_ablation_identical_to_full(dmer_samples):
    full = Model(DMER_SCHEMA, small_config())
    ablated = Model(DMER_SCHEMA, small_config(), AblationSpec())
    for name, p in full.params.items():
        np.testing.assert_array_equal(p.value, ablated.params[name].value)
    f = dmer_samples[0].features
    np.testing.assert_array_equal(full.predict(f), ablated.predict(f))


def test_query_reassignment_without_eeg(dmer_samples):
    model = Model(
        DMER_SCHEMA, small_config(), AblationSpec(excluded_modalities=frozenset({"eeg"}))
    )
    assert model.query_modality == "gsr"
    assert model.kv_modalities == ["ppg"]
    # still runs end to end
    total, kld, cc, _ = model.batch_loss(dmer_samples[:3])
    assert np.isfinite(total)


def test_disable_capf_concatenates_all_physiological(dmer_samples):
    model = Model(DMER_SCHEMA, small_config(), AblationSpec(disable_capf=True))
    c = model.config.tokens_per_modality
    assert model.n_phy_tokens == 3 * c
    cache = model.forward_sample(dmer_samples[0].features)
    assert cache.x_phy.shape == (3 * c, 8)
    assert cache.plan.t.shape == (3 * c, 3 * c)


def test_disable_othm_keeps_tokens_unmixed(dmer_samples):
    model = Model(DMER_SCHEMA, small_config(), AblationSpec(disable_othm=True))
    cache = model.forward_sample(dmer_samples[0].features)
    assert cache.plan is None
    np.testing.assert_array_equal(cache.transported, cache.x_phy)


def test_disable_lcdca_drops_cc_term(dmer_samples):
    model = Model(DMER_SCHEMA, small_config(), AblationSpec(disable_lcdca=True))
    total, kld, cc, _ = model.batch_loss(dmer_samples[:4])
    assert cc == 0.0
    assert total == kld


def test_behavioral_removal_bypasses_transport(dmer_samples):
    model = Model(
        DMER_SCHEMA,
        small_config(),
        AblationSpec(excluded_modalities=frozenset({"video"})),
    )
    assert model.behavioral is None
    cache = model.forward_sample(dmer_samples[0].features)
    assert cache.plan is None
    np.testing.assert_array_equal(cache.transported, cache.x_phy)
    assert cache.x_m.shape == (model.n_phy_tokens, 8)


def test_ablation_grid_covers_components_and_modalities():
    labels = {spec.label() for spec in ablation_grid(DMER_SCHEMA)}
    assert labels == {
        "full",
        "wo_capf",
        "wo_othm",
        "wo_lcdca",
        "wo_eeg",
        "wo_gsr",
        "wo_ppg",
        "wo_video",
    }


def test_every_grid_variant_trains_a_step(dmer_samples):
    for spec in ablation_grid(DMER_SCHEMA):
        model = Model(DMER_SCHEMA, small_config(), spec)
        total, _, _, _ = model.batch_loss(dmer_samples[:2])
        assert np.isfinite(total), spec.label()


def offset_in(buffer, view):
    start = view.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
    return start // buffer.itemsize


@pytest.mark.parametrize("spec", ablation_grid(DMER_SCHEMA), ids=AblationSpec.label)
def test_parameters_are_disjoint_views_covering_both_slabs(spec):
    model = Model(DMER_SCHEMA, small_config(), spec)
    assert not np.shares_memory(model.values, model.grads)
    for buffer, attr in ((model.values, "value"), (model.grads, "grad")):
        assert buffer.dtype == np.float64 and buffer.ndim == 1
        covered = np.zeros(buffer.size, dtype=int)
        for p in model.params.values():
            view = getattr(p, attr)
            assert np.shares_memory(view, buffer) and view.flags.c_contiguous
            start = offset_in(buffer, view)
            covered[start : start + view.size] += 1
        assert (covered == 1).all()
    model.grads[...] = 1.0
    model.zero_grads()
    assert all((p.grad == 0.0).all() for p in model.params.values())


def test_excluding_all_physiological_rejected():
    with pytest.raises(ConfigurationError):
        Model(
            DMER_SCHEMA,
            small_config(),
            AblationSpec(excluded_modalities=frozenset({"eeg", "gsr", "ppg"})),
        )


def test_excluding_unknown_modality_rejected():
    with pytest.raises(ConfigurationError):
        Model(
            DMER_SCHEMA, small_config(), AblationSpec(excluded_modalities=frozenset({"emg"}))
        )


def test_batch_loss_deterministic(dmer_samples):
    model = Model(DMER_SCHEMA, small_config())
    t1, k1, c1, _ = model.batch_loss(dmer_samples[:4])
    g1 = {n: p.grad.copy() for n, p in model.params.items()}
    t2, k2, c2, _ = model.batch_loss(dmer_samples[:4])
    assert (t1, k1, c1) == (t2, k2, c2)
    for n, p in model.params.items():
        np.testing.assert_array_equal(g1[n], p.grad)


def test_plan_reuse_matches_recompute(dmer_samples):
    model = Model(DMER_SCHEMA, small_config())
    samples = dmer_samples[:4]
    fresh = model.batch_loss(samples)
    fresh_grads = model.grads.copy()
    frozen = model.batch_loss(samples, t=fresh[3].t)
    assert frozen[:3] == fresh[:3]
    assert frozen[3].plans is None  # nothing was solved
    assert model.grads.tobytes() == fresh_grads.tobytes()


def test_every_public_name_resolves():
    for name in helo.__all__:
        assert getattr(helo, name) is not None, name
