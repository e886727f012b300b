import numpy as np
import pytest

from helo.attention import (
    LN_EPS,
    CrossAttentionParams,
    cross_attend_backward,
    cross_attend_forward,
    init_cross_attention,
    init_encoder,
    init_projection,
    multi_head_forward,
    project_modality_forward,
    transformer_encode_backward,
    transformer_encode_forward,
)
from helo.errors import ConfigurationError
from helo.linalg import (
    Parameter,
    Rng,
    grad_check,
    iter_parameters,
    layer_norm_forward,
)


def identity_param(name, n):
    return Parameter(name, np.eye(n))


def zeros_param(name, rows, cols):
    return Parameter(name, np.zeros((rows, cols)))


def normalized_residual(kv, params):
    """The key/value stream as cross_attend_forward adds it back."""
    out, _ = layer_norm_forward(kv, params.ln_gamma.value, params.ln_beta.value, LN_EPS)
    return out


def single_head_identity_params(d, modality="m"):
    return CrossAttentionParams(
        w_q=identity_param("w_q", d),
        w_k={modality: identity_param("w_k", d)},
        w_v={modality: identity_param("w_v", d)},
        w_mha=identity_param("w_mha", d),
        ln_gamma=Parameter("g", np.ones((1, d))),
        ln_beta=Parameter("b", np.zeros((1, d))),
        heads=1,
    )


# -- projection ---------------------------------------------------------------


def test_projection_identity_case():
    rng = Rng(0)
    proj = init_projection(rng, "eeg", 6, channels=2, tokens=2, d=3, prefix="p")
    proj.w.value[...] = np.eye(3)
    proj.mix.value[...] = np.eye(2)
    proj.bias.value[...] = 0.0
    raw = np.arange(6.0)
    tokens, _ = project_modality_forward(raw, proj)
    np.testing.assert_array_equal(tokens, raw.reshape(2, 3))


def test_projection_shapes_for_eeg_layout():
    rng = Rng(1)
    proj = init_projection(rng, "eeg", 90, channels=6, tokens=6, d=128, prefix="p")
    tokens, _ = project_modality_forward(np.ones(90), proj)
    assert tokens.shape == (6, 128)


def test_projection_zero_input_zero_output():
    rng = Rng(2)
    proj = init_projection(rng, "gsr", 28, channels=1, tokens=3, d=8, prefix="p")
    tokens, _ = project_modality_forward(np.zeros(28), proj)
    np.testing.assert_array_equal(tokens, 0.0)


def test_projection_rejects_bad_channel_split():
    rng = Rng(3)
    with pytest.raises(ConfigurationError):
        init_projection(rng, "ppg", 27, channels=4, tokens=2, d=8, prefix="p")


# -- cross attention ------------------------------------------------------------


def test_cross_attend_saturated_softmax_selects_one_value():
    d = 4
    params = single_head_identity_params(d)
    kv = np.zeros((3, d))
    kv[0, 0] = kv[1, 1] = kv[2, 2] = 1.0  # orthogonal keys (= values)
    query = np.zeros((3, d))
    query[0, 1] = 50.0  # saturates row 0 onto key 1
    out = cross_attend_forward(query, kv, "m", params)[0]
    residual = normalized_residual(kv, params)
    np.testing.assert_allclose(out[0], kv[1] + residual[0], atol=1e-6)


def test_cross_attend_convexity_with_identical_values():
    d = 6
    rng = Rng(5)
    params = init_cross_attention(rng, d, ["m"], heads=2, prefix="c")
    params.w_v["m"].value[...] = np.eye(d)
    params.w_mha.value[...] = np.eye(d)
    params.ln_gamma.value[...] = 0.0
    params.ln_beta.value[...] = 0.0
    v = rng.normal(1, d)
    kv = np.tile(v, (4, 1))
    query = rng.normal(4, d)
    out = cross_attend_forward(query, kv, "m", params)[0]
    np.testing.assert_allclose(out, np.tile(v, (4, 1)), atol=1e-12)


def test_cross_attend_permutation_equivariance():
    d = 8
    rng = Rng(9)
    params = init_cross_attention(rng, d, ["m"], heads=2, prefix="c")
    query = rng.normal(5, d)
    kv = rng.normal(5, d)
    perm = [3, 0, 4, 1, 2]
    residual = normalized_residual(kv, params)
    residual_p = normalized_residual(kv[perm], params)
    out = cross_attend_forward(query, kv, "m", params)[0]
    out_p = cross_attend_forward(query, kv[perm], "m", params)[0]
    np.testing.assert_allclose(out - residual, out_p - residual_p, atol=1e-9)
    np.testing.assert_allclose(residual[perm], residual_p, atol=1e-12)


def test_attention_weights_rows_sum_to_one():
    rng = Rng(11)
    q, k, v = rng.normal(6, 8), rng.normal(7, 8), rng.normal(7, 8)
    _, (attn, *_) = multi_head_forward(q, k, v, heads=4)
    assert attn.shape == (4, 6, 7)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_logit_scale_keeps_unit_std():
    # per-head scaling: unit-variance Q, K should give O(1) logits
    collected = []
    d, heads = 16, 4
    dh = d // heads
    for seed in range(100):
        rng = Rng(seed)
        q, k = rng.normal(8, d), rng.normal(8, d)
        for h in range(heads):
            qh = q[:, h * dh : (h + 1) * dh]
            kh = k[:, h * dh : (h + 1) * dh]
            collected.append((qh @ kh.T / np.sqrt(dh)).ravel())
    std = np.concatenate(collected).std()
    assert 0.5 <= std <= 2.0


def test_cross_attend_heads_must_divide_width():
    rng = Rng(13)
    with pytest.raises(ConfigurationError):
        init_cross_attention(rng, 6, ["m"], heads=4, prefix="c")


def test_cross_attend_gradients_match_finite_differences():
    d, c = 4, 3
    rng = Rng(21)
    params = init_cross_attention(rng, d, ["m"], heads=2, prefix="c")
    query = rng.normal(c, d)
    kv = rng.normal(c, d)
    probe = rng.normal(c, d)
    registry = {p.name: p for p in iter_parameters(params)}

    def loss(_):
        out, _ = cross_attend_forward(query, kv, "m", params)
        return float((out * probe).sum())

    _, cache = cross_attend_forward(query, kv, "m", params)
    cross_attend_backward(probe, cache, params)
    assert grad_check(loss, registry, eps=1e-5) <= 1e-6


# -- transformer encoder -----------------------------------------------------------


def test_encoder_zero_weights_is_identity():
    rng = Rng(31)
    enc = init_encoder(rng, 6, 4, depth=1, heads=2, prefix="e")
    for layer in enc.layers:
        for p in (layer.w_q, layer.w_k, layer.w_v, layer.w_o, layer.w_ff1, layer.w_ff2):
            p.value[...] = 0.0
    x = Rng(32).normal(5, 6)
    np.testing.assert_array_equal(transformer_encode_forward(x, enc)[0], x)


def test_encoder_preserves_shape_across_depths():
    for depth in (1, 2, 3):
        enc = init_encoder(Rng(depth), 8, 6, depth=depth, heads=2, prefix="e")
        x = Rng(100 + depth).normal(7, 8)
        assert transformer_encode_forward(x, enc)[0].shape == x.shape


def test_encoder_deterministic():
    enc = init_encoder(Rng(41), 8, 6, depth=2, heads=4, prefix="e")
    x = Rng(42).normal(5, 8)
    first, _ = transformer_encode_forward(x, enc)
    second, _ = transformer_encode_forward(x, enc)
    np.testing.assert_array_equal(first, second)


def test_encoder_gradients_match_finite_differences():
    rng = Rng(51)
    enc = init_encoder(rng, 4, 3, depth=1, heads=2, prefix="e")
    x = rng.normal(3, 4)
    probe = rng.normal(3, 4)
    registry = {p.name: p for p in iter_parameters(enc)}

    def loss(_):
        out, _ = transformer_encode_forward(x, enc)
        return float((out * probe).sum())

    _, caches = transformer_encode_forward(x, enc)
    transformer_encode_backward(probe, caches, enc)
    assert grad_check(loss, registry, eps=1e-5) <= 1e-6
