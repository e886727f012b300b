import numpy as np
import pytest

from helo.errors import ConfigurationError, DimensionError
from helo.labelspace import (
    batch_label_correlation,
    cc_loss,
    cc_loss_backward,
    correlation_matrix,
    init_label_attention,
    init_prediction_head,
    kld_loss,
    kld_loss_backward,
    lcdca_backward,
    lcdca_forward,
    overall_loss,
    predict_head_backward,
    predict_head_forward,
)
from helo.linalg import (
    Rng,
    cosine_gram_backward,
    cosine_gram_forward,
    grad_check,
    softmax_rows,
)


# -- correlation matrices -------------------------------------------------------


def test_correlation_orthonormal_rows_identity():
    np.testing.assert_allclose(correlation_matrix(np.eye(3)), np.eye(3), atol=1e-15)


def test_correlation_collinear_rows():
    m = correlation_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert m[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_batch_label_correlation_hand_oracle():
    labels = np.array([[0.8, 0.2], [0.6, 0.4]])
    m = batch_label_correlation(labels)
    # rows of labels.T: (0.8, 0.6) and (0.2, 0.4); cos = 0.4 / (1.0 * 0.44721)
    expected = 0.4 / (1.0 * np.sqrt(0.2))
    assert m[0, 1] == pytest.approx(expected, abs=1e-12)
    assert m[0, 1] == pytest.approx(0.8944, abs=5e-5)


def test_correlation_symmetric_unit_diagonal():
    rows = Rng(3).normal(5, 7)
    m = correlation_matrix(rows)
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-12)
    assert (m >= -1.0).all() and (m <= 1.0).all()


# -- cc loss ----------------------------------------------------------------------


def test_cc_loss_zero_for_identical():
    m = correlation_matrix(Rng(1).normal(4, 4))
    assert cc_loss(m, m) == 0.0


def test_cc_loss_hand_oracle():
    assert cc_loss(np.eye(2), np.ones((2, 2))) == pytest.approx(2.0)


def test_cc_loss_symmetric_and_nonnegative():
    a = correlation_matrix(Rng(2).normal(3, 5))
    b = correlation_matrix(Rng(3).normal(3, 5))
    assert cc_loss(a, b) == cc_loss(b, a)
    assert cc_loss(a, b) >= 0.0


def test_cc_loss_shape_mismatch():
    with pytest.raises(DimensionError):
        cc_loss(np.eye(2), np.eye(3))


# -- label-correlation-driven attention ---------------------------------------------


def test_lcdca_zero_bias_reduces_to_plain_attention():
    l, d = 4, 6
    rng = Rng(7)
    params = init_label_attention(rng, l, d, "lab")
    x_m = rng.normal(l, d)
    zero_bias = np.zeros((l, l))
    out, _ = lcdca_forward(params.x_l.value, x_m, zero_bias, params)
    q = params.x_l.value @ params.w_q.value
    k = x_m @ params.w_k.value
    v = x_m @ params.w_v.value
    reference = softmax_rows((q @ k.T) / np.sqrt(d)) @ v
    np.testing.assert_array_equal(out, reference)


def test_lcdca_saturated_bias_selects_token():
    l, d = 3, 4
    rng = Rng(8)
    params = init_label_attention(rng, l, d, "lab")
    params.w_q.value[...] = 0.0  # logits vanish; only the bias remains
    bias = np.zeros((l, l))
    bias[1, 2] = 50.0
    _, cache = lcdca_forward(params.x_l.value, rng.normal(l, d), bias, params)
    attn = cache[5]
    assert attn[1, 2] == pytest.approx(1.0, abs=1e-9)


def test_lcdca_attention_rows_sum_to_one():
    l, d = 5, 8
    rng = Rng(9)
    params = init_label_attention(rng, l, d, "lab")
    m_learn = correlation_matrix(params.x_l.value)
    _, cache = lcdca_forward(params.x_l.value, rng.normal(l, d), m_learn, params)
    np.testing.assert_allclose(cache[5].sum(axis=1), 1.0, atol=1e-12)


def test_lcdca_requires_pooled_token_count():
    l, d = 4, 6
    rng = Rng(10)
    params = init_label_attention(rng, l, d, "lab")
    with pytest.raises(ConfigurationError):
        lcdca_forward(params.x_l.value, rng.normal(l + 1, d), np.zeros((l, l)), params)


# -- prediction head -----------------------------------------------------------------


def test_predict_head_zero_weights_uniform():
    rng = Rng(11)
    head = init_prediction_head(rng, 6, 8, 4, 5, "head")
    for p in (head.w1, head.b1, head.w2, head.b2, head.w3, head.b3):
        p.value[...] = 0.0
    pred, _ = predict_head_forward(rng.normal(5, 6), head)
    np.testing.assert_allclose(pred, 0.2, atol=1e-15)


def test_predict_head_normalized_over_random_draws():
    for seed in range(100):
        rng = Rng(seed)
        head = init_prediction_head(rng, 4, 6, 5, 7, "head")
        pred, _ = predict_head_forward(rng.normal(7, 4), head)
        assert abs(pred.sum() - 1.0) <= 1e-9
        assert (pred >= 0.0).all()


def test_predict_head_ten_class_output():
    rng = Rng(12)
    head = init_prediction_head(rng, 8, 12, 6, 10, "head")
    pred, _ = predict_head_forward(rng.normal(10, 8), head)
    assert pred.shape == (10,)


# -- losses ---------------------------------------------------------------------------


def test_kld_identical_distributions_zero():
    p = np.array([0.3, 0.7])
    assert kld_loss(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kld_hand_oracle():
    # 0.75*ln(1.5) + 0.25*ln(0.5) = 0.1308106...
    value = kld_loss(np.array([0.5, 0.5]), np.array([0.75, 0.25]))
    assert value == pytest.approx(0.13081, abs=5e-5)


def test_kld_nonnegative_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = rng.integers(2, 9)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert kld_loss(p, q) >= -1e-12


def test_overall_loss_composition():
    assert overall_loss(0.1, 0.2, 1.0) == pytest.approx(0.3)
    assert overall_loss(0.42, 0.0, 3.0) == pytest.approx(0.42)
    assert overall_loss(0.13081, 2.0, 0.5) == pytest.approx(1.13081)
    with pytest.raises(ConfigurationError):
        overall_loss(0.1, 0.1, -1.0)


# -- gradients through the label path ---------------------------------------------------


def test_label_path_gradients_match_finite_differences():
    l, d = 4, 4
    rng = Rng(20)
    label = init_label_attention(rng, l, d, "lab")
    head = init_prediction_head(rng, d, 6, 5, l, "head")
    x_m = rng.normal(l, d)
    target = np.random.default_rng(1).dirichlet(np.ones(l))
    m_gt = batch_label_correlation(np.random.default_rng(2).dirichlet(np.ones(l), 6))
    lam = 0.7
    registry = {
        p.name: p
        for p in (
            label.x_l, label.w_q, label.w_k, label.w_v,
            head.w1, head.b1, head.w2, head.b2, head.w3, head.b3,
        )
    }

    def forward():
        m_learn, gram_cache = cosine_gram_forward(label.x_l.value)
        x_o, att_cache = lcdca_forward(label.x_l.value, x_m, m_learn, label)
        pred, head_cache = predict_head_forward(x_o, head)
        loss = kld_loss(pred, target) + lam * cc_loss(m_learn, m_gt)
        return loss, (m_learn, gram_cache, att_cache, head_cache, pred)

    def loss_fn(_):
        return forward()[0]

    _, (m_learn, gram_cache, att_cache, head_cache, pred) = forward()
    dpred = kld_loss_backward(pred, target)
    d_x_o = predict_head_backward(dpred, head_cache, head)
    d_x_l, _, d_bias = lcdca_backward(d_x_o, att_cache, label)
    label.x_l.grad += d_x_l
    d_m = d_bias + lam * cc_loss_backward(m_learn, m_gt)
    label.x_l.grad += cosine_gram_backward(d_m, gram_cache)

    assert grad_check(loss_fn, registry, eps=1e-5) <= 1e-4
