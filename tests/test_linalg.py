import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helo.attention import LN_EPS
from helo.errors import ConfigurationError, DeterminismError, DimensionError
from helo.linalg import (
    Parameter,
    Rng,
    cosine_rows_flagged,
    grad_check,
    layer_norm_forward,
    softmax_rows,
)

finite_floats = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def random_matrix(rows, cols):
    return arrays(np.float64, (rows, cols), elements=finite_floats)


# -- softmax ------------------------------------------------------------------


def test_softmax_uniform_logits():
    np.testing.assert_allclose(
        softmax_rows(np.zeros((1, 3))), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15
    )


def test_softmax_log_ratio_oracle():
    row = np.log(np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(
        softmax_rows(row), [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15
    )


def test_softmax_no_overflow_on_huge_logits():
    out = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


@given(random_matrix(5, 7))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(x):
    out = softmax_rows(x)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert (out > 0.0).all() and (out < 1.0 + 1e-12).all()


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    gamma, beta = np.ones((1, 4)), np.zeros((1, 4))
    out, _ = layer_norm_forward(np.full((2, 4), 3.7), gamma, beta, LN_EPS)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_layer_norm_hand_oracle():
    # mean 2, biased std 1 -> [-1, 1]
    out, _ = layer_norm_forward(
        np.array([[1.0, 3.0]]), np.ones((1, 2)), np.zeros((1, 2)), 0.0
    )
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-12)


def test_layer_norm_scale_annihilation():
    gamma, beta = np.zeros((1, 3)), np.full((1, 3), 2.5)
    x = np.random.default_rng(0).normal(size=(4, 3))
    out, _ = layer_norm_forward(x, gamma, beta, LN_EPS)
    np.testing.assert_allclose(out, 2.5, atol=1e-15)


def test_layer_norm_shape_mismatch():
    with pytest.raises(DimensionError):
        layer_norm_forward(np.zeros((2, 3)), np.ones((1, 4)), np.zeros((1, 4)), LN_EPS)


# -- cosine -------------------------------------------------------------------


def test_cosine_unit_diagonal():
    a = np.random.default_rng(1).normal(size=(5, 3))
    sim, _ = cosine_rows_flagged(a, a)
    np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-12)


def test_cosine_orthogonal_and_collinear():
    a = np.array([[1.0, 0.0], [1.0, 1.0]])
    b = np.array([[0.0, 1.0], [2.0, 2.0]])
    sim, _ = cosine_rows_flagged(a, b)
    assert sim[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert sim[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_cosine_zero_row_flagged_as_degenerate():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    sim, degenerate = cosine_rows_flagged(a, a)
    assert degenerate
    np.testing.assert_array_equal(sim[0], 0.0)


@given(random_matrix(4, 3), random_matrix(5, 3))
@settings(max_examples=50, deadline=None)
def test_cosine_transpose_symmetry_exact(a, b):
    ab, _ = cosine_rows_flagged(a, b)
    ba, _ = cosine_rows_flagged(b, a)
    np.testing.assert_array_equal(ab, ba.T)


# -- rng / parameter ----------------------------------------------------------


def test_rng_reproducible():
    draws = [Rng(42).normal(3, 4) for _ in range(2)]
    np.testing.assert_array_equal(draws[0], draws[1])


# -- gradient check ------------------------------------------------------------


def _quadratic_params():
    rng = Rng(7)
    return {"theta": Parameter("theta", rng.normal(3, 4))}


def _quadratic_loss(params):
    return float((params["theta"].value ** 2).sum())


def test_grad_check_quadratic_exact():
    params = _quadratic_params()
    params["theta"].grad[...] = 2.0 * params["theta"].value
    assert grad_check(_quadratic_loss, params, eps=1e-5) <= 1e-9


def test_grad_check_flags_wrong_sign():
    params = _quadratic_params()
    params["theta"].grad[...] = -2.0 * params["theta"].value
    err = grad_check(_quadratic_loss, params, eps=1e-5)
    assert err == pytest.approx(2.0, abs=1e-6)


def test_grad_check_rejects_nondeterministic_loss():
    params = _quadratic_params()
    state = {"calls": 0}

    def noisy(params):
        state["calls"] += 1
        return _quadratic_loss(params) + state["calls"] * 1e-3

    with pytest.raises(DeterminismError):
        grad_check(noisy, params, eps=1e-5)


def test_grad_check_eps_bounds():
    params = _quadratic_params()
    with pytest.raises(ConfigurationError):
        grad_check(_quadratic_loss, params, eps=1e-2)
