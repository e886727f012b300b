import itertools

import numpy as np
import pytest

from helo.errors import ConfigurationError, DimensionError
from helo.transport import (
    cost_matrix,
    sinkhorn,
    transport_tokens,
    uniform_marginal,
    write_violation_csv,
)


def lp_by_permutation_enumeration(cost: np.ndarray) -> float:
    """Exact uniform-marginal transport cost: best of all n! permutation plans."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


# -- cost matrix ---------------------------------------------------------------


def test_cost_matrix_zero_diagonal_for_identical_tokens():
    x = np.random.default_rng(0).normal(size=(4, 6))
    np.testing.assert_allclose(np.diag(cost_matrix(x, x)), 0.0, atol=1e-12)


def test_cost_matrix_antipodal_rows():
    x = np.array([[1.0, 2.0]])
    assert cost_matrix(x, -x)[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_cost_matrix_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = cost_matrix(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)))
        assert (c >= -1e-12).all() and (c <= 2.0 + 1e-12).all()


# -- sinkhorn -------------------------------------------------------------------


def test_sinkhorn_zero_cost_gives_outer_product():
    u = np.array([0.2, 0.3, 0.5])
    v = np.array([0.25, 0.25, 0.5])
    plan = sinkhorn(np.zeros((3, 3)), u, v, epsilon=0.1)
    np.testing.assert_allclose(plan.t, np.outer(u, v), atol=1e-9)
    assert plan.wd == pytest.approx(0.0, abs=1e-12)


def test_sinkhorn_2x2_near_permutation():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = sinkhorn(cost, uniform_marginal(2), uniform_marginal(2), epsilon=0.01)
    np.testing.assert_allclose(plan.t, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6)
    assert plan.wd <= 0.01


def test_sinkhorn_matches_lp_oracle_on_random_4x4():
    rng = np.random.default_rng(11)
    cost = rng.uniform(0.0, 2.0, size=(4, 4))
    # convergence is slow at small epsilon; 1e-4 marginals are plenty for wd
    plan = sinkhorn(
        cost, uniform_marginal(4), uniform_marginal(4), epsilon=0.01,
        max_iter=20000, tol=1e-4,
    )
    assert plan.converged
    assert abs(plan.wd - lp_by_permutation_enumeration(cost)) <= 0.05


def test_sinkhorn_marginals_within_tol_when_converged():
    rng = np.random.default_rng(5)
    cost = rng.uniform(0.0, 2.0, size=(8, 8))
    plan = sinkhorn(cost, uniform_marginal(8), uniform_marginal(8), epsilon=0.1)
    assert plan.converged
    assert plan.marginal_violation <= 1e-6
    assert np.abs(plan.t.sum(axis=1) - plan.u).max() <= 1e-6
    assert np.abs(plan.t.sum(axis=0) - plan.v).max() <= 1e-6
    assert (plan.t >= 0.0).all()
    assert plan.wd >= 0.0


def test_sinkhorn_violation_history_non_increasing():
    rng = np.random.default_rng(17)
    for _ in range(10):
        cost = rng.uniform(0.0, 2.0, size=(6, 6))
        plan = sinkhorn(cost, uniform_marginal(6), uniform_marginal(6), epsilon=0.05)
        hist = np.array(plan.violation_history)
        assert (np.diff(hist) <= 1e-12).all()


def test_sinkhorn_wd_monotone_in_epsilon():
    # The transport part of the entropic objective grows with epsilon,
    # approaching the LP value from above as epsilon shrinks.
    rng = np.random.default_rng(23)
    for _ in range(50):
        cost = rng.uniform(0.0, 2.0, size=(5, 5))
        u = v = uniform_marginal(5)
        wds = [
            sinkhorn(cost, u, v, epsilon=eps, max_iter=3000).wd
            for eps in (0.01, 0.05, 0.25)
        ]
        assert wds[0] <= wds[1] + 1e-9
        assert wds[1] <= wds[2] + 1e-9


def test_sinkhorn_rejects_bad_epsilon_and_marginals():
    cost = np.zeros((2, 2))
    with pytest.raises(ConfigurationError):
        sinkhorn(cost, uniform_marginal(2), uniform_marginal(2), epsilon=0.0)
    with pytest.raises(ConfigurationError):
        sinkhorn(cost, np.array([1.0, 0.0]), uniform_marginal(2), epsilon=0.1)
    with pytest.raises(DimensionError):
        sinkhorn(cost, uniform_marginal(3), uniform_marginal(2), epsilon=0.1)


def test_violation_csv_roundtrip(tmp_path):
    plan = sinkhorn(
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        uniform_marginal(2),
        uniform_marginal(2),
        epsilon=0.1,
    )
    path = tmp_path / "diag.csv"
    write_violation_csv(plan, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,violation"
    assert len(lines) == len(plan.violation_history) + 1


# -- transported tokens ----------------------------------------------------------


def test_uniform_plan_averages_tokens():
    x = np.random.default_rng(2).normal(size=(4, 3))
    plan = sinkhorn(np.zeros((4, 4)), uniform_marginal(4), uniform_marginal(4), 0.1)
    moved = transport_tokens(x, plan.t, rescale=False)
    np.testing.assert_allclose(moved, np.tile(x.mean(axis=0) / 4.0, (4, 1)), atol=1e-9)


def test_identity_like_plan_preserves_tokens_up_to_scale():
    x = np.random.default_rng(4).normal(size=(3, 5))
    plan = sinkhorn(
        2.0 - 2.0 * np.eye(3), uniform_marginal(3), uniform_marginal(3), epsilon=0.005,
        max_iter=5000,
    )
    moved = transport_tokens(x, plan.t, rescale=True)
    np.testing.assert_allclose(moved, x, atol=1e-2)
