import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helo.errors import DimensionError, EmptySetError, IncompleteTableError
from helo.metrics import (
    METRIC_NAMES,

    average_rank,
    evaluate_set,
    metric_matrix,
    metric_vector,
    render_rank_csv,
    render_rank_text,
    truncate2,
)

def naive_metrics(pred, truth):
    """Independent scalar oracle: plain loops, no shared code with the package."""
    eps = 1e-8
    n = len(truth)
    cheb = max(abs(truth[j] - pred[j]) for j in range(n))
    clark = math.sqrt(
        sum(
            0.0
            if truth[j] + pred[j] == 0.0
            else (truth[j] - pred[j]) ** 2 / (truth[j] + pred[j]) ** 2
            for j in range(n)
        )
    )
    canberra = sum(
        0.0
        if truth[j] + pred[j] == 0.0
        else abs(truth[j] - pred[j]) / (truth[j] + pred[j])
        for j in range(n)
    )
    ts = [(truth[j] + eps) / (sum(truth) + n * eps) for j in range(n)]
    ps = [(pred[j] + eps) / (sum(pred) + n * eps) for j in range(n)]
    kl = sum(ts[j] * math.log(ts[j] / ps[j]) for j in range(n))
    dot = sum(truth[j] * pred[j] for j in range(n))
    nt = math.sqrt(sum(x * x for x in truth))
    npr = math.sqrt(sum(x * x for x in pred))
    cos = dot / (nt * npr)
    inter = sum(min(truth[j], pred[j]) for j in range(n))
    return (cheb, clark, canberra, kl, cos, inter)


def random_pair(rng, n):
    return rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))


# -- single-pair metrics -----------------------------------------------------------


def test_perfect_prediction():
    p = np.array([0.2, 0.3, 0.5])
    m = metric_vector(p, p)
    assert m.chebyshev == 0.0
    assert m.clark == 0.0
    assert m.canberra == 0.0
    assert m.kl == pytest.approx(0.0, abs=1e-12)
    assert m.cosine == pytest.approx(1.0, abs=1e-12)
    assert m.intersection == pytest.approx(1.0, abs=1e-12)


def test_hand_oracle_pair():
    truth = np.array([1.0, 0.0])
    pred = np.array([0.5, 0.5])
    m = metric_vector(pred, truth)
    assert m.chebyshev == pytest.approx(0.5)
    assert m.intersection == pytest.approx(0.5)
    assert m.cosine == pytest.approx(0.5 / (1.0 * math.sqrt(0.5)), abs=1e-12)
    assert m.cosine == pytest.approx(0.70711, abs=5e-6)
    assert m.canberra == pytest.approx(0.5 / 1.5 + 0.5 / 0.5)  # 4/3
    assert m.clark == pytest.approx(math.sqrt(0.25 / 2.25 + 0.25 / 0.25))


def test_joint_permutation_invariance():
    rng = np.random.default_rng(0)
    truth, pred = random_pair(rng, 6)
    perm = rng.permutation(6)
    a = metric_vector(pred, truth)
    b = metric_vector(pred[perm], truth[perm])
    np.testing.assert_allclose(a.as_tuple(), b.as_tuple(), atol=1e-12)


def test_metric_oracle_equivalence_on_1000_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        truth, pred = random_pair(rng, n)
        ours = metric_vector(pred, truth).as_tuple()
        oracle = naive_metrics(list(pred), list(truth))
        np.testing.assert_allclose(ours, oracle, atol=1e-10)


def test_distance_zero_iff_equal_similarity_max_iff_equal():
    rng = np.random.default_rng(7)
    truth, pred = random_pair(rng, 5)
    m = metric_vector(pred, truth)
    assert m.chebyshev > 0 and m.clark > 0 and m.canberra > 0 and m.kl > 0
    assert m.cosine < 1.0 and m.intersection < 1.0


def test_term_bounds():
    rng = np.random.default_rng(9)
    for n in (2, 5, 11):
        truth, pred = random_pair(rng, n)
        m = metric_vector(pred, truth)
        assert m.canberra <= n
        assert m.clark <= math.sqrt(n)


def test_clark_of_tiny_entries_is_their_ratio_squared():
    # (t + p)^2 underflows to 0 here; the term is ((t - p) / (t + p))^2
    m = metric_vector(np.array([1e-200, 1.0]), np.array([1e-170, 1.0]))
    assert m.clark == pytest.approx(1.0, rel=1e-12)
    assert m.canberra == pytest.approx(1.0, rel=1e-12)


def test_length_mismatch():
    with pytest.raises(DimensionError):
        metric_vector(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))


# -- set evaluation -------------------------------------------------------------------


def test_evaluate_set_singleton_and_duplicates():
    rng = np.random.default_rng(3)
    truth, pred = random_pair(rng, 4)
    single = evaluate_set([pred], [truth])
    assert single == metric_vector(pred, truth)
    doubled = evaluate_set([pred, pred], [truth, truth])
    np.testing.assert_allclose(doubled.as_tuple(), single.as_tuple(), atol=1e-15)


def test_evaluate_set_componentwise_mean():
    rng = np.random.default_rng(4)
    t1, p1 = random_pair(rng, 3)
    t2, p2 = random_pair(rng, 3)
    mean = evaluate_set([p1, p2], [t1, t2])
    a, b = metric_vector(p1, t1), metric_vector(p2, t2)
    expected = [(x + y) / 2 for x, y in zip(a.as_tuple(), b.as_tuple())]
    np.testing.assert_allclose(mean.as_tuple(), expected, atol=1e-15)


def test_evaluate_set_empty():
    with pytest.raises(EmptySetError):
        evaluate_set([], [])


@st.composite
def prediction_truth_batches(draw):
    n = draw(st.integers(1, 6))
    width = draw(st.integers(1, 8))
    # exact zeros are common, so rows of zeros and both-zero entries occur
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rows = st.lists(st.lists(entry, min_size=width, max_size=width),
                    min_size=n, max_size=n)
    return np.array(draw(rows)), np.array(draw(rows))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch=prediction_truth_batches())
def test_metric_rows_are_batch_invariant(batch):
    preds, truths = batch
    rows = metric_matrix(preds, truths)
    assert rows.shape == (len(preds), len(METRIC_NAMES))
    assert np.isfinite(rows).all()
    for i, (pred, truth) in enumerate(zip(preds, truths)):
        alone = metric_matrix(pred[None], truth[None])[0]
        assert rows[i].tobytes() == alone.tobytes()
        assert tuple(rows[i]) == metric_vector(pred, truth).as_tuple()
        # the both-zero limit: such entries add nothing to Clark or Canberra
        kept = (pred != 0.0) | (truth != 0.0)
        if not kept.any():
            assert rows[i][1] == rows[i][2] == 0.0
        elif not kept.all():
            without = metric_vector(pred[kept], truth[kept])
            assert rows[i][1] == pytest.approx(without.clark, rel=1e-12, abs=0.0)
            assert rows[i][2] == pytest.approx(without.canberra, rel=1e-12, abs=0.0)
        if not pred.any() or not truth.any():
            assert rows[i][4] == 0.0  # zero-norm cosine
    mean = evaluate_set(preds, truths).as_tuple()
    assert mean == tuple(float(x) for x in rows.mean(axis=0))


# -- rank aggregation --------------------------------------------------------------------


def test_single_method_all_ranks_one():
    scores = {"only": dict(zip(METRIC_NAMES, [0.1, 0.2, 0.3, 0.4, 0.9, 0.8]))}
    table = average_rank(scores)
    assert table.average_rank["only"] == 1.0


def test_reported_rank_pattern_reproduced():
    # rank pattern (1,1,1,2,1,1) -> mean 7/6, reported as 1.16
    scores = {
        "ours": dict(zip(METRIC_NAMES, [0.1, 0.1, 0.1, 0.2, 0.9, 0.9])),
        "other": dict(zip(METRIC_NAMES, [0.2, 0.2, 0.2, 0.1, 0.8, 0.8])),
    }
    table = average_rank(scores)
    ranks = [table.ranks["ours"][m] for m in METRIC_NAMES]
    assert ranks == [1, 1, 1, 2, 1, 1]
    assert table.average_rank["ours"] == pytest.approx(7 / 6, abs=1e-12)
    assert truncate2(table.average_rank["ours"]) == pytest.approx(1.16)


def test_ties_share_mean_rank():
    scores = {
        "a": dict(zip(METRIC_NAMES, [0.5, 1, 1, 1, 1, 1])),
        "b": dict(zip(METRIC_NAMES, [0.5, 2, 2, 2, 0, 0])),
    }
    table = average_rank(scores)
    assert table.ranks["a"]["chebyshev"] == 1.5
    assert table.ranks["b"]["chebyshev"] == 1.5


def test_rank_invariant_to_monotone_rescaling():
    rng = np.random.default_rng(5)
    scores = {
        f"m{i}": dict(zip(METRIC_NAMES, rng.uniform(0.1, 1.0, 6))) for i in range(4)
    }
    base = average_rank(scores)
    rescaled = {
        m: {k: (v**3 if k == "kl" else v) for k, v in s.items()}
        for m, s in scores.items()
    }
    assert average_rank(rescaled).ranks == base.ranks


def test_missing_cell_rejected():
    scores = {"a": {m: 1.0 for m in METRIC_NAMES[:-1]}}
    with pytest.raises(IncompleteTableError):
        average_rank(scores)


def test_renderers_include_all_methods():
    scores = {
        "x": dict(zip(METRIC_NAMES, [0.1, 0.2, 0.3, 0.4, 0.9, 0.8])),
        "y": dict(zip(METRIC_NAMES, [0.2, 0.3, 0.4, 0.5, 0.8, 0.7])),
    }
    table = average_rank(scores)
    csv = render_rank_csv(table)
    text = render_rank_text(table)
    for out in (csv, text):
        assert "x" in out and "y" in out and "average_rank" in out
