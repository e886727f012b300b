"""Label-embedding attention, correlation alignment, and the training losses.

A learnable embedding row per emotion class induces a cosine correlation
matrix that is (a) pulled toward the batch ground-truth label correlation by
a squared-Frobenius penalty and (b) added to the attention logits when the
label embeddings query the fused multi-modal tokens.  Token arrays and
predictions may carry a leading batch axis; the label embedding and its
correlation matrix are shared by the whole batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .linalg import (
    Matrix,
    Parameter,
    Rng,
    affine_backward,
    affine_forward,
    cosine_gram_backward,
    cosine_gram_forward,
    mT,
    mean_rows_backward,
    mean_rows_forward,
    softmax_rows,
    softmax_rows_backward,
    tanh_backward,
    tanh_forward,
    weight_grad,
)

log = logging.getLogger(__name__)

PROB_SMOOTHING = 1e-8


@dataclass
class LabelAttentionParams:
    x_l: Parameter        # l x d learnable label embedding
    w_q: Parameter
    w_k: Parameter
    w_v: Parameter


@dataclass
class PredictionHeadParams:
    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter
    w3: Parameter
    b3: Parameter


# ---------------------------------------------------------------------------
# correlation matrices and the alignment loss
# ---------------------------------------------------------------------------


def correlation_matrix(rows: Matrix) -> Matrix:
    """Cosine similarity of every row pair; exactly symmetric, unit diagonal."""
    m, _ = cosine_gram_forward(np.asarray(rows, dtype=np.float64))
    return m


def batch_label_correlation(labels: Matrix) -> Matrix:
    """Ground-truth correlation from a (batch x classes) label matrix.

    Row i of the transposed matrix is class i's probability across the batch,
    so the correlation is informative only when the batch has > 1 sample.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2:
        raise DimensionError(f"label matrix must be 2-D, got {labels.shape}")
    if labels.shape[0] == 1:
        log.warning(
            "single-sample batch: ground-truth label correlation degenerates "
            "to the all-ones matrix"
        )
    return correlation_matrix(labels.T)


def cc_loss(m_learn: Matrix, m_gt: Matrix) -> float:
    """Squared Frobenius distance between the two correlation matrices."""
    if m_learn.shape != m_gt.shape:
        raise DimensionError(
            f"correlation shapes differ: {m_learn.shape} vs {m_gt.shape}"
        )
    diff = m_learn - m_gt
    return float((diff * diff).sum())


def cc_loss_backward(m_learn: Matrix, m_gt: Matrix) -> Matrix:
    return 2.0 * (m_learn - m_gt)


# ---------------------------------------------------------------------------
# label-correlation-biased cross attention
# ---------------------------------------------------------------------------


def lcdca_forward(
    x_l: Matrix, x_m: Matrix, m_learn: Matrix, params: LabelAttentionParams
):
    """Attention from label embeddings onto pooled tokens, with the learned
    correlation matrix added to the logits before the softmax."""
    n_labels, d = x_l.shape
    if x_m.shape[-2] != n_labels:
        raise ConfigurationError(
            f"label attention needs exactly {n_labels} pooled tokens, "
            f"got {x_m.shape[-2]}"
        )
    if m_learn.shape != (n_labels, n_labels):
        raise DimensionError(
            f"correlation bias must be {n_labels}x{n_labels}, got {m_learn.shape}"
        )
    q = x_l @ params.w_q.value
    k = x_m @ params.w_k.value
    v = x_m @ params.w_v.value
    sqrt_d = np.sqrt(d)
    attn = softmax_rows((q @ mT(k) + m_learn) / sqrt_d)
    out = attn @ v
    return out, (x_l, x_m, q, k, v, attn, sqrt_d)


def lcdca_backward(dout: Matrix, cache, params: LabelAttentionParams):
    """Returns (d_x_l, d_x_m, d_m_learn) and accumulates projection grads.

    The shared inputs x_l and m_learn get gradients summed over the batch.
    """
    x_l, x_m, q, k, v, attn, sqrt_d = cache
    dattn = dout @ mT(v)
    dv = mT(attn) @ dout
    params.w_v.grad += weight_grad(x_m, dv)
    dlogits = softmax_rows_backward(dattn, attn) / sqrt_d
    dq = weight_grad(mT(dlogits), k)
    dk = mT(dlogits) @ q
    params.w_q.grad += x_l.T @ dq
    params.w_k.grad += weight_grad(x_m, dk)
    d_x_l = dq @ params.w_q.value.T
    d_x_m = dk @ params.w_k.value.T + dv @ params.w_v.value.T
    return d_x_l, d_x_m, dlogits.reshape(-1, *dlogits.shape[-2:]).sum(axis=0)


# ---------------------------------------------------------------------------
# prediction head
# ---------------------------------------------------------------------------


def predict_head_forward(x_o: Matrix, params: PredictionHeadParams):
    """Mean-pool the label-attended tokens and map through the MLP + softmax.

    Each sample's pooled row goes through the MLP as its own 1-row product,
    so a prediction does not depend on the batch it was computed in.
    """
    pooled, n_rows = mean_rows_forward(x_o)
    h1_pre, c1 = affine_forward(pooled, params.w1.value, params.b1.value)
    h1 = tanh_forward(h1_pre)
    h2_pre, c2 = affine_forward(h1, params.w2.value, params.b2.value)
    h2 = tanh_forward(h2_pre)
    logits, c3 = affine_forward(h2, params.w3.value, params.b3.value)
    probs = softmax_rows(logits)
    return probs[..., 0, :], (n_rows, c1, h1, c2, h2, c3, probs)


def predict_head_backward(dprobs: np.ndarray, cache, params: PredictionHeadParams):
    n_rows, c1, h1, c2, h2, c3, probs = cache
    dlogits = softmax_rows_backward(dprobs[..., None, :], probs)
    dh2, dw3, db3 = affine_backward(dlogits, c3)
    params.w3.grad += dw3
    params.b3.grad += db3
    dh2_pre = tanh_backward(dh2, h2)
    dh1, dw2, db2 = affine_backward(dh2_pre, c2)
    params.w2.grad += dw2
    params.b2.grad += db2
    dh1_pre = tanh_backward(dh1, h1)
    dpooled, dw1, db1 = affine_backward(dh1_pre, c1)
    params.w1.grad += dw1
    params.b1.grad += db1
    return mean_rows_backward(dpooled, n_rows)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _smooth(p: np.ndarray) -> np.ndarray:
    q = p + PROB_SMOOTHING
    return q / q.sum(axis=-1, keepdims=True)


def kld_loss(pred: np.ndarray, truth: np.ndarray):
    """KL divergence of the prediction from the ground truth, both smoothed.

    One distribution gives a float; a (B, L) batch gives one value per row.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimensionError(
            f"distribution shapes differ: {pred.shape} vs {truth.shape}"
        )
    ps, ts = _smooth(pred), _smooth(truth)
    kl = (ts * np.log(ts / ps)).sum(axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def kld_loss_backward(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Gradient of kld_loss with respect to the raw prediction vector(s)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    ps, ts = _smooth(pred), _smooth(truth)
    # d ps_j / d pred_j = 1/s with s the smoothed sum; cross terms -ps_j/s.
    s = pred.sum(axis=-1, keepdims=True) + PROB_SMOOTHING * pred.shape[-1]
    dps = -ts / ps
    return (dps - (dps * ps).sum(axis=-1, keepdims=True)) / s


def overall_loss(kld: float, cc: float, lambda_cc: float) -> float:
    """Composite objective: divergence term plus weighted correlation term."""
    if lambda_cc < 0.0:
        raise ConfigurationError(f"lambda_cc must be >= 0, got {lambda_cc}")
    return float(kld + lambda_cc * cc)


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------


def init_label_attention(
    rng: Rng, n_labels: int, d: int, prefix: str
) -> LabelAttentionParams:
    # Ground-truth label correlations are nonnegative (labels are probability
    # rows), so the embedding starts in the positive orthant; its correlation
    # matrix then begins near the target range instead of near identity.
    limit = np.sqrt(6.0 / (n_labels + d))
    return LabelAttentionParams(
        x_l=Parameter(f"{prefix}.x_l", rng.glorot(n_labels, d) + limit),
        w_q=Parameter(f"{prefix}.w_q", rng.glorot(d, d)),
        w_k=Parameter(f"{prefix}.w_k", rng.glorot(d, d)),
        w_v=Parameter(f"{prefix}.w_v", rng.glorot(d, d)),
    )


def init_prediction_head(
    rng: Rng, d: int, hidden1: int, hidden2: int, n_labels: int, prefix: str
) -> PredictionHeadParams:
    return PredictionHeadParams(
        w1=Parameter(f"{prefix}.w1", rng.glorot(d, hidden1)),
        b1=Parameter(f"{prefix}.b1", np.zeros((1, hidden1))),
        w2=Parameter(f"{prefix}.w2", rng.glorot(hidden1, hidden2)),
        b2=Parameter(f"{prefix}.b2", np.zeros((1, hidden2))),
        w3=Parameter(f"{prefix}.w3", rng.glorot(hidden2, n_labels)),
        b3=Parameter(f"{prefix}.b3", np.zeros((1, n_labels))),
    )


# re-exported here so the label-embedding gradient path reads in one place
label_correlation_forward = cosine_gram_forward
label_correlation_backward = cosine_gram_backward
