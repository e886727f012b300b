"""Cross-attention fusion of physiological streams and a small encoder.

One modality supplies the queries; every other physiological modality is
attended to separately with its own key/value projections, after which the
per-modality outputs are concatenated along the token axis.  The same
multi-head kernel drives the self-attention encoder reused by the transport
fusion stage.  Token arrays are (..., T, d): a leading batch axis carries a
whole batch through one call.  Forward functions return explicit caches so
the matching backward functions can accumulate gradients, summed over the
batch, without an autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .linalg import (
    Matrix,
    Parameter,
    Rng,
    bias_grad,
    layer_norm_backward,
    layer_norm_forward,
    mT,
    softmax_rows,
    softmax_rows_backward,
    tanh_backward,
    tanh_forward,
    weight_grad,
)

LN_EPS = 1e-5


@dataclass
class ModalityProjection:
    """Maps one flat feature vector to a grid of embedding tokens.

    The vector is reshaped to (channels x dim/channels), projected to the
    shared width d, then a learned token-mixing matrix maps the channel rows
    to the configured token count.
    """

    modality: str
    channels: int
    w: Parameter          # (dim/channels) x d
    mix: Parameter        # tokens x channels
    bias: Parameter       # 1 x d


@dataclass
class CrossAttentionParams:
    w_q: Parameter
    w_k: dict[str, Parameter]
    w_v: dict[str, Parameter]
    w_mha: Parameter
    ln_gamma: Parameter
    ln_beta: Parameter
    heads: int


@dataclass
class EncoderLayerParams:
    ln1_gamma: Parameter
    ln1_beta: Parameter
    w_q: Parameter
    w_k: Parameter
    w_v: Parameter
    w_o: Parameter
    ln2_gamma: Parameter
    ln2_beta: Parameter
    w_ff1: Parameter
    b_ff1: Parameter
    w_ff2: Parameter
    b_ff2: Parameter


@dataclass
class EncoderParams:
    layers: list[EncoderLayerParams]
    heads: int


# ---------------------------------------------------------------------------
# modality projection
# ---------------------------------------------------------------------------


def project_modality_forward(raw: np.ndarray, proj: ModalityProjection):
    """Feature vectors (..., dim) to token grids (..., tokens, d)."""
    raw = np.asarray(raw, dtype=np.float64)
    channels = proj.channels
    size = raw.shape[-1]
    if size % channels != 0:
        raise DimensionError(
            f"{proj.modality}: {size} features not divisible by "
            f"{channels} channels"
        )
    grid = raw.reshape(*raw.shape[:-1], channels, size // channels)
    if grid.shape[-1] != proj.w.shape[0]:
        raise DimensionError(
            f"{proj.modality}: projection expects width {proj.w.shape[0]}, "
            f"got {grid.shape[-1]}"
        )
    if proj.mix.shape[1] != channels:
        raise DimensionError(
            f"{proj.modality}: token mixing expects {proj.mix.shape[1]} channels, "
            f"got {channels}"
        )
    projected = grid @ proj.w.value            # ... x channels x d
    tokens = proj.mix.value @ projected + proj.bias.value
    return tokens, (grid, projected)


def project_modality_backward(dtokens: Matrix, cache, proj: ModalityProjection) -> None:
    grid, projected = cache
    proj.bias.grad += bias_grad(dtokens)
    proj.mix.grad += weight_grad(mT(dtokens), mT(projected))
    dprojected = proj.mix.value.T @ dtokens
    proj.w.grad += weight_grad(grid, dprojected)


# ---------------------------------------------------------------------------
# multi-head attention kernel
# ---------------------------------------------------------------------------


def _split_heads(x: Matrix, heads: int):
    """(..., T, width) -> (..., heads, T, width / heads), a view."""
    *lead, tokens, width = x.shape
    if width % heads != 0:
        raise ConfigurationError(f"{heads} heads do not divide width {width}")
    return x.reshape(*lead, tokens, heads, width // heads).swapaxes(-2, -3)


def _merge_heads(x: Matrix) -> Matrix:
    """(..., heads, T, width / heads) -> (..., T, width), heads side by side."""
    x = x.swapaxes(-2, -3)
    return x.reshape(*x.shape[:-2], -1)


def multi_head_forward(q: Matrix, k: Matrix, v: Matrix, heads: int):
    """Per-head softmax(Q K^T / sqrt(d_head)) V, heads concatenated."""
    scale = 1.0 / np.sqrt(q.shape[-1] / heads)
    qh, kh, vh = (_split_heads(x, heads) for x in (q, k, v))
    attn = softmax_rows((qh @ mT(kh)) * scale)
    return _merge_heads(attn @ vh), (attn, qh, kh, vh, scale)


def multi_head_backward(dout: Matrix, cache):
    attn, qh, kh, vh, scale = cache
    dhead = _split_heads(dout, attn.shape[-3])
    dattn = dhead @ mT(vh)
    dv = mT(attn) @ dhead
    dlogits = softmax_rows_backward(dattn, attn)
    dq = (dlogits @ kh) * scale
    dk = (mT(dlogits) @ qh) * scale
    return _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)


# ---------------------------------------------------------------------------
# cross-attention block
# ---------------------------------------------------------------------------


def cross_attend_forward(
    query_tokens: Matrix,
    kv_tokens: Matrix,
    modality: str,
    params: CrossAttentionParams,
):
    """Query one modality against another; adds the normalized key/value
    stream back as the residual."""
    if query_tokens.shape[-1] != kv_tokens.shape[-1]:
        raise DimensionError(
            f"query width {query_tokens.shape[-1]} != key/value width "
            f"{kv_tokens.shape[-1]}"
        )
    q = query_tokens @ params.w_q.value
    k = kv_tokens @ params.w_k[modality].value
    v = kv_tokens @ params.w_v[modality].value
    heads_out, mha_cache = multi_head_forward(q, k, v, params.heads)
    projected = heads_out @ params.w_mha.value
    residual, ln_cache = layer_norm_forward(
        kv_tokens, params.ln_gamma.value, params.ln_beta.value, LN_EPS
    )
    out = projected + residual
    cache = (query_tokens, kv_tokens, modality, q, k, v, heads_out, mha_cache, ln_cache)
    return out, cache


def cross_attend_backward(dout: Matrix, cache, params: CrossAttentionParams):
    query_tokens, kv_tokens, modality, q, k, v, heads_out, mha_cache, ln_cache = cache
    params.w_mha.grad += weight_grad(heads_out, dout)
    dheads = dout @ params.w_mha.value.T
    dq, dk, dv = multi_head_backward(dheads, mha_cache)
    params.w_q.grad += weight_grad(query_tokens, dq)
    params.w_k[modality].grad += weight_grad(kv_tokens, dk)
    params.w_v[modality].grad += weight_grad(kv_tokens, dv)
    dquery = dq @ params.w_q.value.T
    dkv = dk @ params.w_k[modality].value.T + dv @ params.w_v[modality].value.T
    dln, dgamma, dbeta = layer_norm_backward(dout, ln_cache)
    params.ln_gamma.grad += dgamma
    params.ln_beta.grad += dbeta
    return dquery, dkv + dln


# ---------------------------------------------------------------------------
# transformer encoder
# ---------------------------------------------------------------------------


def _encoder_layer_forward(x: Matrix, layer: EncoderLayerParams, heads: int):
    n1, ln1_cache = layer_norm_forward(
        x, layer.ln1_gamma.value, layer.ln1_beta.value, LN_EPS
    )
    q = n1 @ layer.w_q.value
    k = n1 @ layer.w_k.value
    v = n1 @ layer.w_v.value
    heads_out, mha_cache = multi_head_forward(q, k, v, heads)
    y = x + heads_out @ layer.w_o.value
    n2, ln2_cache = layer_norm_forward(
        y, layer.ln2_gamma.value, layer.ln2_beta.value, LN_EPS
    )
    pre = n2 @ layer.w_ff1.value + layer.b_ff1.value
    act = tanh_forward(pre)
    out = y + act @ layer.w_ff2.value + layer.b_ff2.value
    cache = (n1, q, k, v, heads_out, mha_cache, ln1_cache, y, n2, ln2_cache, act)
    return out, cache


def _encoder_layer_backward(dout: Matrix, cache, layer: EncoderLayerParams, heads: int):
    n1, q, k, v, heads_out, mha_cache, ln1_cache, y, n2, ln2_cache, act = cache
    layer.b_ff2.grad += bias_grad(dout)
    layer.w_ff2.grad += weight_grad(act, dout)
    dact = dout @ layer.w_ff2.value.T
    dpre = tanh_backward(dact, act)
    layer.b_ff1.grad += bias_grad(dpre)
    layer.w_ff1.grad += weight_grad(n2, dpre)
    dn2 = dpre @ layer.w_ff1.value.T
    dy, dg2, db2 = layer_norm_backward(dn2, ln2_cache)
    layer.ln2_gamma.grad += dg2
    layer.ln2_beta.grad += db2
    dy = dy + dout
    layer.w_o.grad += weight_grad(heads_out, dy)
    dheads = dy @ layer.w_o.value.T
    dq, dk, dv = multi_head_backward(dheads, mha_cache)
    layer.w_q.grad += weight_grad(n1, dq)
    layer.w_k.grad += weight_grad(n1, dk)
    layer.w_v.grad += weight_grad(n1, dv)
    dn1 = dq @ layer.w_q.value.T + dk @ layer.w_k.value.T + dv @ layer.w_v.value.T
    dx, dg1, db1 = layer_norm_backward(dn1, ln1_cache)
    layer.ln1_gamma.grad += dg1
    layer.ln1_beta.grad += db1
    return dx + dy


def transformer_encode_forward(x: Matrix, params: EncoderParams):
    """Pre-norm self-attention + feed-forward blocks, shape preserving."""
    caches = []
    out = x
    for layer in params.layers:
        out, cache = _encoder_layer_forward(out, layer, params.heads)
        caches.append(cache)
    return out, caches


def transformer_encode_backward(dout: Matrix, caches, params: EncoderParams) -> Matrix:
    dx = dout
    for layer, cache in zip(reversed(params.layers), reversed(caches)):
        dx = _encoder_layer_backward(dx, cache, layer, params.heads)
    return dx


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------


def init_projection(
    rng: Rng,
    modality: str,
    feature_dim: int,
    channels: int,
    tokens: int,
    d: int,
    prefix: str,
) -> ModalityProjection:
    if feature_dim % channels != 0:
        raise ConfigurationError(
            f"{modality}: {channels} channels do not divide {feature_dim} features"
        )
    width = feature_dim // channels
    return ModalityProjection(
        modality=modality,
        channels=channels,
        w=Parameter(f"{prefix}.w", rng.glorot(width, d)),
        mix=Parameter(f"{prefix}.mix", rng.glorot(tokens, channels)),
        bias=Parameter(f"{prefix}.bias", np.zeros((1, d))),
    )


def init_cross_attention(
    rng: Rng, d: int, kv_modalities: list[str], heads: int, prefix: str
) -> CrossAttentionParams:
    if d % heads != 0:
        raise ConfigurationError(f"{heads} heads do not divide embedding size {d}")
    return CrossAttentionParams(
        w_q=Parameter(f"{prefix}.w_q", rng.glorot(d, d)),
        w_k={
            m: Parameter(f"{prefix}.w_k.{m}", rng.glorot(d, d)) for m in kv_modalities
        },
        w_v={
            m: Parameter(f"{prefix}.w_v.{m}", rng.glorot(d, d)) for m in kv_modalities
        },
        w_mha=Parameter(f"{prefix}.w_mha", rng.glorot(d, d)),
        ln_gamma=Parameter(f"{prefix}.ln_gamma", np.ones((1, d))),
        ln_beta=Parameter(f"{prefix}.ln_beta", np.zeros((1, d))),
        heads=heads,
    )


def init_encoder(
    rng: Rng, d: int, ffn_dim: int, depth: int, heads: int, prefix: str
) -> EncoderParams:
    if depth < 1:
        raise ConfigurationError(f"encoder depth must be >= 1, got {depth}")
    if d % heads != 0:
        raise ConfigurationError(f"{heads} heads do not divide embedding size {d}")
    layers = []
    for i in range(depth):
        p = f"{prefix}.layer{i}"
        layers.append(
            EncoderLayerParams(
                ln1_gamma=Parameter(f"{p}.ln1_gamma", np.ones((1, d))),
                ln1_beta=Parameter(f"{p}.ln1_beta", np.zeros((1, d))),
                w_q=Parameter(f"{p}.w_q", rng.glorot(d, d)),
                w_k=Parameter(f"{p}.w_k", rng.glorot(d, d)),
                w_v=Parameter(f"{p}.w_v", rng.glorot(d, d)),
                w_o=Parameter(f"{p}.w_o", rng.glorot(d, d)),
                ln2_gamma=Parameter(f"{p}.ln2_gamma", np.ones((1, d))),
                ln2_beta=Parameter(f"{p}.ln2_beta", np.zeros((1, d))),
                w_ff1=Parameter(f"{p}.w_ff1", rng.glorot(d, ffn_dim)),
                b_ff1=Parameter(f"{p}.b_ff1", np.zeros((1, ffn_dim))),
                w_ff2=Parameter(f"{p}.w_ff2", rng.glorot(ffn_dim, d)),
                b_ff2=Parameter(f"{p}.b_ff2", np.zeros((1, d))),
            )
        )
    return EncoderParams(layers=layers, heads=heads)
