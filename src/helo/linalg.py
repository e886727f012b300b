"""Dense float64 kernels with hand-written backward passes.

Everything downstream (attention blocks, transport fusion, label attention,
losses) is composed from the forward/backward pairs in this module.  Kernels
act on the last two axes and broadcast over any leading batch axes, so one
call covers a (B, T, d) stack of per-sample matrices.  Forward products
stay per-sample matrix products: a row of the batch is computed exactly as a
batch of one, and numpy's fixed reduction order keeps runs bit-reproducible
per seed.  Weight gradients are summed over the batch by one fused product.

`iter_parameters` walks a tree of stage structs, which is the one place the
order of a model's parameters comes from; `pack_parameters` makes each
`Parameter.value`/`.grad` a named view into one flat buffer of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DeterminismError,
    DimensionError,
    NumericalError,
)

Matrix = np.ndarray

# Below this magnitude, gradient-check errors are reported absolutely.
GRAD_ABS_FLOOR = 1e-8


def check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values produced by {context}")
    return arr


# Row reductions call the ufuncs directly: with small matrices, the Python
# layer of ndarray.sum/max/mean costs as much as the arithmetic.  The
# results are the same bits (np.mean is add.reduce over the count).
def _row_sum(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=-1, keepdims=True)


def _row_mean(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def mT(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (the last two axes)."""
    return x.swapaxes(-1, -2)


def weight_grad(x: np.ndarray, dout: np.ndarray) -> Matrix:
    """Gradient of w in `x @ w`, summed over every leading axis of x."""
    return x.reshape(-1, x.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])


def bias_grad(dout: np.ndarray) -> Matrix:
    """Gradient of a (1 x d) row added to every row of every matrix."""
    return dout.reshape(-1, dout.shape[-1]).sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# forward kernels
# ---------------------------------------------------------------------------


def softmax_rows(x: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= _row_sum(e)
    return e


def softmax_rows_backward(dout: Matrix, out: Matrix) -> Matrix:
    return out * (dout - _row_sum(dout * out))


def layer_norm_forward(x: Matrix, gamma: Matrix, beta: Matrix, eps: float):
    """Per-row normalization to zero mean / unit variance, then scale and shift."""
    if gamma.shape != (1, x.shape[-1]) or beta.shape != (1, x.shape[-1]):
        raise DimensionError(
            f"layer norm scale/shift must be 1x{x.shape[-1]}, "
            f"got {gamma.shape} and {beta.shape}"
        )
    xc = x - _row_mean(x)
    var = _row_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv, gamma)


def layer_norm_backward(dout: Matrix, cache) -> tuple[Matrix, Matrix, Matrix]:
    xhat, inv, gamma = cache
    dgamma = bias_grad(dout * xhat)
    dbeta = bias_grad(dout)
    dxhat = dout * gamma
    dx = inv * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))
    return dx, dgamma, dbeta


# tanh keeps the composed loss smooth, so finite-difference gradient checks
# are limited only by truncation error, never by activation kinks.
def tanh_forward(x: Matrix) -> Matrix:
    return np.tanh(x)


def tanh_backward(dout: Matrix, out: Matrix) -> Matrix:
    return dout * (1.0 - out * out)


def affine_forward(x: Matrix, w: Matrix, b: Matrix):
    return x @ w + b, (x, w)


def affine_backward(dout: Matrix, cache) -> tuple[Matrix, Matrix, Matrix]:
    x, w = cache
    return dout @ w.T, weight_grad(x, dout), bias_grad(dout)


def _normalize_rows(x: Matrix) -> tuple[Matrix, np.ndarray, bool]:
    norms = np.sqrt((x * x).sum(axis=-1))
    degenerate = bool((norms == 0.0).any())
    safe = np.where(norms == 0.0, 1.0, norms)
    return x / safe[..., None], norms, degenerate


def cosine_rows_flagged(a: Matrix, b: Matrix) -> tuple[Matrix, bool]:
    """Pairwise row cosine similarities plus a flag for zero-norm rows.

    Zero-norm rows contribute similarity 0 instead of NaN so downstream
    losses stay total.  The similarity matrix is built by an elementwise
    product reduced over the feature axis, which makes the similarities of
    (a, b) bitwise equal to the transpose of those of (b, a).  Leading axes
    are a batch.
    """
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError(
            f"cosine similarity feature widths differ: {a.shape} vs {b.shape}"
        )
    ya, _, dega = _normalize_rows(a)
    yb, _, degb = _normalize_rows(b)
    sim = (ya[..., :, None, :] * yb[..., None, :, :]).sum(axis=-1)
    return np.clip(sim, -1.0, 1.0), dega or degb


def cosine_gram_forward(x: Matrix):
    """Self cosine-similarity matrix of the rows of x, with backward cache."""
    y, norms, degenerate = _normalize_rows(x)
    sim = (y[:, None, :] * y[None, :, :]).sum(axis=2)
    return np.clip(sim, -1.0, 1.0), (y, norms, degenerate)


def cosine_gram_backward(dsim: Matrix, cache) -> Matrix:
    y, norms, _ = cache
    dy = (dsim + dsim.T) @ y
    dx = (dy - (dy * y).sum(axis=1, keepdims=True) * y) / np.where(
        norms == 0.0, 1.0, norms
    )[:, None]
    return np.where((norms == 0.0)[:, None], 0.0, dx)


def mean_rows_forward(x: Matrix):
    return x.mean(axis=-2, keepdims=True), x.shape[-2]


def mean_rows_backward(dout: Matrix, n_rows: int) -> Matrix:
    return np.repeat(dout / n_rows, n_rows, axis=-2)


# ---------------------------------------------------------------------------
# trainable state
# ---------------------------------------------------------------------------


@dataclass
class Parameter:
    """A trainable matrix paired with its gradient buffer."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        if self.value.ndim != 2:
            raise DimensionError(f"parameter {self.name} must be 2-D")
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]


def iter_parameters(tree):
    """Every Parameter in a tree of dataclasses, dicts and lists, depth
    first in field and insertion order; other leaves are skipped."""
    if isinstance(tree, Parameter):
        yield tree
    elif isinstance(tree, dict):
        for child in tree.values():
            yield from iter_parameters(child)
    elif isinstance(tree, list):
        for child in tree:
            yield from iter_parameters(child)
    elif is_dataclass(tree):
        for f in fields(tree):
            yield from iter_parameters(getattr(tree, f.name))


def slab_views(flat: np.ndarray, params) -> list[np.ndarray]:
    """Consecutive slices of `flat`, each shaped like one parameter in turn."""
    views, offset = [], 0
    for p in params:
        views.append(flat[offset : offset + p.value.size].reshape(p.shape))
        offset += p.value.size
    return views


def pack_parameters(params: list[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """One values buffer holding the parameters' current values in order, and
    one zeroed grads buffer; each Parameter is rebound to views of both."""
    values = np.concatenate([p.value.reshape(-1) for p in params])
    grads = np.zeros_like(values)
    for p, value, grad in zip(
        params, slab_views(values, params), slab_views(grads, params)
    ):
        p.value, p.grad = value, grad
    return values, grads


class Rng:
    """Counter-based random source: identical seeds give identical sequences."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, rows: int, cols: int, scale: float = 1.0) -> Matrix:
        return self._gen.normal(0.0, scale, size=(rows, cols))

    def glorot(self, rows: int, cols: int) -> Matrix:
        limit = np.sqrt(6.0 / (rows + cols))
        return self._gen.uniform(-limit, limit, size=(rows, cols))


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


def grad_check(loss_fn, params: dict[str, Parameter], eps: float = 1e-5) -> float:
    """Worst relative error between stored analytic grads and central differences.

    `loss_fn(params)` must be a deterministic pure function of the parameter
    values; every `Parameter.grad` must already hold the analytic gradient at
    the current values.  Entries where both gradients are below
    ``GRAD_ABS_FLOOR`` are compared absolutely instead of relatively.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ConfigurationError(f"grad_check eps must be in [1e-7, 1e-3], got {eps}")
    first = float(loss_fn(params))
    second = float(loss_fn(params))
    if first != second:
        raise DeterminismError(
            f"loss_fn returned {first!r} then {second!r} on identical inputs"
        )
    worst = 0.0
    for p in params.values():
        flat_value = p.value.reshape(-1)
        flat_grad = p.grad.reshape(-1)
        for i in range(flat_value.size):
            orig = flat_value[i]
            flat_value[i] = orig + eps
            f_plus = float(loss_fn(params))
            flat_value[i] = orig - eps
            f_minus = float(loss_fn(params))
            flat_value[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            g = flat_grad[i]
            scale = max(abs(g), abs(fd))
            err = abs(g - fd) if scale < GRAD_ABS_FLOOR else abs(g - fd) / scale
            if err > worst:
                worst = err
    return worst
