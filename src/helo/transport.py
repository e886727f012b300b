"""Entropic optimal transport between physiological and behavioral tokens.

The coupling between the two token sets is found by Sinkhorn iterations run
in the log domain (scaling vectors stored as log-potentials, marginal sums
via log-sum-exp), which stays stable for small regularization strengths.
All plans of a batch are solved together over (B, n, m) arrays; each plan
stops updating at its own convergence.  The resulting plan is treated as a
constant during backpropagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericalError
from .linalg import Matrix, check_finite, cosine_rows_flagged


@dataclass(frozen=True)
class TransportPlan:
    """Solved coupling plus its convergence record."""

    t: Matrix                      # coupling, rows sum to u, columns to v
    u: np.ndarray                  # source marginal
    v: np.ndarray                  # target marginal
    cost: Matrix
    wd: float                      # <T, cost> transport estimate
    epsilon: float
    iterations: int
    converged: bool
    marginal_violation: float
    violation_history: tuple[float, ...] = ()


def cost_matrix(x_phy: Matrix, x_v: Matrix) -> Matrix:
    """Cosine-distance cost between two token sets, entries in [0, 2].

    Token sets (..., n, d) and (..., m, d) give costs (..., n, m).
    """
    sim, _ = cosine_rows_flagged(x_phy, x_v)
    return 1.0 - sim


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(m))) along `axis`, which is kept with length 1.

    Overwrites `m`.  The ufunc calls are made directly and in place: the
    solver spends most of its time in the call overhead of small arrays.
    """
    peak = np.maximum.reduce(m, axis=axis, keepdims=True)
    m -= peak
    np.exp(m, out=m)
    out = np.add.reduce(m, axis=axis, keepdims=True)
    np.log(out, out=out)
    out += peak
    return out


@dataclass(frozen=True)
class PlanBatch:
    """B couplings of one shape solved together, as (B, n, m) arrays.

    `history` holds the marginal violation after every iteration, one row
    per iteration and one column per plan; a plan's column is NaN after the
    iteration at which it converged.
    """

    t: np.ndarray                  # (B, n, m) couplings
    u: np.ndarray
    v: np.ndarray
    cost: np.ndarray               # (B, n, m)
    epsilon: float
    iterations: np.ndarray         # (B,) update pairs run per plan
    converged: np.ndarray          # (B,) bool
    marginal_violation: np.ndarray  # (B,) violation after the last update
    history: np.ndarray            # (max iterations run, B)

    def plan(self, i: int) -> TransportPlan:
        """Plan i of the batch on its own."""
        t, cost = self.t[i], self.cost[i]
        return TransportPlan(
            t=t,
            u=self.u,
            v=self.v,
            cost=cost,
            wd=float((t * cost).sum()),
            epsilon=self.epsilon,
            iterations=int(self.iterations[i]),
            converged=bool(self.converged[i]),
            marginal_violation=float(self.marginal_violation[i]),
            violation_history=tuple(self.history[: self.iterations[i], i].tolist()),
        )


def sinkhorn_batch(
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    epsilon: float,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> PlanBatch:
    """Solve B entropy-regularized couplings with shared marginals (u, v).

    Each plan alternates the two log-domain scaling updates until the worst
    marginal violation of its reconstructed plan drops below `tol` or
    `max_iter` update pairs have run.  A plan that has converged drops out
    of the batch, so its potentials, iteration count and violation record
    are exactly those of a solve on its own.
    """
    if epsilon <= 0.0:
        raise ConfigurationError(f"sinkhorn epsilon must be > 0, got {epsilon}")
    if max_iter < 1:
        raise ConfigurationError(f"sinkhorn max_iter must be >= 1, got {max_iter}")
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 3:
        raise DimensionError(f"batched cost must be 3-D, got shape {cost.shape}")
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape[0] != cost.shape[1] or v.shape[0] != cost.shape[2]:
        raise DimensionError(
            f"marginals ({u.shape[0]}, {v.shape[0]}) do not match cost {cost.shape[1:]}"
        )
    if (cost < 0.0).any():
        raise ConfigurationError("sinkhorn cost must be nonnegative")
    if (u <= 0.0).any() or (v <= 0.0).any():
        raise ConfigurationError("sinkhorn marginals must be strictly positive")

    n_plans = cost.shape[0]
    kernel = -cost / epsilon
    # Potentials are kept as (B, n, 1) and (B, 1, m) columns and rows.
    log_u = np.log(u)[:, None]
    log_v = np.log(v)[None, :]
    marginals = np.concatenate([u, v])
    alpha = np.zeros((n_plans, cost.shape[1], 1))
    beta = np.zeros((n_plans, 1, cost.shape[2]))
    # The plans still iterating: their indices, kernels and potentials; the
    # violations of every iteration; and the iterations from which each set
    # of live plans ran.
    live, k, a, b = np.arange(n_plans), kernel, alpha, beta
    errs: list[np.ndarray] = []
    blocks = [(0, live)]
    for it in range(1, max_iter + 1):
        a = log_u - _logsumexp(k + b, axis=2)
        b = log_v - _logsumexp(k + a, axis=1)
        t = k + a
        t += b
        np.exp(t, out=t)
        # worst row or column marginal error; non-finite iff t is
        sums = np.concatenate(
            [np.add.reduce(t, axis=2), np.add.reduce(t, axis=1)], axis=1
        )
        sums -= marginals
        err = np.maximum.reduce(np.abs(sums, out=sums), axis=1)
        if not np.maximum.reduce(err) < np.inf:
            raise NumericalError(
                f"sinkhorn kernel lost finiteness at epsilon={epsilon}"
            )
        errs.append(err)
        if np.minimum.reduce(err) <= tol:
            # keep the potentials of the plans that converged, then drop them
            going = err > tol
            alpha[live] = a
            beta[live] = b
            live, k, a, b = live[going], k[going], a[going], b[going]
            if live.size == 0:
                break
            blocks.append((it, live))
    alpha[live] = a
    beta[live] = b

    history = np.full((len(errs), n_plans), np.nan)
    stops = [start for start, _ in blocks[1:]] + [len(errs)]
    for (start, plans), stop in zip(blocks, stops):
        if start < stop:
            history[start:stop, plans] = errs[start:stop]
    iterations = (~np.isnan(history)).sum(axis=0)
    violation = history[iterations - 1, np.arange(n_plans)]
    t = np.exp(kernel + alpha + beta)
    check_finite(t, "sinkhorn plan")
    return PlanBatch(
        t=t,
        u=u,
        v=v,
        cost=cost,
        epsilon=float(epsilon),
        iterations=iterations,
        converged=violation <= tol,
        marginal_violation=violation,
        history=history,
    )


def sinkhorn(
    cost: Matrix,
    u: np.ndarray,
    v: np.ndarray,
    epsilon: float,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> TransportPlan:
    """Solve one entropy-regularized coupling with marginals (u, v).

    A batch of one for `sinkhorn_batch`; the returned plan records the
    violation after every iteration so convergence can be audited.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise DimensionError(f"cost must be 2-D, got shape {cost.shape}")
    return sinkhorn_batch(cost[None], u, v, epsilon, max_iter, tol).plan(0)


def uniform_marginal(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def transport_tokens(x_phy: Matrix, t: np.ndarray, rescale: bool = True) -> Matrix:
    """Mix source tokens through the coupling: (n*T) @ x_phy.

    `t` is one (n, m) coupling or a (..., n, m) stack matching the leading
    axes of x_phy.  With uniform marginals every row of T sums to 1/n, so
    the n factor restores unit row mass; the unscaled literal product is
    kept behind `rescale=False`.
    """
    if t.shape[-1] != x_phy.shape[-2]:
        raise DimensionError(
            f"plan {t.shape} cannot transport tokens of shape {x_phy.shape}"
        )
    scale = float(t.shape[-2]) if rescale else 1.0
    return (scale * t) @ x_phy


def write_violation_csv(plan: TransportPlan, path) -> None:
    """Dump the per-iteration marginal violations as (iteration, violation)."""
    lines = ["iteration,violation"]
    for i, violation in enumerate(plan.violation_history, start=1):
        lines.append(f"{i},{violation!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
