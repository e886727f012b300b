"""Distribution-comparison measures and rank aggregation.

Four distances (Chebyshev, Clark, Canberra, KL) and two similarities
(cosine, intersection), averaged per evaluation set, plus the mean-rank
table used to compare methods across all six measures.  One kernel,
`metric_matrix`, scores (N, L) prediction / ground-truth arrays row by row;
`evaluate_set` is its mean and `metric_vector` its batch of one, so a
sample's measures are bit-identical in any batch.  KL is the training loss
`labelspace.kld_loss`, so evaluation and training smooth distributions the
same way.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import DimensionError, EmptySetError, IncompleteTableError
from .labelspace import kld_loss

METRIC_NAMES = ("chebyshev", "clark", "canberra", "kl", "cosine", "intersection")
# True where a larger score is better.
METRIC_HIGHER_IS_BETTER = {
    "chebyshev": False,
    "clark": False,
    "canberra": False,
    "kl": False,
    "cosine": True,
    "intersection": True,
}


@dataclass(frozen=True)
class MetricVector:
    chebyshev: float
    clark: float
    canberra: float
    kl: float
    cosine: float
    intersection: float

    def as_tuple(self) -> tuple[float, ...]:
        return astuple(self)


def metric_matrix(preds, truths) -> np.ndarray:
    """(N, 6) measures in `METRIC_NAMES` order, one row per row of the (N, L)
    arrays; every reduction is along a row, so no row depends on another."""
    pred = np.asarray(preds, dtype=np.float64)
    truth = np.asarray(truths, dtype=np.float64)
    if pred.ndim != 2 or pred.shape != truth.shape:
        raise DimensionError(
            f"prediction and ground-truth arrays differ: {pred.shape} vs {truth.shape}"
        )
    diff = np.abs(truth - pred)
    denom = truth + pred
    # Both-zero entries contribute 0 to Clark and Canberra (diagonal limit).
    safe = np.where(denom == 0.0, 1.0, denom)
    canberra_terms = np.where(denom == 0.0, 0.0, diff / safe)
    # Where (t + p)^2 is subnormal or underflows to 0, Clark's term is the
    # square of Canberra's, which stays exact instead of becoming 0/0.
    square = safe**2
    normal = square >= np.finfo(np.float64).tiny
    clark_terms = np.where(
        normal, (truth - pred) ** 2 / np.where(normal, square, 1.0), canberra_terms**2
    )
    norm = np.sqrt((truth * truth).sum(axis=-1)) * np.sqrt((pred * pred).sum(axis=-1))
    dot = (truth * pred).sum(axis=-1)
    cosine = np.divide(dot, norm, out=np.zeros_like(dot), where=norm > 0.0)  # 0 at norm 0
    return np.stack([diff.max(axis=-1), np.sqrt(clark_terms.sum(axis=-1)),
                     canberra_terms.sum(axis=-1), kld_loss(pred, truth), cosine,
                     np.minimum(truth, pred).sum(axis=-1)], axis=-1)


def metric_vector(pred, truth) -> MetricVector:
    """All six measures for one prediction / ground-truth pair."""
    pred = np.asarray(pred, dtype=np.float64).reshape(1, -1)
    truth = np.asarray(truth, dtype=np.float64).reshape(1, -1)
    return MetricVector(*(float(x) for x in metric_matrix(pred, truth)[0]))


def evaluate_set(preds, truths) -> MetricVector:
    """Mean of the per-sample measures of N predictions and ground truths."""
    if len(preds) == 0:
        raise EmptySetError("cannot evaluate an empty prediction set")
    if len(preds) != len(truths):
        raise DimensionError(
            f"{len(preds)} predictions but {len(truths)} ground truths"
        )
    return MetricVector(*(float(x) for x in metric_matrix(preds, truths).mean(axis=0)))


# ---------------------------------------------------------------------------
# rank tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTable:
    methods: tuple[str, ...]
    metrics: tuple[str, ...]
    scores: dict[str, dict[str, float]]       # method -> metric -> score
    ranks: dict[str, dict[str, float]]        # method -> metric -> rank (ties share mean)
    average_rank: dict[str, float]


def _rank_scores(values: list[float], higher_is_better: bool) -> list[float]:
    order = np.array(values, dtype=np.float64)
    if higher_is_better:
        order = -order
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_idx = np.argsort(order, kind="stable")
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and order[sorted_idx[j + 1]] == order[sorted_idx[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[sorted_idx[k]] = mean_rank
        i = j + 1
    return [float(r) for r in ranks]


def average_rank(scores: dict[str, dict[str, float]]) -> RankTable:
    """Per-measure ranks (1 = best, ties share the mean rank) over
    `METRIC_NAMES`, and their mean."""
    methods = tuple(scores)
    if not methods:
        raise EmptySetError("rank table needs at least one method")
    for method in methods:
        for metric in METRIC_NAMES:
            if metric not in scores[method]:
                raise IncompleteTableError(f"method {method!r} missing {metric!r}")
    ranks: dict[str, dict[str, float]] = {m: {} for m in methods}
    for metric in METRIC_NAMES:
        column = [scores[m][metric] for m in methods]
        ranked = _rank_scores(column, METRIC_HIGHER_IS_BETTER[metric])
        for method, rank in zip(methods, ranked):
            ranks[method][metric] = rank
    averages = {
        m: float(np.mean([ranks[m][metric] for metric in METRIC_NAMES]))
        for m in methods
    }
    return RankTable(
        methods=methods,
        metrics=METRIC_NAMES,
        scores={m: dict(scores[m]) for m in methods},
        ranks=ranks,
        average_rank=averages,
    )


def truncate2(x: float) -> float:
    """Two-decimal truncation, the convention used for reported average ranks."""
    return np.floor(x * 100.0) / 100.0


def render_rank_csv(table: RankTable) -> str:
    lines = ["metric," + ",".join(table.methods)]
    for metric in table.metrics:
        cells = [
            f"{table.scores[m][metric]!r} ({table.ranks[m][metric]:g})"
            for m in table.methods
        ]
        lines.append(f"{metric}," + ",".join(cells))
    avg = [f"{truncate2(table.average_rank[m]):.2f}" for m in table.methods]
    lines.append("average_rank," + ",".join(avg))
    return "\n".join(lines) + "\n"


def render_rank_text(table: RankTable) -> str:
    """Aligned text table: metric rows, method columns, scores with ranks."""
    headers = ["metric"] + list(table.methods)
    rows = []
    for metric in table.metrics:
        row = [metric]
        for m in table.methods:
            row.append(f"{table.scores[m][metric]:.4f} ({table.ranks[m][metric]:g})")
        rows.append(row)
    rows.append(
        ["average_rank"]
        + [f"{truncate2(table.average_rank[m]):.2f}" for m in table.methods]
    )
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out) + "\n"
