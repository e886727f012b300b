"""End-to-end gradient verification of the assembled pipeline.

Builds a deliberately tiny configuration (the schema keeps its real feature
dimensionalities; only embedding sizes shrink) so every parameter entry can
be swept with central differences in seconds.  One batched forward solves
the transport plans, and every perturbed loss reuses its (B, n, m)
couplings, matching the training-time convention that no gradient flows
through the Sinkhorn iterations.
"""

from __future__ import annotations

from .config import TrainConfig
from .data import DMER_SCHEMA, DatasetSchema, generate_synthetic
from .linalg import grad_check
from .model import Model


def tiny_config(seed: int) -> TrainConfig:
    # lambda_cc is turned down so the total loss stays O(1): the correlation
    # penalty over 10 classes starts near 20, and its rounding ulp would
    # otherwise set the finite-difference noise floor above the smallest
    # legitimate projection gradients (~1e-7).
    return TrainConfig(
        embed_dim=4,
        heads=2,
        ffn_dim=4,
        encoder_depth=1,
        tokens_per_modality=1,
        head_hidden1=8,
        head_hidden2=6,
        batch_size=4,
        epochs=0,
        lambda_cc=0.05,
        seed=seed,
    )


def full_pipeline_gradcheck(
    seed: int = 0,
    eps: float = 3e-5,
    schema: DatasetSchema = DMER_SCHEMA,
    config: TrainConfig | None = None,
):
    """Returns (max relative error, model, frozen plans) for a 4-sample
    batch; the plans are a `PlanBatch`, or None without OTHM."""
    config = config or tiny_config(seed)
    samples = generate_synthetic(schema, n_subjects=2, trials_per_subject=2, seed=seed)
    model = Model(schema, config)
    fwd = model.batch_loss(samples)[3]

    def loss_fn(_params):
        return model.batch_loss(samples, t=fwd.t, compute_grads=False)[0]

    err = grad_check(loss_fn, model.params, eps)
    return err, model, fwd.plans
