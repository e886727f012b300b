import numpy as np
import pytest

from helo.data import DMER_SCHEMA, WESAD_SCHEMA, generate_synthetic
from helo.model import Model, ablation_grid
from helo.verify import full_pipeline_gradcheck, tiny_config


def test_full_pipeline_gradcheck_dmer(tiny_gradcheck):
    err, model, plans = tiny_gradcheck(0)
    assert err <= 1e-4
    assert len(plans) == 4
    assert all(p.converged for p in plans)

def test_full_pipeline_gradcheck_wesad_full_weighting():
    # 4 classes keep the correlation term small, so the unweighted composite
    # objective can be checked directly
    config = tiny_config(0).with_overrides(lambda_cc=1.0)
    err, _, _ = full_pipeline_gradcheck(seed=0, schema=WESAD_SCHEMA, config=config)
    assert err <= 1e-4

def test_full_pipeline_gradcheck_unscaled_transport():
    # the literal T @ x_phy product, forward and backward
    config = tiny_config(0).with_overrides(rescale_transport=False)
    err, _, _ = full_pipeline_gradcheck(seed=0, config=config)
    assert err <= 1e-4

def test_gradcheck_uses_frozen_plans():
    # the plans full_pipeline_gradcheck freezes, built the same way
    model = Model(DMER_SCHEMA, tiny_config(1))
    samples = generate_synthetic(DMER_SCHEMA, 2, 2, seed=1)
    plans = [model.forward_sample(s.features).plan for s in samples]
    # plan shapes match the wiring
    n = model.n_phy_tokens
    assert plans[0].t.shape == (n, n)


ABLATIONS = [
    (schema, spec) for schema in (DMER_SCHEMA, WESAD_SCHEMA)
    for spec in ablation_grid(schema)
]


@pytest.mark.parametrize(
    "schema, spec", ABLATIONS,
    ids=[f"{schema.name}-{spec.label()}" for schema, spec in ABLATIONS],
)
def test_every_ablation_backward_matches_directional_differences(schema, spec):
    # Every wiring's backward pass, not only the full pipeline's: the whole
    # parameter slab moves along random unit directions, and a central
    # difference of the loss with frozen plans checks the gradient's
    # projection on each.
    model = Model(schema, tiny_config(0), spec)
    samples = generate_synthetic(schema, n_subjects=2, trials_per_subject=2, seed=0)
    plans = (
        [model.forward_sample(s.features).plan for s in samples]
        if model.use_othm else None
    )
    model.batch_loss(samples, plans=plans)
    grads = model.grads.copy()
    base = model.values.copy()
    h = 1e-5

    def loss_at(values):
        model.values[:] = values
        return model.batch_loss(samples, plans=plans, compute_grads=False)[0]

    rng = np.random.default_rng(0)
    for _ in range(4):
        v = rng.standard_normal(base.size)
        v /= np.linalg.norm(v)
        fd = (loss_at(base + h * v) - loss_at(base - h * v)) / (2.0 * h)
        analytic = float(grads @ v)
        assert abs(fd - analytic) <= 1e-6 * max(abs(fd), abs(analytic)), (fd, analytic)
