
from helo.data import DMER_SCHEMA, WESAD_SCHEMA, generate_synthetic
from helo.model import Model
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
