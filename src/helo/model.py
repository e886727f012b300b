"""Full pipeline assembly: projection, fusion, transport, label attention.

A model owns every trainable parameter plus the wiring decisions implied by
the schema and the ablation switches.  Its parameters live in two flat
float64 buffers, `values` and `grads`, in the order `linalg.iter_parameters`
walks the stage structs; each `Parameter` is a named view of its slice, so
zeroing the gradients is one fill and the optimizer updates whole buffers.
Training, evaluation and prediction share one forward pass over (B, T, d)
token arrays; prediction is a batch of one, and every forward product is a
per-sample matrix product, so a sample's prediction is bit-identical in any
batch.  The backward pass runs once per batch and sums weight gradients over
it in a fixed order, so runs stay bit-reproducible.

Each stage appears once in the forward and once in the backward pass, and
an ablation is a degenerate input to it: without CAPF each physiological
stream skips cross-attention, without OTHM `t` is None and the tokens pass
untransported, and without a behavioral modality there is no second encoder
output to append.  Only a disabled LCDCA is skipped whole.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import attention as att
from . import labelspace as ls
from . import transport as tp
from .config import TrainConfig
from .data import DatasetSchema, labels_matrix
from .errors import ConfigurationError, DivergenceError, NumericalError
from .linalg import (
    Matrix,
    Parameter,
    Rng,
    iter_parameters,
    mT,
    pack_parameters,
    slab_views,
    weight_grad,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AblationSpec:
    """Component and modality switches; all-false is the full pipeline."""

    disable_capf: bool = False
    disable_othm: bool = False
    disable_lcdca: bool = False
    excluded_modalities: frozenset = frozenset()

    def label(self) -> str:
        switches = (("capf", self.disable_capf), ("othm", self.disable_othm),
                    ("lcdca", self.disable_lcdca))
        parts = [f"wo_{name}" for name, off in switches if off]
        parts.extend(f"wo_{m}" for m in sorted(self.excluded_modalities))
        return "+".join(parts) if parts else "full"


@dataclass
class BatchForward:
    """One batched forward pass: (B, ...) intermediates and stage caches."""

    proj: dict
    streams: list                # per key/value modality; None entries without CAPF
    x_phy: Matrix
    plans: tp.PlanBatch | None   # None when transport is off or plans were given
    t: np.ndarray | None         # (B, n, m) couplings used; None without OTHM
    transported: Matrix          # x_phy itself when t is None
    enc_phy_cache: object
    enc_v_cache: object          # None without a behavioral modality
    x_m: Matrix
    pooled: Matrix | None
    lcdca_cache: object
    head_cache: object
    pred: np.ndarray             # (B, labels)


@dataclass(frozen=True)
class SampleForward:
    """One sample's intermediates, from a batch of one; `transported` is
    `x_phy` itself when no plan is used."""

    x_phy: Matrix
    plan: tp.TransportPlan | None
    transported: Matrix
    x_m: Matrix
    pooled: Matrix | None
    pred: np.ndarray


class Model:
    """The trainable pipeline for one schema/config/ablation combination."""

    def __init__(self, schema: DatasetSchema, config: TrainConfig,
                 ablation: AblationSpec | None = None):
        config.validate()
        self.schema = schema
        self.config = config
        self.ablation = ablation or AblationSpec()
        self._resolve_wiring()
        self._init_params(Rng(config.seed))

    # -- construction -------------------------------------------------------

    def _resolve_wiring(self) -> None:
        schema, ab = self.schema, self.ablation
        known = {m.name for m in schema.modalities}
        unknown = set(ab.excluded_modalities) - known
        if unknown:
            raise ConfigurationError(f"cannot exclude unknown modalities {sorted(unknown)}")
        if set(ab.excluded_modalities) >= known:
            raise ConfigurationError("cannot exclude every modality")
        active = [m for m in schema.modalities if m.name not in ab.excluded_modalities]
        phys = [m for m in active if m.group == "physiological"]
        behav = [m for m in active if m.group == "behavioral"]
        if not phys:
            raise ConfigurationError("at least one physiological modality is required")
        self.active_modalities = active
        self.behavioral = behav[0].name if behav else None
        self.use_capf = (not ab.disable_capf) and len(phys) >= 2
        # With CAPF the first remaining physiological modality supplies the
        # queries and every other one a key/value stream; without it every
        # physiological modality is a stream of its own tokens.
        self.query_modality = phys[0].name if self.use_capf else None
        self.kv_modalities = [m.name for m in (phys[1:] if self.use_capf else phys)]
        self.n_phy_tokens = self.config.tokens_per_modality * len(self.kv_modalities)
        self.use_othm = (not ab.disable_othm) and self.behavioral is not None
        self.n_v_tokens = self.n_phy_tokens if self.behavioral else 0
        self.n_fused = self.n_phy_tokens + self.n_v_tokens
        self.use_lcdca = not ab.disable_lcdca

    def _init_params(self, rng: Rng) -> None:
        cfg = self.config
        d = cfg.embed_dim
        c = cfg.tokens_per_modality
        self.projections: dict[str, att.ModalityProjection] = {}
        for m in self.active_modalities:
            tokens = self.n_v_tokens if m.name == self.behavioral else c
            self.projections[m.name] = att.init_projection(
                rng, m.name, m.dim, cfg.channels_for(m.name), tokens, d,
                prefix=f"proj.{m.name}",
            )
        self.capf = (
            att.init_cross_attention(rng, d, self.kv_modalities, cfg.heads, "capf")
            if self.use_capf
            else None
        )
        self.enc_phy = att.init_encoder(
            rng, d, cfg.ffn_dim, cfg.encoder_depth, cfg.heads, "enc_phy"
        )
        self.enc_v = (
            att.init_encoder(rng, d, cfg.ffn_dim, cfg.encoder_depth, cfg.heads, "enc_v")
            if self.behavioral
            else None
        )
        n_labels = self.schema.label_count
        self.w_pool = self.label_attn = None
        if self.use_lcdca:
            self.w_pool = Parameter("pool.w", rng.glorot(n_labels, self.n_fused))
            self.label_attn = ls.init_label_attention(rng, n_labels, d, "label")
        self.head = ls.init_prediction_head(
            rng, d, cfg.head_hidden1, cfg.head_hidden2, n_labels, "head"
        )
        stages = [self.projections, self.capf, self.enc_phy, self.enc_v,
                  self.w_pool, self.label_attn, self.head]
        self.params = {p.name: p for p in iter_parameters(stages)}
        self.values, self.grads = pack_parameters(list(self.params.values()))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice of a flat buffer laid out like `values`."""
        return dict(zip(self.params, slab_views(flat, self.params.values())))

    def zero_grads(self) -> None:
        self.grads.fill(0.0)

    # -- forward ------------------------------------------------------------

    def solve_plans(self, x_phy: Matrix, x_v: Matrix) -> tp.PlanBatch:
        """The batch's transport plans; unconverged ones are logged, once
        per call, and used as they stopped."""
        cfg = self.config
        plans = tp.sinkhorn_batch(
            tp.cost_matrix(x_phy, x_v),
            tp.uniform_marginal(x_phy.shape[-2]),
            tp.uniform_marginal(x_v.shape[-2]),
            cfg.sinkhorn_epsilon,
            cfg.sinkhorn_max_iter,
            cfg.sinkhorn_tol,
        )
        if not plans.converged.all():
            stuck = ~plans.converged
            log.warning(
                "%d of %d transport plans did not converge within "
                "sinkhorn_max_iter=%d (worst marginal violation %.3e)",
                int(stuck.sum()),
                len(stuck),
                cfg.sinkhorn_max_iter,
                float(plans.marginal_violation[stuck].max()),
            )
        return plans

    def _label_gram(self):
        if not self.use_lcdca:
            return None, None
        return ls.label_correlation_forward(self.label_attn.x_l.value)

    def _stack(self, feature_dicts) -> dict[str, np.ndarray]:
        """Per-modality (B, dim) feature arrays."""
        return {
            m.name: np.array(
                [np.asarray(f[m.name], dtype=np.float64).reshape(-1)
                 for f in feature_dicts]
            )
            for m in self.active_modalities
        }

    def _forward(self, features: dict[str, np.ndarray], m_learn: Matrix | None,
                 t: np.ndarray | None = None) -> BatchForward:
        """The pipeline on (B, dim) features; `t` freezes the couplings and
        is ignored without OTHM."""
        tokens, proj_caches = {}, {}
        for m in self.active_modalities:
            tokens[m.name], proj_caches[m.name] = att.project_modality_forward(
                features[m.name], self.projections[m.name]
            )
        outs, streams = [], []
        for kv in self.kv_modalities:
            out, cache = tokens[kv], None
            if self.use_capf:
                out, cache = att.cross_attend_forward(
                    tokens[self.query_modality], out, kv, self.capf
                )
            outs.append(out)
            streams.append(cache)
        x_phy = np.concatenate(outs, axis=-2)
        plans = None
        if not self.use_othm:
            t = None
        elif t is None:
            plans = self.solve_plans(x_phy, tokens[self.behavioral])
            t = plans.t
        transported = (
            x_phy if t is None
            else tp.transport_tokens(x_phy, t, rescale=self.config.rescale_transport)
        )
        x_m, enc_phy_cache = att.transformer_encode_forward(transported, self.enc_phy)
        enc_v_cache = None
        if self.behavioral:
            e_v, enc_v_cache = att.transformer_encode_forward(
                tokens[self.behavioral], self.enc_v
            )
            x_m = np.concatenate([x_m, e_v], axis=-2)
        pooled, x_o, lcdca_cache = None, x_m, None
        if self.use_lcdca:
            pooled = self.w_pool.value @ x_m
            x_o, lcdca_cache = ls.lcdca_forward(
                self.label_attn.x_l.value, pooled, m_learn, self.label_attn
            )
        pred, head_cache = ls.predict_head_forward(x_o, self.head)
        if not np.isfinite(pred).all():
            raise NumericalError("forward pass produced a non-finite prediction")
        return BatchForward(
            proj=proj_caches,
            streams=streams,
            x_phy=x_phy,
            plans=plans,
            t=t,
            transported=transported,
            enc_phy_cache=enc_phy_cache,
            enc_v_cache=enc_v_cache,
            x_m=x_m,
            pooled=pooled,
            lcdca_cache=lcdca_cache,
            head_cache=head_cache,
            pred=pred,
        )

    def forward_sample(
        self, features: dict[str, np.ndarray], plan: tp.TransportPlan | None = None
    ) -> SampleForward:
        """One sample through the batched forward; `plan` freezes its coupling."""
        m_learn, _ = self._label_gram()
        fwd = self._forward(
            self._stack([features]), m_learn, None if plan is None else plan.t[None]
        )
        if fwd.t is None:
            plan = None
        elif plan is None:
            plan = fwd.plans.plan(0)
        return SampleForward(
            x_phy=fwd.x_phy[0],
            plan=plan,
            transported=fwd.transported[0],
            x_m=fwd.x_m[0],
            pooled=None if fwd.pooled is None else fwd.pooled[0],
            pred=fwd.pred[0],
        )

    def predict_batch(self, feature_dicts) -> np.ndarray:
        """(B, labels) predictions; row i equals predict(feature_dicts[i])."""
        m_learn, _ = self._label_gram()
        return self._forward(self._stack(feature_dicts), m_learn).pred

    def predict(self, features: dict[str, np.ndarray]) -> np.ndarray:
        return self.predict_batch([features])[0]

    def label_correlation(self) -> Matrix:
        if not self.use_lcdca:
            raise ConfigurationError("label attention is disabled in this model")
        return ls.correlation_matrix(self.label_attn.x_l.value)

    # -- loss and gradients --------------------------------------------------

    def batch_loss(
        self,
        samples,
        m_gt: Matrix | None = None,
        plans: list[tp.TransportPlan] | None = None,
        compute_grads: bool = True,
    ):
        """Mean divergence over the batch plus the correlation penalty.

        Returns (total, kld_mean, cc, forward).  When `compute_grads` is set,
        parameter gradients are zeroed and repopulated for exactly this batch;
        transport plans are constants throughout, and `plans` freezes them.
        """
        n = len(samples)
        if n == 0:
            raise ConfigurationError("batch must contain at least one sample")
        m_learn, gram_cache = self._label_gram()
        labels = labels_matrix(samples)
        if self.use_lcdca and m_gt is None:
            m_gt = ls.batch_label_correlation(labels)
        t = None if plans is None else np.array([p.t for p in plans])
        fwd = self._forward(self._stack([s.features for s in samples]), m_learn, t)
        kld_mean = float(ls.kld_loss(fwd.pred, labels).sum()) / n
        cc = ls.cc_loss(m_learn, m_gt) if self.use_lcdca else 0.0
        total = ls.overall_loss(kld_mean, cc, self.config.lambda_cc)
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss {total!r}")
        if compute_grads:
            self.zero_grads()
            self._backward(fwd, labels, m_learn, gram_cache, m_gt)
        return total, kld_mean, cc, fwd

    def _backward(self, fwd: BatchForward, labels, m_learn, gram_cache, m_gt) -> None:
        dpred = ls.kld_loss_backward(fwd.pred, labels) / len(labels)
        d_x_m = ls.predict_head_backward(dpred, fwd.head_cache, self.head)
        if self.use_lcdca:
            d_x_l, d_pooled, d_m_learn = ls.lcdca_backward(
                d_x_m, fwd.lcdca_cache, self.label_attn
            )
            self.w_pool.grad += weight_grad(mT(d_pooled), mT(fwd.x_m))
            d_x_m = self.w_pool.value.T @ d_pooled
            d_m_learn += self.config.lambda_cc * ls.cc_loss_backward(m_learn, m_gt)
            self.label_attn.x_l.grad += d_x_l
            self.label_attn.x_l.grad += ls.label_correlation_backward(
                d_m_learn, gram_cache
            )
        d_tokens = {}
        if self.behavioral:
            d_tokens[self.behavioral] = att.transformer_encode_backward(
                d_x_m[:, self.n_phy_tokens :], fwd.enc_v_cache, self.enc_v
            )
        d_x_phy = att.transformer_encode_backward(
            d_x_m[:, : self.n_phy_tokens], fwd.enc_phy_cache, self.enc_phy
        )
        if fwd.t is not None:
            scale = float(fwd.t.shape[-2]) if self.config.rescale_transport else 1.0
            d_x_phy = mT(scale * fwd.t) @ d_x_phy
        c = self.config.tokens_per_modality
        d_query = 0.0
        for j, (kv, cache) in enumerate(zip(self.kv_modalities, fwd.streams)):
            d_tokens[kv] = d_x_phy[:, j * c : (j + 1) * c]
            if cache is not None:
                dq, d_tokens[kv] = att.cross_attend_backward(
                    d_tokens[kv], cache, self.capf
                )
                d_query += dq
        if self.use_capf:
            d_tokens[self.query_modality] = d_query
        for m in self.active_modalities:
            att.project_modality_backward(
                d_tokens[m.name], fwd.proj[m.name], self.projections[m.name]
            )


def ablation_grid(schema: DatasetSchema) -> list[AblationSpec]:
    """Every component removal plus every single-modality removal, plus full."""
    specs = [
        AblationSpec(),
        AblationSpec(disable_capf=True),
        AblationSpec(disable_othm=True),
        AblationSpec(disable_lcdca=True),
    ]
    specs.extend(
        AblationSpec(excluded_modalities=frozenset({m.name}))
        for m in schema.modalities
    )
    return specs
