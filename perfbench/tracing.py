"""Outside-in instrumentation of helo's layers.

Nothing under ``src/`` knows it is being measured: every hook here replaces
a public function at the attribute its callers look it up by (for example
``helo.transport.sinkhorn``, which ``helo.model`` calls as ``tp.sinkhorn``)
and puts the original object back on exit.

* ``StepClock`` is the only hook of an untraced run.  It timestamps entry
  into ``Model.batch_loss`` and the return of ``adam_step``; the difference
  is one training step.
* ``Tracer`` records one span per call of every function in ``TIMED``
  (name, start, end, parent span, unit id) plus call counts of the small
  kernels in ``COUNTED``.  Spans stay in per-thread memory buffers until
  ``summary`` and ``write_spans`` run at the end.
"""

from __future__ import annotations

import gzip
import itertools
import os
import threading
import time
from array import array

import numpy as np

from helo import attention, data, labelspace, model, training, transport

_MODEL = model.Model

# (owner, attribute, reported name).  Owners are the modules that *call*
# the function, so a name imported with ``from .x import f`` is wrapped
# where it is used.
TIMED = (
    *(
        (attention, f, f"attention.{f}")
        for f in (
            "project_modality_forward",
            "project_modality_backward",
            "cross_attend_forward",
            "cross_attend_backward",
            "transformer_encode_forward",
            "transformer_encode_backward",
        )
    ),
    *(
        (transport, f, f"transport.{f}")
        for f in ("cost_matrix", "sinkhorn", "transport_tokens")
    ),
    *(
        (labelspace, f, f"labelspace.{f}")
        for f in (
            "lcdca_forward",
            "lcdca_backward",
            "predict_head_forward",
            "predict_head_backward",
            "kld_loss",
            "kld_loss_backward",
            "cc_loss",
            "cc_loss_backward",
            "label_correlation_forward",
            "label_correlation_backward",
        )
    ),
    *(
        (_MODEL, f, f"model.Model.{f}")
        for f in ("forward_sample", "batch_loss", "predict")
    ),
    *(
        (training, f, f"training.{f}")
        for f in (
            "train",
            "adam_step",
            "evaluate_model",
            "save_checkpoint",
            "load_checkpoint",
        )
    ),
    (training, "evaluate_set", "metrics.evaluate_set"),
    (data, "generate_synthetic", "data.generate_synthetic"),
)

# Kernels too small to time without distorting the caller: counted only.
COUNTED = (
    (attention, "softmax_rows", "linalg.softmax_rows"),
    (labelspace, "softmax_rows", "linalg.softmax_rows"),
    (attention, "layer_norm_forward", "linalg.layer_norm_forward"),
    (attention, "layer_norm_backward", "linalg.layer_norm_backward"),
    (transport, "cosine_rows_flagged", "linalg.cosine_rows_flagged"),
)

# Entry points that start a new unit (a training step or one prediction) and the number of samples each carries.
_UNIT_SAMPLES = {
    "model.Model.batch_loss": lambda args, kwargs: len(args[1]),
    "model.Model.predict": lambda args, kwargs: 1,
}


def _plan_stats(st, args, kwargs, plan) -> None:
    st.plans.append((plan.iterations, plan.converged))


def _file_bytes(key: str, position: int):
    """A hook recording the size of the file passed at ``position``."""

    def hook(st, args, kwargs, result) -> None:
        path = args[position] if len(args) > position else kwargs["path"]
        st.values.setdefault(key, []).append(os.path.getsize(path))

    return hook


# Per-call facts read after a traced function returns.
_AFTER = {
    "transport.sinkhorn": _plan_stats,
    "training.save_checkpoint": _file_bytes("training.save_checkpoint.bytes", 2),
    "training.load_checkpoint": _file_bytes("training.load_checkpoint.bytes", 0),
}


def _lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make) -> None:
        original = _lookup(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Undo every replacement; returns the attributes still not original."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        left = [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._saved
            if _lookup(owner, attr) is not original
        ]
        self._saved.clear()
        return left


class StepClock:
    """Wall time of each training step, from outside the program."""

    def __init__(self):
        self.steps_ms: list[float] = []
        self.unrestored: list[str] = []
        self._patches = Patches()
        self._entered = 0.0

    def __enter__(self) -> "StepClock":
        clock = time.perf_counter

        def batch_loss(original):
            def timed(*args, **kwargs):
                self._entered = clock()
                return original(*args, **kwargs)

            return timed

        def adam_step(original):
            def timed(*args, **kwargs):
                result = original(*args, **kwargs)
                self.steps_ms.append((clock() - self._entered) * 1e3)
                return result

            return timed

        self._patches.replace(_MODEL, "batch_loss", batch_loss)
        self._patches.replace(training, "adam_step", adam_step)
        return self

    def __exit__(self, *exc) -> None:
        self.unrestored = self._patches.restore()


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "unit", "samples", "plans", "values")

    def __init__(self, n_counted: int):
        self.stack: list[int] = []
        self.spans = array("q")  # id, fn, start, end, parent, unit per span
        self.counts = [0] * n_counted
        self.unit = 0
        self.samples = 0
        self.plans: list[tuple[int, bool]] = []
        self.values: dict[str, list[float]] = {}


class Tracer:
    """Span recorder for the functions in TIMED and counters for COUNTED."""

    def __init__(self):
        self.names = sorted({name for _, _, name in TIMED})
        self.counted = sorted({name for _, _, name in COUNTED})
        self.unrestored: list[str] = []
        self._patches = Patches()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main: _ThreadState | None = None
        self._span_ids = itertools.count()
        self._unit_ids = itertools.count(1)
        self._t0 = 0

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(len(self.counted))
            self._local.st = st
            self._states.append(st)
        return st

    def __enter__(self) -> "Tracer":
        self._main = self._state()
        self._t0 = time.perf_counter_ns()
        fn_index = {name: i for i, name in enumerate(self.names)}
        for owner, attr, name in TIMED:
            self._patches.replace(
                owner, attr, lambda f, i=fn_index[name], n=name: self._timed(f, i, n)
            )
        count_index = {name: i for i, name in enumerate(self.counted)}
        for owner, attr, name in COUNTED:
            self._patches.replace(
                owner, attr, lambda f, i=count_index[name]: self._count(f, i)
            )
        return self

    def __exit__(self, *exc) -> None:
        self.unrestored = self._patches.restore()

    def _count(self, original, index: int):
        state = self._state

        def counted(*args, **kwargs):
            state().counts[index] += 1
            return original(*args, **kwargs)

        return counted

    def _timed(self, original, fn: int, name: str):
        state, main = self._state, self._main
        next_span, next_unit = self._span_ids.__next__, self._unit_ids.__next__
        clock = time.perf_counter_ns
        unit_samples = _UNIT_SAMPLES.get(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            st = state()
            if unit_samples is not None:
                st.unit = next_unit()
                st.samples += unit_samples(args, kwargs)
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif st is not main and main.stack:
                # A worker thread of evaluate_model: its caller is whatever
                # the main thread is inside.
                parent = main.stack[-1]
            else:
                parent = -1
            span = next_span()
            stack.append(span)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st.spans.extend((span, fn, start, end, parent, st.unit))
            if after is not None:
                after(st, args, kwargs, result)
            return result

        return traced

    # -- results --------------------------------------------------------------

    def _rows(self) -> np.ndarray:
        """All spans as an (n, 6) int64 array ordered by span id."""
        parts = [np.frombuffer(st.spans, dtype=np.int64) for st in self._states]
        rows = np.concatenate(parts).reshape(-1, 6) if parts else np.zeros((0, 6), np.int64)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls and self time per function, plus counters."""
        rows = self._rows()
        fn, start, end, parent = rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4]
        duration = end - start
        covered = _child_coverage(parent, start - self._t0, end - self._t0, len(rows))
        self_ns = duration - covered
        n_fn = len(self.names)
        calls = np.bincount(fn, minlength=n_fn)
        self_ms = np.bincount(fn, weights=self_ns, minlength=n_fn) / 1e6
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
        samples = sum(st.samples for st in self._states)
        out["trace.samples"] = samples
        for i, name in enumerate(self.counted):
            count = sum(st.counts[i] for st in self._states)
            out[f"{name}.calls_per_sample"] = count / samples if samples else 0.0
        plans = [p for st in self._states for p in st.plans]
        iters = [it for it, _ in plans]
        out["transport.sinkhorn.iters_mean"] = float(np.mean(iters)) if iters else 0.0
        out["transport.sinkhorn.iters_max"] = max(iters, default=0)
        out["transport.sinkhorn.unconverged"] = sum(1 for _, ok in plans if not ok)
        values: dict[str, list[float]] = {}
        for st in self._states:
            for key, vals in st.values.items():
                values.setdefault(key, []).extend(vals)
        for key in (
            "training.save_checkpoint.bytes",
            "training.load_checkpoint.bytes",
        ):
            vals = values.get(key, [])
            out[key] = float(np.median(vals)) if vals else 0.0
        out["trace.spans"] = len(rows)
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span (times in ns from the start of tracing)."""
        rows = self._rows()
        rows[:, 2:4] -= self._t0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,unit\n")
            for block in range(0, len(rows), 65536):
                fh.writelines(
                    f"{span},{names[fn]},{start},{end},{parent},{unit}\n"
                    for span, fn, start, end, parent, unit in rows[
                        block : block + 65536
                    ].tolist()
                )


def _child_coverage(parent, start, end, n: int) -> np.ndarray:
    """For each span, the length of the union of its children's intervals.

    Children on one thread never overlap, but the worker threads of
    evaluate_model run side by side, so intervals are merged per parent.
    Each parent's intervals are shifted into a slot of their own so one
    running maximum over the sorted array never crosses parents.
    """
    has_parent = parent >= 0
    p = parent[has_parent]
    s = start[has_parent]
    e = end[has_parent]
    if p.size == 0:
        return np.zeros(n)
    slot = int(e.max()) + 1
    order = np.lexsort((s, p))
    ks = p[order] * slot + s[order]
    ke = p[order] * slot + e[order]
    reach = np.maximum.accumulate(ke)
    prev = np.concatenate(([np.iinfo(np.int64).min], reach[:-1]))
    gained = np.clip(ke - np.maximum(ks, prev), 0, None)
    return np.bincount(p[order], weights=gained, minlength=n)
