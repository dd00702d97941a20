"""Span tracing of gfusion from outside the package: wrap, record, restore.

Every public function of a ``gfusion`` module is wrapped once and the wrapper
is bound in every ``gfusion`` namespace that binds the function, so calls
between modules and within a module are both seen.  ``Subspace.projector`` and
``Subspace`` construction (``__post_init__``) are wrapped on the class.

A span is (name, start, end, parent span, request id).  Spans stay in memory
until ``write`` at the end of the run.  A span's self time is its duration
minus the durations of the wrapped spans directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

import gfusion
import gfusion.linalg

CERTIFIERS = (
    "certify_frame_operator_perturbation",
    "certify_R_condition",
    "certify_synthesis_perturbation",
    "certify_analysis_perturbation",
    "check_invertibility_lemma",
)


def _order(a):
    return a[0].shape[0]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.request = None
        self._stack: list[int] = []
        self._restore: list = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.request)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _counters(self):
        """Counters taken at layer boundaries from a call's arguments and result, by span name."""
        c = self.counts

        def eigensolve(a, out):
            c["linalg.eig_work.computed"] += _order(a) ** 3

        def eig_extremes(a, out):
            eigensolve(a, out)
            c["linalg.hermitian_eigen_extremes.max_order"] = max(
                c["linalg.hermitian_eigen_extremes.max_order"], _order(a))

        def norm_size(a, out):
            c["linalg.operator_norm.max_elems"] = max(c["linalg.operator_norm.max_elems"], getattr(a[0], "size", 0))

        def vectors(a, out):
            c["sampling.random_unit_vectors.vectors"] += out.shape[1]

        def payload_bytes(a, out):
            c["io.dumps_canonical.bytes"] += len(out)

        def mode(a, out):
            # The lemma report has no mode: its hypothesis is always sampled.
            c[f"perturb.mode.{getattr(out, 'mode', 'sampled')}"] += 1

        return {
            "linalg.hermitian_eigen_extremes": eig_extremes,
            "linalg.hpd_inverse": eigensolve,
            "linalg.operator_norm": norm_size,
            "sampling.random_unit_vectors": vectors,
            "io.dumps_canonical": payload_bytes,
            **{f"perturb.{name}": mode for name in CERTIFIERS},
        }

    # ------------------------------------------------------------ install

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "gfusion" or k.startswith("gfusion.")]
        wrapped = {}
        counters = self._counters()
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("gfusion."):
                    continue
                if id(fn) not in wrapped:
                    name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
                    wrapped[id(fn)] = self._wrap(name, fn, counters.get(name))
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])
        sub = gfusion.linalg.Subspace
        for attr, name in (("projector", "linalg.Subspace.projector"), ("__post_init__", "linalg.Subspace.init")):
            fn = vars(sub)[attr]
            self._restore.append((sub, attr, fn))
            setattr(sub, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # ------------------------------------------------------------ reading

    def aggregate(self) -> dict:
        """Per-name {calls, self_ms} over the recorded spans, plus the extra counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += (t1 - t0 - child[i]) * 1e3
        out.update(self.counts)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(t0, 7), round(t1, 7), parent, req]) + "\n")
