"""Span tracing of the cardioct layers from outside the package.

``Tracer.installed()`` replaces the public functions listed in
``SPANS`` with wrappers that record one span per call: name, start,
end and the index of the enclosing span.  The package binds functions
with ``from .x import y``, so a function is replaced under every name
it has in every loaded ``cardioct`` module, and restored on exit.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
figures and ``run.py`` writes them to one file when it ends.

Two wrappers do more than time a call: ``cg_solve`` counts operator
applications through a counting wrapper of its operator (and the CSR
bytes those applications touch), and ``reduced_operator`` wraps the
closure it returns, whose calls become ``assembly.reduced_apply`` spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) -> span name.  Both forward steppers share one name.
SPANS = {
    ("linalg", "cg_solve"): "linalg.cg_solve",
    ("assembly", "build_operators"): "assembly.build_operators",
    ("assembly", "bidomain_elliptic_solve"): "assembly.bidomain_elliptic_solve",
    ("assembly", "reduced_rhs_S"): "assembly.reduced_rhs_S",
    ("assembly", "solve_neumann"): "assembly.solve_neumann",
    ("ionic", "i_ion"): "ionic.i_ion",
    ("ionic", "gating_exact_update"): "ionic.gating_exact_update",
    ("ionic", "d_i_ion"): "ionic.d_i_ion",
    ("grid", "dual_norm"): "grid.dual_norm",
    ("grid", "bochner_norm"): "grid.bochner_norm",
    ("forward", "step_monodomain"): "forward.step",
    ("forward", "step_bidomain"): "forward.step",
    ("forward", "recover_phi_e"): "forward.recover_phi_e",
    ("forward", "forward_report"): "forward.forward_report",
    ("forward", "run_forward"): "forward.run_forward",
    ("adjoint", "run_adjoint"): "adjoint.run_adjoint",
    ("control", "simulate"): "control.simulate",
    ("control", "compute_gradient"): "control.compute_gradient",
    ("control", "projected_gradient_descent"): "control.projected_gradient_descent",
    ("verify", "gradient_check"): "verify.gradient_check",
}

REDUCED_APPLY = "assembly.reduced_apply"

# Per-layer metrics: name -> unit.  "calls" and "s" are the span count and
# summed span time; "self_s" subtracts the time covered by child spans.
PER_LAYER = {
    "linalg.cg_solve.calls": "count",
    "linalg.cg_solve.self_s": "s",
    "linalg.cg_solve.matvecs": "count",
    "linalg.cg_solve.matvecs_per_call": "count",
    "linalg.cg_solve.spmv_bytes_computed": "B",
    "assembly.reduced_apply.calls": "count",
    "assembly.reduced_apply.self_s": "s",
    "assembly.bidomain_elliptic_solve.calls": "count",
    "assembly.bidomain_elliptic_solve.s": "s",
    "assembly.reduced_rhs_S.calls": "count",
    "assembly.reduced_rhs_S.s": "s",
    "assembly.solve_neumann.calls": "count",
    "assembly.solve_neumann.s": "s",
    "assembly.build_operators.s": "s",
    "grid.dual_norm.calls": "count",
    "grid.dual_norm.s": "s",
    "grid.bochner_norm.calls": "count",
    "grid.bochner_norm.s": "s",
    "forward.forward_report.s": "s",
    "ionic.i_ion.calls": "count",
    "ionic.i_ion.s": "s",
    "ionic.gating_exact_update.calls": "count",
    "ionic.gating_exact_update.s": "s",
    "ionic.d_i_ion.calls": "count",
    "ionic.d_i_ion.s": "s",
    "forward.step.calls": "count",
    "forward.step.self_s": "s",
    "forward.recover_phi_e.calls": "count",
    "forward.recover_phi_e.s": "s",
    "forward.run_forward.calls": "count",
    "forward.run_forward.s": "s",
    "adjoint.run_adjoint.calls": "count",
    "adjoint.run_adjoint.s": "s",
    "control.simulate.calls": "count",
    "control.compute_gradient.calls": "count",
    "control.armijo_accept_ratio": "ratio",
    "verify.gradient_check.fd_simulations": "count",
    "trace.overhead_ratio": "ratio",
}

# Metrics that must repeat exactly when the same inputs are traced twice.
COUNT_METRICS = tuple(
    k for k, unit in PER_LAYER.items() if unit != "s" and k != "trace.overhead_ratio"
)


def _csr_bytes(A):
    """Bytes one CSR product reads and writes, computed from the array sizes."""
    n = A.shape[0]
    return (
        A.data.nbytes
        + A.indices.nbytes
        + A.indptr.nbytes
        + 2 * n * A.dtype.itemsize
    )


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent]`` lists in start order,
    ``parent`` being the index of the enclosing span or -1.
    ``counters`` holds the cg_solve operator counts.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def _wrap_cg_solve(self, fn):
        counters = self.counters

        def counted_cg_solve(A, b, **kwargs):
            if callable(A):
                matvec, nbytes = A, 0
            else:
                if kwargs.get("diag") is None:
                    kwargs["diag"] = A.diagonal()
                matvec, nbytes = A.__matmul__, _csr_bytes(A)

            def counting(v):
                counters["matvecs"] += 1
                counters["spmv_bytes"] += nbytes
                return matvec(v)

            return fn(counting, b, **kwargs)

        return self.wrap(SPANS[("linalg", "cg_solve")], counted_cg_solve)

    def _wrap_reduced_operator(self, fn):
        wrap = self.wrap

        def reduced_operator(*args, **kwargs):
            apply, diag = fn(*args, **kwargs)
            return wrap(REDUCED_APPLY, apply), diag

        return reduced_operator

    def _wrapper_for(self, key, fn):
        if key == ("linalg", "cg_solve"):
            return self._wrap_cg_solve(fn)
        if key == ("assembly", "reduced_operator"):
            return self._wrap_reduced_operator(fn)
        return self.wrap(SPANS[key], fn)

    @contextmanager
    def installed(self):
        """Replace the traced functions in every loaded cardioct module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cardioct" or n.startswith("cardioct."))]
        keys = list(SPANS) + [("assembly", "reduced_operator")]
        replaced = []
        try:
            for key in keys:
                original = getattr(sys.modules["cardioct." + key[0]], key[1])
                wrapper = self._wrapper_for(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)


_SEARCH_CODES = {"control.compute_gradient": "g", "control.simulate": "s"}


def _simulate_runs(spans, parent_name):
    """Lengths of the runs of ``simulate`` children between gradient calls.

    Only runs after a parent's first ``compute_gradient`` count: the
    simulate before it is the initial evaluation.  In
    projected_gradient_descent each run is one line search, which ends
    by accepting its last trial; in gradient_check the one run holds the
    finite-difference simulations.
    """
    runs = []
    for idx, span in enumerate(spans):
        if span[0] == parent_name:
            seq = "".join(_SEARCH_CODES.get(s[0], "") for s in spans if s[3] == idx)
            runs += [len(r) for r in seq.partition("g")[2].split("g") if r]
    return runs


def _self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def span_totals(spans):
    """Per span name: (calls, summed span time, summed self time)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for (name, start, end, _), own in zip(spans, _self_times(spans)):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += own
    return calls, total, self_time


def self_time_by_parent(spans):
    """Self time keyed by (span name, parent span name), for the breakdown table."""
    out = defaultdict(float)
    for (name, _, _, parent), own in zip(spans, _self_times(spans)):
        out[(name, spans[parent][0] if parent >= 0 else "-")] += own
    return out


def layer_metrics(tracer):
    """Reduce one traced headline call to the PER_LAYER figures (no overhead ratio)."""
    calls, total, self_time = span_totals(tracer.spans)
    m = {}
    for key, unit in PER_LAYER.items():
        layer, _, field = key.rpartition(".")
        if field == "calls":
            m[key] = calls.get(layer, 0)
        elif field == "s":
            m[key] = total.get(layer, 0.0)
        elif field == "self_s":
            m[key] = self_time.get(layer, 0.0)
    cg_calls = calls.get("linalg.cg_solve", 0)
    m["linalg.cg_solve.matvecs"] = tracer.counters["matvecs"]
    m["linalg.cg_solve.matvecs_per_call"] = (
        tracer.counters["matvecs"] / cg_calls if cg_calls else 0.0
    )
    m["linalg.cg_solve.spmv_bytes_computed"] = tracer.counters["spmv_bytes"]
    searches = _simulate_runs(tracer.spans, "control.projected_gradient_descent")
    m["control.armijo_accept_ratio"] = len(searches) / sum(searches) if searches else 0.0
    m["verify.gradient_check.fd_simulations"] = sum(
        _simulate_runs(tracer.spans, "verify.gradient_check")
    )
    return m
