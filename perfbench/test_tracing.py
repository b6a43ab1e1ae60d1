"""Tests of the benchmark's tracing, on small versions of the workloads.

Run from the repository root:

    python3 -m pytest perfbench/test_tracing.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "mono3d_forward": {"nodes": 5, "n_steps": 3},
    "mono2d_control": {"nodes": 9, "n_steps": 3, "budget": 3},
    "bido2d_gradcheck": {"nodes": 5, "n_steps": 2},
}


def traced_metrics(workload, seed):
    inputs = workload.build(seed)
    tracer = tracing.Tracer()
    with tracer.installed():
        workload.run(inputs)
    return tracing.layer_metrics(tracer)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_traced_runs_give_the_same_counts(name):
    wl = workloads.WORKLOADS[name](**SMALL[name])
    first = traced_metrics(wl, seed=3)
    second = traced_metrics(wl, seed=3)
    assert {k: first[k] for k in tracing.COUNT_METRICS} == {
        k: second[k] for k in tracing.COUNT_METRICS
    }
    assert first["linalg.cg_solve.calls"] > 0
    assert first["linalg.cg_solve.matvecs"] >= first["linalg.cg_solve.calls"]


def test_spans_reach_each_layer_of_each_workload():
    mono3d = traced_metrics(workloads.Mono3dForward(**SMALL["mono3d_forward"]), 0)
    n = SMALL["mono3d_forward"]["n_steps"]
    assert mono3d["grid.dual_norm.calls"] == 2 * n
    assert mono3d["forward.step.calls"] == n
    assert mono3d["assembly.reduced_apply.calls"] == 0

    control = traced_metrics(workloads.Mono2dControl(**SMALL["mono2d_control"]), 0)
    assert control["adjoint.run_adjoint.calls"] == control["control.compute_gradient.calls"]
    assert control["grid.dual_norm.calls"] == 0
    assert 0.0 < control["control.armijo_accept_ratio"] <= 1.0

    bido = traced_metrics(workloads.Bido2dGradcheck(**SMALL["bido2d_gradcheck"]), 0)
    assert bido["verify.gradient_check.fd_simulations"] == 2 * len(
        workloads.Bido2dGradcheck.DELTAS
    )
    assert bido["assembly.reduced_apply.calls"] > 0
    assert bido["forward.recover_phi_e.calls"] > 0


def test_self_time_excludes_child_spans():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0], ["c", 2.0, 3.0, 1]]
    calls, total, self_time = tracing.span_totals(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert total["b"] == pytest.approx(4.0)
    assert self_time["a"] == pytest.approx(6.0)
    assert self_time["b"] == pytest.approx(3.0)


def test_line_searches_are_the_simulate_runs_after_each_gradient():
    order = ["simulate", "compute_gradient", "simulate", "simulate", "compute_gradient",
             "simulate", "compute_gradient"]
    spans = [["control.projected_gradient_descent", 0.0, 10.0, -1]]
    spans += [[f"control.{name}", float(i), i + 0.5, 0] for i, name in enumerate(order)]
    assert tracing._simulate_runs(spans, "control.projected_gradient_descent") == [2, 1]


def test_wrappers_are_removed_on_exit():
    from cardioct import forward, linalg

    before = (forward.cg_solve, linalg.cg_solve, forward.run_forward)
    with tracing.Tracer().installed():
        assert forward.cg_solve is not before[0]
        assert forward.cg_solve is linalg.cg_solve
    assert (forward.cg_solve, linalg.cg_solve, forward.run_forward) == before
