"""The names, signatures and outputs the benchmark relies on.

``perfbench/tracing.py`` replaces package functions by name, wraps
the operator of every ``cg_solve`` call in a counting closure and
unpacks the pair ``reduced_operator`` returns.  A refactor that
breaks any of that leaves the benchmark without its per-layer
figures; these runs, traced as the benchmark traces them, fail
instead.  Each workload of ``perfbench/workloads.py`` must also pass
its own gate, or the benchmark rejects its outputs as incorrect.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.assembly import build_operators
from cardioct.control import ControlProblem, projected_gradient_descent
from cardioct.forward import run_forward
from cardioct.grid import Grid, TensorField
from cardioct.verify import gradient_check

from conftest import fibres, make_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def test_tracer_sees_every_layer_it_reports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    g = Grid((9, 9), (1.0, 1.0), 0.3, 3)
    mono = ControlProblem(
        config=make_problem(g, stimulus=0.3), cost=CostConfig(mu=1e-2, w_phi=1.0), budget=2
    )
    bido = ControlProblem(
        config=make_problem(g, kind="bidomain", stimulus=0.3),
        cost=CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5),
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        projected_gradient_descent(mono)
        gradient_check(bido, n_directions=1, deltas=[1e-2, 5e-3, 2.5e-3])
    metrics = tracing.layer_metrics(tracer)
    for name in (
        "forward.step.calls",
        "adjoint.run_adjoint.calls",
        "linalg.cg_solve.calls",
        "forward.recover_phi_e.calls",
    ):
        assert metrics[name] > 0, name


def test_tracer_sees_every_coupled_application(monkeypatch):
    # solve_coupled_step reads its system through reduced_operator on every
    # call, the function whose returned apply the tracer times
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    g = Grid((9, 9), (1.0, 1.0), 0.3, 3)
    mi = fibres(g)
    me = TensorField(g, 0.6 * np.eye(2) + 0.5 * mi.entries)
    cfg = replace(make_problem(g, kind="bidomain", stimulus=0.3), ops=build_operators(g, mi, me))
    apply, precond = cfg.ops.coupled_system
    applications = [0]

    def counted(x):
        applications[0] += 1
        return apply(x)

    cfg.ops.coupled_system = (counted, precond)
    tracer = tracing.Tracer()
    with tracer.installed():
        traj = run_forward(cfg, report=False)
        run_adjoint(cfg, traj, CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5), report=False)
    assert applications[0] > 0
    assert tracing.layer_metrics(tracer)["assembly.reduced_apply.calls"] == applications[0]


# seeds of the workloads whose gate reads no recorded reference
UNRECORDED_SEEDS = (0, 1, 2, 3)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_each_workload_passes_its_gate(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert set(workloads.WORKLOADS) == set(REFERENCE)
    reference = REFERENCE[name]
    workload = workloads.WORKLOADS[name](**reference["size"])
    seeds = [int(s) for s in reference["seeds"]] or UNRECORDED_SEEDS
    for seed in seeds:
        inputs = workload.build(seed)
        result = workload.run(inputs)
        ref = reference["seeds"].get(str(seed))
        assert workload.check(inputs, result, reference["gate"], ref) == [], seed
