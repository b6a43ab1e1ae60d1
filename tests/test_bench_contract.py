"""The names and signatures the benchmark's tracer relies on.

``perfbench/tracing.py`` replaces package functions by name, wraps
the operator of every ``cg_solve`` call in a counting closure and
unpacks the pair ``reduced_operator`` returns.  A refactor that
breaks any of that leaves the benchmark without its per-layer
figures; these runs, traced as the benchmark traces them, fail
instead.
"""

from pathlib import Path

from cardioct.adjoint import CostConfig
from cardioct.control import ControlProblem, projected_gradient_descent
from cardioct.grid import Grid
from cardioct.verify import gradient_check

from conftest import make_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
