"""Every linear solve of the package is posed one way.

``SystemOperators`` hands each system to ``cg_solve`` as a callable
operator on the DIA stencils plus its spectral preconditioner; no call
passes a matrix or relies on a built-in preconditioner.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from cardioct import linalg
from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.assembly import build_operators
from cardioct.control import ControlProblem
from cardioct.forward import run_forward
from cardioct.grid import Grid, TensorField
from cardioct.verify import gradient_check

from conftest import fibres, make_problem


def _problem(g, kind, tensor):
    cfg = make_problem(g, kind=kind, stimulus=0.3)
    if tensor == "fibres":
        mi = fibres(g)
        me = TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries) if kind == "bidomain" else None
        cfg = replace(cfg, ops=build_operators(g, mi, me))
    return cfg


@pytest.fixture
def calls(monkeypatch):
    """(operator, keywords) of every ``cg_solve`` call, under every name it has in the package."""
    original = linalg.cg_solve
    record = []

    def recorded(A, b, **kwargs):
        record.append((A, kwargs))
        return original(A, b, **kwargs)

    patched = set()
    for name, mod in list(sys.modules.items()):
        if name.startswith("cardioct") and getattr(mod, "cg_solve", None) is original:
            monkeypatch.setattr(mod, "cg_solve", recorded)
            patched.add(name)
    assert {"cardioct.forward", "cardioct.adjoint", "cardioct.assembly"} <= patched
    return record


def test_every_solve_gets_a_callable_operator_and_a_preconditioner(calls):
    runs = []  # (index of the run's first call, the run's operator set)
    for nodes in ((9, 7), (5, 4, 6)):
        g = Grid(nodes, (1.0,) * len(nodes), 0.3, 3)
        for kind in ("monodomain", "bidomain"):
            for tensor in ("constant", "fibres"):
                cfg = _problem(g, kind, tensor)
                runs.append((len(calls), cfg.ops))
                traj = run_forward(cfg)
                w_eta = 0.5 if kind == "bidomain" else 0.0
                run_adjoint(cfg, traj, CostConfig(mu=1e-2, w_phi=1.0, w_eta=w_eta))
    g = Grid((9, 7), (1.0, 1.0), 0.3, 3)
    problem = ControlProblem(
        config=_problem(g, "bidomain", "fibres"),
        cost=CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5),
    )
    before = len(calls)
    runs.append((before, problem.config.ops))
    gradient_check(problem, n_directions=1, deltas=[1e-2, 5e-3, 2.5e-3])
    assert len(calls) > before
    for A, kwargs in calls:
        assert callable(A)
        assert callable(kwargs["precond"])
    # both the direct and the iterating paths were reached
    assert {kwargs["precond"].exact for _, kwargs in calls} == {True, False}
    # every solve uses a system of the operator set of the run that made it
    ends = [start for start, _ in runs[1:]] + [len(calls)]
    for (start, ops), end in zip(runs, ends):
        systems = [ops.step_system]
        if ops.me is not None:
            systems += [ops.neumann_system, ops.coupled_system]
        for _, kwargs in calls[start:end]:
            assert any(kwargs["precond"] is precond for _, precond in systems)
