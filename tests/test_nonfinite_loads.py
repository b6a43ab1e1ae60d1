"""A non-finite load is an error on every path, never a converged solve.

An infinite load norm makes the target tol * ||b|| infinite, which any
iterate meets: PCG would return its warm start (or zeros).  A NaN norm
makes a target that no iterate meets, and PCG would run to its
iteration cap.  ``cg_solve`` raises ``SolverError`` on either before it
applies the operator; a forward step raises ``DivergenceError`` on its
own load, and the CLI exits 3 on both.  The constructors of the grid,
the ionic model and the cost reject a non-finite number up front.
"""

from dataclasses import replace

import numpy as np
import pytest

from cardioct.adjoint import CostConfig
from cardioct.assembly import build_operators
from cardioct.cli import main
from cardioct.forward import DivergenceError, run_forward
from cardioct.grid import Grid, TensorField
from cardioct.ionic import IonicParams
from cardioct.linalg import SolverError, cg_solve

from conftest import constant_field, fibres, make_problem

GRID = Grid((17, 17), (1.0, 1.0), 0.3, 5)
TENSORS = {"constant": lambda g: TensorField.isotropic(g, 1.0), "fibres": fibres}


def _counted(A):
    calls = []

    def apply(v):
        calls.append(v.shape)
        return A(v)

    return apply, calls


@pytest.mark.parametrize("tensor", sorted(TENSORS))
@pytest.mark.parametrize("block", [False, True])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_cg_solve_rejects_a_non_finite_load(tensor, block, bad):
    n = GRID.n_nodes
    for measured in (False, True):
        # a fresh system: the first solve of an exact one, then a later one
        A, precond = build_operators(GRID, TENSORS[tensor](GRID)).step_system(0.1)
        if measured:
            cg_solve(A, np.ones(n), precond=precond)
        load = np.ones((3, n) if block else n)
        load[..., 7] = bad
        apply, calls = _counted(A)
        with pytest.raises(SolverError, match="non-finite"), np.errstate(invalid="ignore"):
            cg_solve(apply, load, precond=precond, x0=np.ones_like(load))
        assert calls == []


@pytest.mark.parametrize("tensor", sorted(TENSORS))
def test_a_blown_up_forward_run_raises(tensor):
    cfg = make_problem(GRID, model="ap")
    cfg = replace(cfg, ops=build_operators(GRID, TENSORS[tensor](GRID), lam=1.0))
    # the cubic ionic current of 1e120 overflows: before the load test the
    # fibre run kept phi = 1e120 in every frame and raised nothing
    cfg = replace(cfg, phi0=constant_field(GRID, 1e120))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="step 1"):
            run_forward(cfg, report=False)


def test_cli_simulate_exits_3_on_a_blown_up_run(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(
        "[grid]\ndim = 2\nnodes = 17\nt_final = 0.3\nsteps = 5\n"
        "[model]\nkind = ap\n"
        "[stimulus]\nphi0_amplitude = 1e120\nphi0_width = 10.0\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "non-finite load" in capsys.readouterr().err


CONSTRUCTORS = {
    "T": lambda v: Grid((9,), (1.0,), v, 4),
    "lengths": lambda v: Grid((9,), (v,), 1.0, 4),
    "b": lambda v: IonicParams("rm", b=v),
    "kappa": lambda v: IonicParams("rm", kappa=v),
    "eps": lambda v: IonicParams("rm", eps=v),
    "mu": lambda v: CostConfig(mu=v),
    "w_phi": lambda v: CostConfig(w_phi=v),
    "w_eta": lambda v: CostConfig(w_eta=v),
    "w_gate": lambda v: CostConfig(w_gate=v),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_constructors_reject_a_non_finite_number(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        CONSTRUCTORS[name](bad)
