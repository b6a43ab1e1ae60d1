"""Which CG solves are direct, and which keep their warm start.

A DCT-I inverse P built for a constant diagonal tensor is the exact
inverse of its system and is marked ``exact``; ``cg_solve`` ignores
the caller's ``x0`` and returns P b, testing its residual with one
operator application on the system's first solve and with none after
that.  Every other preconditioner keeps the warm start.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.assembly import build_operators
from cardioct.forward import run_forward
from cardioct.grid import Grid, TensorField

from conftest import assert_exact, fibres, make_problem, scar


@pytest.mark.parametrize(
    "grid",
    [Grid((9, 7), (1.0, 1.3), 0.3, 6), Grid((5, 4, 6), (1.0, 0.8, 1.2), 0.3, 4)],
    ids=["2d", "3d"],
)
def test_constant_monodomain_solves_directly(grid, solves):
    cfg = make_problem(grid, stimulus=0.3)
    traj = run_forward(cfg, report=False)
    run_adjoint(cfg, traj, CostConfig(mu=1e-2, w_phi=1.0), report=False)
    assert len(solves) == 2 * grid.n_steps
    # the call sites still pass their warm start; cg_solve does not use it
    assert all(s["kwargs"]["x0"] is not None for s in solves)
    assert [s["applications"] for s in solves] == [1] + [0] * (len(solves) - 1)
    for s in solves:
        assert_exact(s)


def test_constant_bidomain_recovers_phi_e_directly(grid2d, solves):
    cfg = make_problem(grid2d, kind="bidomain", stimulus=0.3)
    run_forward(cfg, report=False)
    # the current lifts of all frames in one block, then the frame-0 recovery
    recover = [s for s in solves if s["A"] is cfg.ops.neumann_system[0]]
    assert [s["b"].shape for s in recover] == [
        (grid2d.n_steps + 1, grid2d.n_nodes),
        (grid2d.n_nodes,),
    ]
    assert all("x0" not in s["kwargs"] for s in recover)
    assert recover[0]["applications"] == 1
    assert all(s["applications"] == 0 for s in recover[1:])
    # the coupled steps are direct too
    assert len(solves) == grid2d.n_steps + 2
    for s in solves:
        assert_exact(s)


def test_fibre_steps_keep_their_warm_start(grid2d, solves):
    cfg = make_problem(grid2d, stimulus=0.3)
    cfg = replace(cfg, ops=build_operators(grid2d, fibres(grid2d)))
    run_forward(cfg, report=False)
    assert len(solves) == grid2d.n_steps
    for s in solves:
        assert s["kwargs"]["x0"] is not None
        assert s["kwargs"]["precond"].exact is False


GRID_CASES = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(
        st.lists(st.integers(3, 7), min_size=dim, max_size=dim),
        st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim),
    )
)
COEFFS = st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3)


def _relative_residual(A, precond, b):
    return np.linalg.norm(A(precond(b)) - b) / np.linalg.norm(b)


@settings(max_examples=30, deadline=None)
@given(GRID_CASES, COEFFS, COEFFS, st.floats(2e-3, 20.0), st.integers(0, 2**31 - 1))
def test_constant_diagonal_inverses_are_exact(case, ci, ce, dt, seed):
    nodes, lengths = case
    g = Grid(tuple(nodes), tuple(lengths), dt, 1)
    mi = TensorField.diagonal(g, ci[: g.dim])
    me = TensorField.diagonal(g, ce[: g.dim])
    ops = build_operators(g, mi, me)
    b = np.random.default_rng(seed).standard_normal(g.n_nodes)
    A, precond = ops.step_system
    assert precond.exact is True
    assert _relative_residual(A, precond, b) <= 1e-10
    K_ie, precond = ops.neumann_system
    assert precond.exact is True
    assert _relative_residual(K_ie, precond, b - b.mean()) <= 1e-10


def _off_diagonal(g):
    cell = np.eye(g.dim) + 0.3 * (np.ones((g.dim, g.dim)) - np.eye(g.dim))
    return TensorField(g, np.tile(cell, (g.n_cells, 1, 1)))


def _one_cell_perturbed(g):
    # a constant tensor's entries are a read-only view: perturb the full array first
    entries = np.tile(np.eye(g.dim), (g.n_cells, 1, 1))
    entries[g.n_cells // 2] *= 1.5
    return TensorField(g, entries)


@pytest.mark.parametrize(
    "make", [_off_diagonal, _one_cell_perturbed, lambda g: scar(g, 1e-2)],
    ids=["off-diagonal", "one-cell", "scar"],
)
@pytest.mark.parametrize("nodes", [(9, 7), (5, 4, 6)], ids=["2d", "3d"])
def test_inexact_inverses_are_not_marked(make, nodes):
    g = Grid(nodes, (1.0,) * len(nodes), 1.0, 1)
    iso = TensorField.isotropic(g, 1.0)
    varied = build_operators(g, make(g), iso)
    assert varied.step_system[1].exact is False
    assert varied.neumann_system[1].exact is False
    assert varied.coupled_system[1].exact is False
    # a constant mi keeps its step exact; the variable me spoils K_ie and the block
    mixed = build_operators(g, iso, make(g))
    assert mixed.step_system[1].exact is True
    assert mixed.neumann_system[1].exact is False
    assert mixed.coupled_system[1].exact is False
