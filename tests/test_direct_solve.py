"""Direct solves of exact spectral systems and the residual test that guards them.

Every solve with a DCT-I inverse P marked exact starts from P b.  The
first solve with each P tests the residual of P b (one operator
application), raises ``SolverError`` above 1e-6 and stores the estimate
``P.residual``; ``cg_solve`` then returns P b with no operator
application whenever ``tol >= 100 P.residual``, and keeps the residual
test otherwise.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardioct import assembly
from cardioct.adjoint import CostConfig
from cardioct.assembly import build_operators
from cardioct.cli import main
from cardioct.control import ControlProblem
from cardioct.grid import Grid, TensorField
from cardioct.linalg import SolverError, cg_solve
from cardioct.spectral import SpectralBasis
from cardioct.verify import gradient_check, monodomain_limit_check

from conftest import assert_exact, fibres, make_problem, meets_tolerance, node_coords, scar
from test_cli import BASE
from test_warm_start import _off_diagonal

GRID_CASES = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(
        st.lists(st.integers(3, 33), min_size=dim, max_size=dim),
        st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim),
    )
)
COEFFS = st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3)


def _loads(g, rng):
    """A random, a smooth and a single-cosine-mode load, as three rows."""
    x = node_coords(g) / np.asarray(g.lengths)
    smooth = np.exp(-((x - 0.3) ** 2).sum(axis=1) / 0.1)
    mode = np.ones(g.n_nodes)
    for a, n in enumerate(g.nodes_per_axis):
        mode *= np.cos(np.pi * rng.integers(0, n) * x[:, a])
    return np.stack([rng.standard_normal(g.n_nodes), g.weights * smooth, g.weights * mode])


def _with_zero_row(B, j):
    return np.insert(B, min(j, len(B)), 0.0, axis=0)


def _counting(matvec):
    widths = []

    def counted(v):
        widths.append(1 if v.ndim == 1 else len(v))
        return matvec(v)

    return counted, widths


def _check_solve(matvec, precond, B, tol=1e-10):
    """Solve the rows of B twice: first with the residual test, then directly if allowed."""
    assert not hasattr(precond, "residual")
    for first in (True, False):
        counted, widths = _counting(matvec)
        X = cg_solve(counted, B, tol=tol, precond=precond)
        residual = np.linalg.norm(B - matvec(X), axis=1)
        assert np.all(residual <= tol * np.linalg.norm(B, axis=1))
        assert not X[~B.any(axis=1)].any()
        if not first and tol >= 100.0 * precond.residual:
            assert widths == []
            assert np.array_equal(X, precond(B))
        else:
            assert widths
    assert precond.residual >= 100.0 * np.finfo(float).eps


@settings(max_examples=25, deadline=None)
@given(GRID_CASES, COEFFS, COEFFS, st.floats(1e-3, 10.0), st.integers(0, 3),
       st.integers(0, 2**31 - 1))
def test_direct_solves_meet_their_tolerance(case, ci, ce, dt, zero, seed):
    rng = np.random.default_rng(seed)
    g = Grid(tuple(case[0]), tuple(case[1]), dt, 1)
    ops = build_operators(
        g, TensorField.diagonal(g, ci[: g.dim]), TensorField.diagonal(g, ce[: g.dim])
    )
    B = _with_zero_row(_loads(g, rng), zero)
    _check_solve(*ops.step_system, B)
    zero_sum = B - B.mean(axis=1, keepdims=True)
    _check_solve(*ops.neumann_system, zero_sum)
    apply, block = ops.coupled_system
    assert block.exact is True
    _check_solve(apply, block, np.concatenate((B, zero_sum[::-1]), axis=1))


def _axis_modes(g):
    """Loads of the two lowest cosine modes along every axis and of the highest mode."""
    x = node_coords(g) / np.asarray(g.lengths)
    rows = [g.weights * np.cos(np.pi * k * x[:, a]) for a in range(g.dim) for k in (1, 2)]
    top = np.prod([np.cos(np.pi * (n - 1) * x[:, a]) for a, n in enumerate(g.nodes_per_axis)],
                  axis=0)
    return np.stack(rows + [g.weights * top])


def _check_modes(matvec, precond, first, modes):
    """After a first solve of ``first``, solve ``modes`` directly at 100 times the residual."""
    cg_solve(matvec, first, tol=1e-6, precond=precond)
    tol = 100.0 * precond.residual
    counted, widths = _counting(matvec)
    X = cg_solve(counted, modes, tol=tol, precond=precond)
    assert widths == []
    residual = np.linalg.norm(modes - matvec(X), axis=1)
    assert np.all(residual <= tol * np.linalg.norm(modes, axis=1))


STRONG_CASES = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(
        st.lists(st.integers(3, 33), min_size=dim, max_size=dim),
        st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim),
        st.lists(st.floats(0.01, 100.0), min_size=dim, max_size=dim),
        st.lists(st.floats(0.01, 100.0), min_size=dim, max_size=dim),
    )
)


@settings(max_examples=40, deadline=None)
@given(STRONG_CASES, st.floats(1e-3, 10.0), st.integers(0, 2**31 - 1))
@example(((33, 9), (1.0, 2.0), (10.0, 0.1), (1.0, 1.0)), 1.0, 0)
@example(((201,), (1.0,), (10.0,), (1.0,)), 1.0, 0)
def test_every_axis_mode_meets_100_times_the_residual(case, dt, seed):
    # the first load is random and so may underrate the residual of the
    # softest mode, whose solution is the largest; the condition number of
    # the spectrum in the residual estimate covers it
    nodes, lengths, ci, ce = case
    g = Grid(tuple(nodes), tuple(lengths), dt, 1)
    ops = build_operators(g, TensorField.diagonal(g, ci), TensorField.diagonal(g, ce))
    first = np.random.default_rng(seed).standard_normal(g.n_nodes)
    modes = _axis_modes(g)
    _check_modes(*ops.step_system, first, modes)
    zero_sum = modes - modes.mean(axis=1, keepdims=True)
    _check_modes(*ops.neumann_system, first - first.mean(), zero_sum)
    apply, block = ops.coupled_system
    _check_modes(apply, block, np.concatenate((first, first - first.mean())),
                 np.concatenate((modes, zero_sum[::-1]), axis=1))


def _always_exact(monkeypatch):
    monkeypatch.setattr(TensorField, "constant_diagonal", property(lambda self: True))


@pytest.mark.parametrize(
    "make", [fibres, lambda g: scar(g, 1e-2), _off_diagonal],
    ids=["fibres", "scar", "off-diagonal"],
)
@pytest.mark.parametrize("nodes", [(9, 7), (5, 4, 6)], ids=["2d", "3d"])
def test_a_wrong_exact_mark_raises_at_first_use(make, nodes, monkeypatch):
    _always_exact(monkeypatch)
    g = Grid(nodes, (1.0,) * len(nodes), 0.1, 1)
    ops = build_operators(g, make(g), TensorField.isotropic(g, 1.0))
    load = np.random.default_rng(0).standard_normal(g.n_nodes)
    load -= load.mean()
    systems = {
        "step": (ops.step_system, load),
        "K_ie": (ops.neumann_system, load),
        "coupled": (ops.coupled_system, np.concatenate((load, load))),
    }
    for name, ((op, marked), b) in systems.items():
        assert marked.exact is True
        with pytest.raises(SolverError, match="relative residual") as info:
            cg_solve(op, b, tol=1e-10, precond=marked)
        assert info.value.residual > 1e-6, name
        assert f"{info.value.residual:.3e}" in str(info.value)
        assert not hasattr(marked, "residual")


def test_cli_reports_a_wrong_exact_mark_as_a_solver_error(tmp_path, capsys, monkeypatch):
    # eigenvalues off by half spoil the inverse while it stays marked exact
    eigenvalues = SpectralBasis.stiffness_eigenvalues
    monkeypatch.setattr(
        SpectralBasis, "stiffness_eigenvalues", lambda self, c: 1.5 * eigenvalues(self, c)
    )
    config = tmp_path / "run.ini"
    config.write_text(BASE)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: solver:") and "relative residual" in err


def test_the_residual_is_tested_on_the_first_solve_of_each_system_only(solves):
    # operator sets on two time steps, each with its step and coupled systems
    grids = [Grid((9, 7), (1.0, 1.3), dt, 1) for dt in (0.2, 0.4)]
    op_sets = [
        build_operators(g, TensorField.isotropic(g, 1.0), TensorField.diagonal(g, (2.0, 0.5)))
        for g in grids
    ]
    ops = op_sets[0]
    systems = [ops.step_system, ops.neumann_system, ops.coupled_system]
    # neither building the operators nor building the systems tests anything
    assert not any(hasattr(precond, "residual") for _, precond in systems)
    assert ops.step_system[1] is systems[0][1]
    g = grids[0]
    load = np.random.default_rng(0).standard_normal(g.n_nodes)
    load -= load.mean()
    for _ in range(2):
        assembly.solve_neumann(ops, load, tol=1e-10)
        for each in op_sets:
            A, precond = each.step_system
            assembly.cg_solve(A, load, tol=1e-10, precond=precond)
            assembly.solve_coupled_step(each, load, load, tol=1e-10)
    # one application on the first solve of each of the five systems
    assert [s["applications"] for s in solves] == [1] * 5 + [0] * 5
    for s in solves:
        assert_exact(s)
    # an inexact system is never marked, so it stores nothing
    fibre = build_operators(g, fibres(g), TensorField.isotropic(g, 1.0))
    A, precond = fibre.step_system
    cg_solve(A, load, tol=1e-10, precond=precond)
    assert not hasattr(precond, "residual")


def test_a_non_finite_load_raises_on_the_direct_path(grid2d):
    ops = build_operators(grid2d, TensorField.isotropic(grid2d, 1.0))
    A, precond = ops.step_system
    cg_solve(A, np.ones(grid2d.n_nodes), tol=1e-10, precond=precond)
    for bad in (np.nan, np.inf):
        load = np.ones(grid2d.n_nodes)
        load[3] = bad
        with pytest.raises(SolverError, match="non-finite"), np.errstate(invalid="ignore"):
            cg_solve(A, load, tol=1e-10, precond=precond)


def test_monodomain_limit_check_keeps_its_tight_tolerance(solves):
    # the grid and time step of the acceptance limit check, over fewer steps;
    # its tolerances lie below 100 times every residual estimate, which is
    # at least 100 eps, so every solve tests its residual
    g = Grid((33, 33), (1.0, 1.0), 0.05, 10)
    cfg = make_problem(g, lam=1.0, stimulus=0.3)
    assert monodomain_limit_check(cfg).discrepancy <= 1e-8
    # the monodomain steps, the coupled steps, one lift block and the frame-0 recovery
    assert len(solves) == 2 * g.n_steps + 2
    for s in solves:
        assert s["kwargs"]["tol"] in (1e-12, 1e-13)
        assert s["kwargs"]["precond"].exact is True
        assert s["applications"] >= 1
        assert meets_tolerance(s)


def test_constant_gradient_checks_run_on_direct_solves(grid1d, solves):
    # the configurations and bounds of the monodomain and bidomain checks in
    # test_verify and test_acceptance, the bidomain one on a coarser grid
    mono = make_problem(grid1d, stimulus=0.2)
    rep = gradient_check(ControlProblem(config=mono, cost=CostConfig(mu=1e-2, w_phi=1.0)),
                         n_directions=2, seed=0)
    assert rep.max_rel_error <= 1e-6
    g = Grid((9, 9), (1.0, 1.0), 0.3, 10)
    bi = make_problem(g, kind="bidomain", model="ap", stimulus=0.2)
    cost = CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5)
    rep = gradient_check(ControlProblem(config=bi, cost=cost), n_directions=2, seed=1)
    assert rep.max_rel_error <= 1e-3
    assert solves
    for s in solves:
        assert_exact(s)

