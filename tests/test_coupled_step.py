"""The coupled block bidomain step on rotating-fibre tensors.

With variable tensors the spectral preconditioner is not exact, so
these cases exercise the block PCG, the exact-transpose adjoint and
the monodomain limit where constant tensors would stop after one
iteration.
"""

from dataclasses import replace

import numpy as np
import pytest

from cardioct.adjoint import CostConfig
from cardioct.assembly import (
    bidomain_elliptic_solve,
    build_operators,
    reduced_operator,
    reduced_rhs_S,
    solve_coupled_step,
)
from cardioct.control import ControlProblem
from cardioct.grid import Grid, TensorField
from cardioct.linalg import cg_solve
from cardioct.verify import gradient_check, monodomain_limit_check

from conftest import fibres, make_problem


def _fibre_operators(g):
    """M_i rotating fibres, M_e = 0.6 I + 0.5 M_i."""
    mi = fibres(g)
    me = TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries)
    return build_operators(g, mi, me)


def _nested_schur_step(ops, dt, rhs_u, I_i, I_e, tol):
    """The step solved the reduced way, as before the coupled solve.

    Outer CG on (Mass + dt A_h) phi = rhs_u - dt Mass I_i + dt S, where
    every application of A_h = K_i - K_i K_ie^+ K_i runs an inner
    K_ie CG on the zero-sum load K_i v and S is the reduced forcing;
    psi is then K_ie^+ (Mass (I_i + I_e) - K_i phi).
    """
    K_i, mass = ops.K_i, ops.mass
    K_ie, precond_ie = ops.neumann_system

    def apply(v):
        Kv = K_i @ v
        inner = cg_solve(K_ie, Kv, tol=0.1 * tol, precond=precond_ie)
        return mass * v + dt * (Kv - K_i @ inner)

    lam_i, lam_ie = ops.spectrum_i, ops.spectrum_ie
    schur = lam_i - np.divide(lam_i**2, lam_ie, out=np.zeros_like(lam_i), where=lam_ie > 0)
    precond = ops.grid.spectral.inverse(1.0 + dt * schur)
    rhs = rhs_u - dt * mass * I_i + dt * reduced_rhs_S(ops, I_i, I_e, tol=0.1 * tol)
    phi = cg_solve(apply, rhs, tol=tol, precond=precond)
    load = mass * (I_i + I_e) - K_i @ phi
    return phi, bidomain_elliptic_solve(ops, load, tol=0.1 * tol)


def _step_data(g, seed):
    rng = np.random.default_rng(seed)
    phi0, I_i, I_e = rng.standard_normal((3, g.n_nodes))
    I_e -= (g.weights @ (I_i + I_e)) / g.measure
    return g.weights * (phi0 + g.dt * I_i), I_i, I_e


@pytest.mark.parametrize("nodes", [(17, 17), (7, 6, 5)])
def test_coupled_step_matches_nested_schur_solve(nodes):
    g = Grid(nodes, (1.0,) * len(nodes), 0.3, 3)
    ops = _fibre_operators(g)
    f, I_i, I_e = _step_data(g, 3)
    phi, psi = solve_coupled_step(ops, f, g.dt * ops.mass * (I_i + I_e), tol=1e-13)
    phi_ref, psi_ref = _nested_schur_step(ops, g.dt, f, I_i, I_e, tol=1e-13)
    assert np.linalg.norm(phi - phi_ref) <= 1e-9 * np.linalg.norm(phi_ref)
    assert np.linalg.norm(psi - psi_ref) <= 1e-9 * np.linalg.norm(psi_ref)
    assert abs(g.weights @ psi) <= 1e-12 * g.measure * np.abs(psi).max()


def test_block_pcg_iterations_do_not_grow_under_refinement():
    counts = []
    for n in (33, 65):
        g = Grid((n, n), (1.0, 1.0), 0.3, 3)
        ops = _fibre_operators(g)
        apply, precond = reduced_operator(ops)
        f, I_i, I_e = _step_data(g, 4)
        b = np.concatenate((f, g.dt * ops.mass * (I_i + I_e)))
        b[n * n :] -= b[n * n :].mean()
        count = [0]

        def counted(v):
            count[0] += 1
            return apply(v)

        cg_solve(counted, b, tol=1e-10, precond=precond)
        counts.append(count[0])
    assert max(counts) <= 1.3 * min(counts)


@pytest.mark.parametrize("nodes, n_steps", [((17, 17), 6), ((7, 7, 7), 4)])
def test_fibre_bidomain_gradient_check(nodes, n_steps):
    g = Grid(nodes, (1.0,) * len(nodes), 0.3, n_steps)
    cfg = make_problem(g, kind="bidomain", model="ap", stimulus=0.2)
    cfg = replace(cfg, ops=_fibre_operators(g))
    problem = ControlProblem(config=cfg, cost=CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5))
    assert gradient_check(problem, n_directions=2, seed=5).max_rel_error <= 1e-3


@pytest.mark.parametrize("nodes", [(17, 17), (7, 6, 5)])
def test_fibre_monodomain_limit(nodes):
    g = Grid(nodes, (1.0,) * len(nodes), 0.3, 8)
    cfg = make_problem(g, lam=0.7, stimulus=0.3)
    cfg = replace(cfg, ops=build_operators(g, fibres(g), lam=0.7))
    assert monodomain_limit_check(cfg).discrepancy <= 1e-8
