from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from cardioct.assembly import assemble_stiffness
from cardioct.grid import Grid, TensorField
from cardioct.linalg import cg_solve

from conftest import fibres, jacobi, random_spd

# unequal lengths and node counts in every dimension
CASES = [
    ((7,), (1.3,), (0.7,)),
    ((9, 6), (1.0, 2.5), (1.0, 0.3)),
    ((5, 7, 4), (1.0, 0.6, 2.0), (1.0, 0.5, 2.0)),
]


def _matrix(fn, n):
    return np.column_stack([fn(e) for e in np.eye(n)])


@pytest.mark.parametrize("nodes, lengths", [case[:2] for case in CASES])
def test_transform_is_kronecker_of_axis_cosines(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 1)
    cosines = [np.cos(np.pi * np.outer(np.arange(n), np.arange(n)) / (n - 1)) for n in nodes]
    V = reduce(np.kron, cosines)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(g.n_nodes)
    y = g.spectral.transform(x.reshape(nodes))
    assert y.shape == nodes
    assert np.abs(y.ravel() - V @ x).max() < 1e-13 * np.abs(V @ x).max()


@pytest.mark.parametrize("nodes, lengths, coeffs", CASES)
def test_exact_inverse_of_mass_plus_stiffness(nodes, lengths, coeffs):
    g = Grid(nodes, lengths, 1.0, 1)
    K = assemble_stiffness(TensorField.diagonal(g, coeffs))
    beta = 0.37
    A = (sp.diags(g.weights) + beta * K).toarray()
    basis = g.spectral
    P = _matrix(basis.inverse(1.0 + beta * basis.stiffness_eigenvalues(coeffs)), g.n_nodes)
    assert np.abs(P @ A - np.eye(g.n_nodes)).max() < 1e-12
    assert np.abs(P - P.T).max() < 1e-12 * np.abs(P).max()


@pytest.mark.parametrize("nodes, lengths", [case[:2] for case in CASES])
@pytest.mark.parametrize("seed", [0, 1])
def test_mean_diagonal_is_the_energy_of_the_linear_functions(nodes, lengths, seed):
    # x_a^T K x_a = sum over cells of |cell| M_aa, so the quadrature of the
    # assembled matrix divided by |Omega| gives the cell means of the diagonal
    g = Grid(nodes, lengths, 1.0, 1)
    tensor = random_spd(g, np.random.default_rng(seed))
    K = assemble_stiffness(tensor)
    linear = [x.ravel() for x in np.meshgrid(*g.axis_coords, indexing="ij")]
    quadrature = [x @ (K @ x) / g.measure for x in linear]
    assert np.allclose(tensor.mean_diagonal, quadrature, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nodes, lengths, coeffs", CASES)
def test_exact_pseudo_inverse_of_neumann_stiffness(nodes, lengths, coeffs):
    g = Grid(nodes, lengths, 1.0, 1)
    K = assemble_stiffness(TensorField.diagonal(g, coeffs))
    pinv = g.spectral.inverse(g.spectral.stiffness_eigenvalues(coeffs))
    rng = np.random.default_rng(1)
    r = rng.standard_normal(g.n_nodes)
    r -= r.mean()  # compatible load
    x = pinv(r)
    assert np.abs(K @ x - r).max() < 1e-12 * np.abs(r).max()
    assert abs(g.weights @ x) < 1e-12 * g.measure * np.abs(x).max()
    # constants, the kernel of K, map to the weighted-mean gauge too
    assert abs(g.weights @ pinv(np.ones(g.n_nodes))) < 1e-12


@pytest.mark.parametrize("nodes, lengths, coeffs", CASES)
def test_block_inverse_of_coupled_step_system(nodes, lengths, coeffs):
    # [[M + dt K_i, dt K_i], [dt K_i, dt K_ie]] for constant diagonal tensors
    g = Grid(nodes, lengths, 1.0, 1)
    dt, n = 0.3, g.n_nodes
    coeffs_ie = tuple(1.5 * c + 0.2 for c in coeffs)
    K_i = assemble_stiffness(TensorField.diagonal(g, coeffs)).toarray()
    K_ie = assemble_stiffness(TensorField.diagonal(g, coeffs_ie)).toarray()
    B = np.block([[np.diag(g.weights) + dt * K_i, dt * K_i], [dt * K_i, dt * K_ie]])
    basis = g.spectral
    lam_i = basis.stiffness_eigenvalues(coeffs)
    lam_ie = basis.stiffness_eigenvalues(coeffs_ie)
    P = _matrix(basis.block_inverse(1.0 + dt * lam_i, dt * lam_i, dt * lam_ie), 2 * n)
    assert np.abs(P - P.T).max() < 1e-12 * np.abs(P).max()
    # B P is the identity on the range of B (psi-block of zero sum) ...
    Pi = np.eye(2 * n)
    Pi[n:, n:] -= 1.0 / n
    assert np.abs(B @ P @ Pi - Pi).max() < 1e-11
    # ... and P maps into the weighted zero-mean gauge of psi
    assert np.abs(g.weights @ P[n:]).max() < 1e-12 * np.abs(P).max()


def test_dual_weights_invert_riesz_operator():
    # V diag(dual_weights) V^T is the inverse of R = K(identity) + M
    g = Grid((6, 5, 4), (1.0, 2.0, 0.5), 1.0, 1)
    R = (assemble_stiffness(TensorField.isotropic(g, 1.0)) + sp.diags(g.weights)).toarray()
    V = _matrix(g.spectral.transform, g.n_nodes)
    P = V @ (g.dual_weights[:, None] * V.T)
    assert np.abs(P @ R - np.eye(g.n_nodes)).max() < 1e-12


def test_preconditioner_is_symmetric_for_variable_tensors():
    g = Grid((9, 11), (1.0, 1.5), 1.0, 1)
    basis = g.spectral
    lam = basis.stiffness_eigenvalues(fibres(g).mean_diagonal)
    for eig in (1.0 + 0.1 * lam, lam):
        P = _matrix(basis.inverse(eig), g.n_nodes)
        assert np.abs(P - P.T).max() < 1e-12 * np.abs(P).max()
        assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() > -1e-12 * np.abs(P).max()


def _iterations(A, b, precond):
    count = [0]

    def matvec(v):
        count[0] += 1
        return A @ v

    cg_solve(matvec, b, tol=1e-10, precond=precond)
    return count[0]


@pytest.mark.parametrize("system", ["step", "neumann"])
def test_iteration_counts_do_not_grow_under_refinement(system):
    spectral, diagonal = [], []  # operator applications: spectral and Jacobi PCG
    for n in (33, 65):
        g = Grid((n, n), (1.0, 1.0), 1.0, 1)
        tensor = fibres(g)
        K = assemble_stiffness(tensor)
        lam = g.spectral.stiffness_eigenvalues(tensor.mean_diagonal)
        b = g.weights * np.random.default_rng(2).standard_normal(g.n_nodes)
        if system == "step":
            A, eig = (sp.diags(g.weights) + K).tocsr(), 1.0 + lam
        else:
            A, eig = K, lam
            b -= b.mean()  # a load in the range of K
        spectral.append(_iterations(A, b, precond=g.spectral.inverse(eig)))
        diagonal.append(_iterations(A, b, precond=jacobi(A)))
    assert max(spectral) <= 1.3 * min(spectral)
    assert all(s < j for s, j in zip(spectral, diagonal))
