from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from cardioct.linalg import SolverError, cg_solve, row_product
from conftest import jacobi


def test_small_spd_system():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = cg_solve(partial(row_product, A), np.array([3.0, 3.0]), tol=1e-14, precond=jacobi(A))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_matches_dense_solve():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((12, 12))
    A = B @ B.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x = cg_solve(partial(row_product, sp.csr_matrix(A)), b, tol=1e-13, precond=jacobi(A))
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)


def test_zero_rhs_short_circuits():
    A = sp.eye(5, format="csr")
    x = cg_solve(partial(row_product, A), np.zeros(5), tol=1e-10, precond=jacobi(A))
    assert np.all(x == 0.0)


def test_matrix_free_needs_precond():
    with pytest.raises(TypeError):
        cg_solve(lambda v: 2.0 * v, np.ones(4), tol=1e-10)


def test_matrix_free_with_diag():
    x = cg_solve(lambda v: 3.0 * v, np.ones(4), precond=lambda r: r / 3.0, tol=1e-14)
    assert np.allclose(x, 1.0 / 3.0, atol=1e-13)


def _path_laplacian(n):
    """Graph Laplacian of a path (kernel = constants) and a zero-sum load."""
    main = 2.0 * np.ones(n)
    main[0] = main[-1] = 1.0
    A = sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1], format="csr")
    b = np.zeros(n)
    b[0], b[-1] = 1.0, -1.0
    return A, b


def test_deflated_singular_system():
    # a consistent singular system needs no deflation: the Jacobi-preconditioned
    # iteration stays in the range of A
    A, b = _path_laplacian(9)
    x = cg_solve(partial(row_product, A), b, tol=1e-12, precond=jacobi(A))
    r = b - A @ x
    assert np.linalg.norm(r - r.mean()) < 1e-10


def test_warm_start_helps_and_never_hurts():
    A = sp.csr_matrix(np.diag(np.linspace(1.0, 4.0, 20)))
    b = np.linspace(1.0, 2.0, 20)
    exact = b / np.linspace(1.0, 4.0, 20)
    x = cg_solve(partial(row_product, A), b, tol=1e-13, precond=jacobi(A), x0=exact + 1e-8)
    assert np.allclose(x, exact, atol=1e-10)
    # a wildly off warm start must not poison a tiny right-hand side
    x = cg_solve(partial(row_product, A), 1e-30 * b, tol=1e-10, precond=jacobi(A), x0=np.ones(20))
    assert np.linalg.norm(x) < 1e-29


def test_iteration_cap_raises():
    # I + S with S skew: positive curvature on every direction, but not
    # symmetric, so CG never converges and stops at the cap of 10 n
    A = np.array([[1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(SolverError) as err:
        cg_solve(partial(row_product, A), np.array([1.0, 0.0]), tol=1e-14, precond=jacobi(A))
    assert err.value.iterations == 20


def test_exact_preconditioner_converges_in_one_iteration():
    A = np.diag(np.linspace(1.0, 4.0, 20))
    calls = []

    def matvec(v):
        calls.append(1)
        return A @ v

    b = np.linspace(1.0, 2.0, 20)
    x = cg_solve(matvec, b, tol=1e-13, precond=lambda r: r / np.diag(A))
    assert np.allclose(A @ x, b, atol=1e-12)
    assert len(calls) == 1


def test_exact_preconditioner_discards_the_warm_start():
    A = np.diag(np.linspace(1.0, 4.0, 20))
    b = np.linspace(1.0, 2.0, 20)
    calls = []

    def matvec(v):
        calls.append(1)
        return A @ v

    def precond(r):
        return r / np.diag(A)

    precond.exact = True
    # the first solve tests the residual of P b: one application, and the
    # residual estimate stored, at least 100 eps
    x = cg_solve(matvec, b, tol=1e-13, precond=precond, x0=np.ones(20))
    assert np.array_equal(x, precond(b))
    assert len(calls) == 1
    assert np.linalg.norm(b - A @ x) <= 1e-13 * np.linalg.norm(b)
    assert precond.residual == 100.0 * np.finfo(float).eps
    # later, at a tolerance of at least 100 times that: x = P b, with no
    # application, whatever the warm start
    for x0 in (None, np.ones(20), x):
        calls.clear()
        x = cg_solve(matvec, b, tol=1e-11, precond=precond, x0=x0)
        assert np.array_equal(x, precond(b))
        assert calls == []
        assert np.linalg.norm(b - A @ x) <= 1e-11 * np.linalg.norm(b)
    # a tolerance below 100 times the residual keeps the residual test
    calls.clear()
    x = cg_solve(matvec, b, tol=1e-13, precond=precond, x0=np.ones(20))
    assert np.array_equal(x, precond(b))
    assert len(calls) == 1
    assert np.linalg.norm(b - A @ x) <= 1e-13 * np.linalg.norm(b)
    # unmarked, the same warm start is kept: its residual is the one application
    calls.clear()
    x = cg_solve(matvec, b, tol=1e-13, precond=lambda r: precond(r), x0=x)
    assert np.allclose(A @ x, b, atol=1e-12)
    assert len(calls) == 1


def test_deflated_solve_with_preconditioner():
    # P = I + 1 1^T is positive definite; the constant it adds lies in the kernel of A
    A, b = _path_laplacian(9)
    x = cg_solve(partial(row_product, A), b, tol=1e-12, precond=lambda r: r + r.sum())
    assert np.linalg.norm(b - A @ x) < 1e-10
