"""Multi-column ``cg_solve``: each column of an (n, m) load block is its own PCG.

Every column must equal the solve of that column alone, whatever the
other columns do: zero columns, discarded warm starts, columns that
converge at different iterations, the singular K_ie system.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.assembly import build_operators
from cardioct.grid import Grid, TensorField
from cardioct.linalg import SolverError, cg_solve

from conftest import fibres, random_spd

GRIDS = [((17,), (1.0,)), ((9, 7), (1.0, 1.3)), ((5, 4, 6), (1.0, 0.8, 1.2))]


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _assert_columns_match(X, B, solve_one, x0=None):
    assert X.shape == B.shape
    for j in range(B.shape[1]):
        ref = solve_one(B[:, j], None if x0 is None else x0[:, j])
        if not B[:, j].any():
            assert not X[:, j].any()
        else:
            assert _rel(X[:, j], ref) <= 1e-12


def _counting(A):
    """A callable operator that records the width of every block it is given."""
    widths = []

    def matvec(v):
        widths.append(1 if v.ndim == 1 else v.shape[1])
        return A @ v

    return matvec, widths


def _smooth(g, rng):
    """Isotropic conductivity 1 + 0.5 sin(3 (x + y + z) + a), a drawn from ``rng``."""
    centres = np.meshgrid(*(0.5 * (c[1:] + c[:-1]) for c in g.axis_coords), indexing="ij")
    a = 1.0 + 0.5 * np.sin(3.0 * sum(centres).ravel() + rng.uniform(0.0, 2.0 * np.pi))
    return TensorField(g, a[:, None, None] * np.eye(g.dim))


def _tensor(g, kind, rng):
    """Tensors whose spectral preconditioner keeps CG well conditioned.

    (Cellwise random tensors are left to the Jacobi test: at high contrast
    PCG amplifies the last-bit differences between a batched and a single
    DCT-I product.)
    """
    if kind == "fibres" and g.dim >= 2:
        return fibres(g)
    if kind == "constant":
        return TensorField.diagonal(g, (1.0, 0.4, 0.7)[: g.dim])
    return _smooth(g, rng)


def _load_block(rng, n, m, zero):
    B = rng.standard_normal((n, m))
    B[:, [j for j in zero if j < m]] = 0.0
    return B


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(GRIDS),
    st.sampled_from(["smooth", "fibres", "constant"]),
    st.integers(1, 5),
    st.sets(st.integers(0, 4), max_size=2),
    st.sets(st.integers(0, 4), max_size=3),
    st.integers(0, 2**31 - 1),
)
def test_step_system_columns_equal_their_single_solves(case, kind, m, zero, far, seed):
    rng = np.random.default_rng(seed)
    g = Grid(*case, 1.0, 1)
    A, precond = build_operators(g, _tensor(g, kind, rng)).step_system(0.05)
    B = _load_block(rng, g.n_nodes, m, zero)
    # warm starts near the solution, except the columns in ``far``, which are
    # worse than a cold start and must be discarded
    x0 = np.column_stack([cg_solve(A, B[:, j], tol=1e-4, precond=precond) for j in range(m)])
    for j in far:
        if j < m:
            x0[:, j] = 1e3 * rng.standard_normal(g.n_nodes)
    matvec, widths = _counting(A)
    X = cg_solve(matvec, B, tol=1e-10, precond=precond, x0=x0)

    def solve_one(b, x0_col):
        return cg_solve(A, b, tol=1e-10, precond=precond, x0=x0_col)

    _assert_columns_match(X, B, solve_one, x0)
    # retired columns get no more operator work: the block applications add
    # up to the single solves' applications
    singles = 0
    for j in range(m):
        one, count = _counting(A)
        cg_solve(one, B[:, j], tol=1e-10, precond=precond, x0=x0[:, j])
        singles += len(count)
    assert sum(widths) == singles
    assert widths == sorted(widths, reverse=True)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(GRIDS), st.integers(1, 5), st.sets(st.integers(0, 4), max_size=2),
       st.integers(0, 2**31 - 1))
def test_jacobi_columns_equal_their_single_solves(case, m, zero, seed):
    rng = np.random.default_rng(seed)
    g = Grid(*case, 1.0, 1)
    A, _ = build_operators(g, random_spd(g, rng)).step_system(0.05)
    B = _load_block(rng, g.n_nodes, m, zero)
    X = cg_solve(A, B, tol=1e-10)
    _assert_columns_match(X, B, lambda b, _: cg_solve(A, b, tol=1e-10))
    # the matrix-free Jacobi path scales the columns by the same diagonal
    Y = cg_solve(lambda v: A @ v, B, tol=1e-10, diag=A.diagonal())
    _assert_columns_match(Y, B, lambda b, _: cg_solve(A, b, tol=1e-10))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(GRIDS), st.integers(1, 5), st.sets(st.integers(0, 4), max_size=2),
       st.integers(0, 2**31 - 1))
def test_exact_columns_are_solved_directly_and_ignore_x0(case, m, zero, seed):
    rng = np.random.default_rng(seed)
    g = Grid(*case, 1.0, 1)
    A, precond = build_operators(g, _tensor(g, "constant", rng)).step_system(0.05)
    assert precond.exact
    B = _load_block(rng, g.n_nodes, m, zero)
    nonzero = np.count_nonzero(B.any(axis=0))
    x0 = rng.standard_normal(B.shape)
    # the first solve tests the residual of P b, once for the block; later
    # solves apply no operator
    for first in (True, False):
        matvec, widths = _counting(A)
        X = cg_solve(matvec, B, tol=1e-10, precond=precond, x0=x0)
        assert widths == ([nonzero] if first and nonzero else [])
        assert np.array_equal(X, precond(B))
        R = B - A @ X
        assert np.all(np.linalg.norm(R, axis=0) <= 1e-10 * np.linalg.norm(B, axis=0))
    _assert_columns_match(X, B, lambda b, _: cg_solve(A, b, tol=1e-10, precond=precond))
    if not nonzero:
        return
    # below 100 times the residual estimate the columns keep the residual test
    assert 100.0 * precond.residual <= 1e-10
    tol = 10.0 * precond.residual
    matvec, widths = _counting(A)
    X = cg_solve(matvec, B, tol=tol, precond=precond)
    assert widths[:1] == [nonzero]
    R = B - A @ X
    assert np.all(np.linalg.norm(R, axis=0) <= tol * np.linalg.norm(B, axis=0))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(GRIDS), st.sampled_from(["smooth", "fibres", "constant"]),
       st.integers(1, 5), st.sets(st.integers(0, 4), max_size=2), st.integers(0, 2**31 - 1))
def test_singular_kie_columns_with_zero_sums(case, kind, m, zero, seed):
    rng = np.random.default_rng(seed)
    g = Grid(*case, 1.0, 1)
    ops = build_operators(g, _tensor(g, kind, rng), _tensor(g, kind, rng))
    B = _load_block(rng, g.n_nodes, m, zero)
    B -= B.mean(axis=0)
    X = cg_solve(ops.K_ie, B, tol=1e-10, precond=ops.kie_precond)
    _assert_columns_match(
        X, B, lambda b, _: cg_solve(ops.K_ie, b, tol=1e-10, precond=ops.kie_precond)
    )
    R = B - ops.K_ie @ X
    assert np.all(np.linalg.norm(R, axis=0) <= 1e-9 * np.linalg.norm(B, axis=0) + 1e-300)


def _fibre_step(nodes):
    g = Grid(nodes, (1.0,) * len(nodes), 1.0, 1)
    return build_operators(g, fibres(g)).step_system(0.05)


def _iterations(A, precond, b, tol=1e-10):
    one, count = _counting(A)
    cg_solve(one, b, tol=tol, precond=precond)
    return len(count)


@pytest.mark.parametrize("nodes", [(17, 17), (6, 6, 6)], ids=["2d", "3d"])
def test_fibre_columns_retire_at_different_iterations(nodes):
    A, precond = _fibre_step(nodes)
    rng = np.random.default_rng(5)
    n = A.shape[0]
    smooth = A @ np.ones(n)  # the constant is nearly an eigenvector: few iterations
    B = np.column_stack([rng.standard_normal(n), smooth, 1e-6 * rng.standard_normal(n)])
    counts = [_iterations(A, precond, B[:, j]) for j in range(3)]
    assert len(set(counts)) > 1
    matvec, widths = _counting(A)
    X = cg_solve(matvec, B, tol=1e-10, precond=precond)
    assert sum(widths) == sum(counts)
    assert widths[-1] < 3
    _assert_columns_match(X, B, lambda b, _: cg_solve(A, b, tol=1e-10, precond=precond))


def test_zero_block_returns_zeros_without_applications():
    A, precond = _fibre_step((9, 9))
    matvec, widths = _counting(A)
    X = cg_solve(matvec, np.zeros((A.shape[0], 3)), precond=precond, x0=np.ones((A.shape[0], 3)))
    assert X.shape == (A.shape[0], 3) and not X.any()
    assert widths == []


def test_solver_error_reports_the_worst_unconverged_column():
    A, precond = _fibre_step((17, 17))
    rng = np.random.default_rng(9)
    n = A.shape[0]
    B = rng.standard_normal((n, 3))
    B[:, 2] *= np.linspace(0.0, 1.0, n)  # a different spectrum, so a different residual
    # column 0 starts at its solution and is retired before the first step
    x0 = np.zeros((n, 3))
    x0[:, 0] = cg_solve(A, B[:, 0], tol=1e-12, precond=precond)
    singles = []
    for j in (1, 2):
        with pytest.raises(SolverError) as one:
            cg_solve(A, B[:, j], tol=1e-10, precond=precond, maxiter=3)
        singles.append(one.value.residual)
    with pytest.raises(SolverError) as err:
        cg_solve(A, B, tol=1e-10, precond=precond, maxiter=3, x0=x0)
    assert err.value.iterations == 3
    assert err.value.residual == pytest.approx(max(singles), rel=1e-9)
    assert f"column {1 + int(np.argmax(singles))}" in str(err.value)


def test_block_b_must_be_one_or_two_dimensional():
    A, precond = _fibre_step((5, 5))
    with pytest.raises(ValueError, match="shape"):
        cg_solve(A, np.ones((A.shape[0], 2, 2)), precond=precond)
