"""Block ``cg_solve``: each row of an (m, n) load block is its own PCG.

Every row must equal the solve of that row alone, whatever the other
rows do: zero rows, discarded warm starts, rows that converge at
different iterations, the singular K_ie system.
"""

from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.assembly import build_operators, solve_coupled_step, solve_neumann
from cardioct.grid import Grid, TensorField
from cardioct.linalg import SolverError, cg_solve, row_product

from conftest import fibres, jacobi, random_spd

GRIDS = [((17,), (1.0,)), ((9, 7), (1.0, 1.3)), ((5, 4, 6), (1.0, 0.8, 1.2))]
# dt = 0.1, so that the step system with lam = 1 is Mass + 0.05 K_i
T, N_STEPS = 1.0, 10


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _assert_rows_match(X, B, solve_one, x0=None):
    assert X.shape == B.shape
    for j in range(len(B)):
        ref = solve_one(B[j], None if x0 is None else x0[j])
        if not B[j].any():
            assert not X[j].any()
        else:
            assert _rel(X[j], ref) <= 1e-12


def _counting(A):
    """The callable operator A, recording the rows of every block it is given."""
    widths = []

    def matvec(v):
        widths.append(1 if v.ndim == 1 else len(v))
        return A(v)

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
    B = rng.standard_normal((m, n))
    B[[j for j in zero if j < m]] = 0.0
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
    g = Grid(*case, T, N_STEPS)
    A, precond = build_operators(g, _tensor(g, kind, rng)).step_system
    B = _load_block(rng, g.n_nodes, m, zero)
    # warm starts near the solution, except the rows in ``far``, which are
    # worse than a cold start and must be discarded
    x0 = np.stack([cg_solve(A, B[j], tol=1e-4, precond=precond) for j in range(m)])
    for j in far:
        if j < m:
            x0[j] = 1e3 * rng.standard_normal(g.n_nodes)
    matvec, widths = _counting(A)
    X = cg_solve(matvec, B, tol=1e-10, precond=precond, x0=x0)

    def solve_one(b, x0_col):
        return cg_solve(A, b, tol=1e-10, precond=precond, x0=x0_col)

    _assert_rows_match(X, B, solve_one, x0)
    # retired rows get no more operator work: the block applications add
    # up to the single solves' applications
    singles = 0
    for j in range(m):
        one, count = _counting(A)
        cg_solve(one, B[j], tol=1e-10, precond=precond, x0=x0[j])
        singles += len(count)
    assert sum(widths) == singles
    assert widths == sorted(widths, reverse=True)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(GRIDS), st.integers(1, 5), st.sets(st.integers(0, 4), max_size=2),
       st.integers(0, 2**31 - 1))
def test_jacobi_columns_equal_their_single_solves(case, m, zero, seed):
    rng = np.random.default_rng(seed)
    g = Grid(*case, T, N_STEPS)
    ops = build_operators(g, random_spd(g, rng))
    A = (sp.diags(ops.mass) + 0.05 * ops.K_i).tocsr()  # the step matrix
    B = _load_block(rng, g.n_nodes, m, zero)
    matvec = partial(row_product, A)
    X = cg_solve(matvec, B, tol=1e-10, precond=jacobi(A))
    _assert_rows_match(X, B, lambda b, _: cg_solve(matvec, b, tol=1e-10, precond=jacobi(A)))
    # the package's step operator with the same diagonal scaling of the rows
    apply, _ = ops.step_system
    Y = cg_solve(apply, B, tol=1e-10, precond=jacobi(A))
    _assert_rows_match(Y, B, lambda b, _: cg_solve(apply, b, tol=1e-10, precond=jacobi(A)))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(GRIDS), st.integers(1, 5), st.sets(st.integers(0, 4), max_size=2),
       st.integers(0, 2**31 - 1))
def test_exact_columns_are_solved_directly_and_ignore_x0(case, m, zero, seed):
    rng = np.random.default_rng(seed)
    g = Grid(*case, T, N_STEPS)
    A, precond = build_operators(g, _tensor(g, "constant", rng)).step_system
    assert precond.exact
    B = _load_block(rng, g.n_nodes, m, zero)
    nonzero = np.count_nonzero(B.any(axis=1))
    x0 = rng.standard_normal(B.shape)
    # the first solve tests the residual of P b, once for the block; later
    # solves apply no operator
    for first in (True, False):
        matvec, widths = _counting(A)
        X = cg_solve(matvec, B, tol=1e-10, precond=precond, x0=x0)
        assert widths == ([nonzero] if first and nonzero else [])
        assert np.array_equal(X, precond(B))
        R = B - A(X)
        assert np.all(np.linalg.norm(R, axis=1) <= 1e-10 * np.linalg.norm(B, axis=1))
    _assert_rows_match(X, B, lambda b, _: cg_solve(A, b, tol=1e-10, precond=precond))
    if not nonzero:
        return
    # below 100 times the residual estimate the rows keep the residual test
    assert 100.0 * precond.residual <= 1e-10
    tol = 10.0 * precond.residual
    matvec, widths = _counting(A)
    X = cg_solve(matvec, B, tol=tol, precond=precond)
    assert widths[:1] == [nonzero]
    R = B - A(X)
    assert np.all(np.linalg.norm(R, axis=1) <= tol * np.linalg.norm(B, axis=1))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(GRIDS), st.sampled_from(["smooth", "fibres", "constant"]),
       st.integers(1, 5), st.sets(st.integers(0, 4), max_size=2), st.integers(0, 2**31 - 1))
def test_singular_kie_columns_with_zero_sums(case, kind, m, zero, seed):
    rng = np.random.default_rng(seed)
    g = Grid(*case, T, N_STEPS)
    ops = build_operators(g, _tensor(g, kind, rng), _tensor(g, kind, rng))
    B = _load_block(rng, g.n_nodes, m, zero)
    B -= B.mean(axis=1, keepdims=True)
    K_ie, precond = ops.neumann_system
    X = cg_solve(K_ie, B, tol=1e-10, precond=precond)
    _assert_rows_match(X, B, lambda b, _: cg_solve(K_ie, b, tol=1e-10, precond=precond))
    R = B - K_ie(X)
    assert np.all(np.linalg.norm(R, axis=1) <= 1e-9 * np.linalg.norm(B, axis=1) + 1e-300)


def _fibre_step(nodes):
    """The step operator and preconditioner of a fibre tensor, and the node count."""
    g = Grid(nodes, (1.0,) * len(nodes), T, N_STEPS)
    return *build_operators(g, fibres(g)).step_system, g.n_nodes


def _iterations(A, precond, b, tol=1e-10):
    one, count = _counting(A)
    cg_solve(one, b, tol=tol, precond=precond)
    return len(count)


@pytest.mark.parametrize("nodes", [(17, 17), (6, 6, 6)], ids=["2d", "3d"])
def test_fibre_columns_retire_at_different_iterations(nodes):
    A, precond, n = _fibre_step(nodes)
    rng = np.random.default_rng(5)
    smooth = A(np.ones(n))  # the constant is nearly an eigenvector: few iterations
    B = np.stack([rng.standard_normal(n), smooth, 1e-6 * rng.standard_normal(n)])
    counts = [_iterations(A, precond, B[j]) for j in range(3)]
    assert len(set(counts)) > 1
    matvec, widths = _counting(A)
    X = cg_solve(matvec, B, tol=1e-10, precond=precond)
    assert sum(widths) == sum(counts)
    assert widths[-1] < 3
    _assert_rows_match(X, B, lambda b, _: cg_solve(A, b, tol=1e-10, precond=precond))


def test_zero_block_returns_zeros_without_applications():
    A, precond, n = _fibre_step((9, 9))
    matvec, widths = _counting(A)
    X = cg_solve(matvec, np.zeros((3, n)), tol=1e-10, precond=precond, x0=np.ones((3, n)))
    assert X.shape == (3, n) and not X.any()
    assert widths == []


def test_solver_error_reports_the_worst_unconverged_column():
    # I + S with S skew: positive curvature on every direction, but not
    # symmetric, so CG never converges and every row reaches the cap of 10 n
    n = 8
    rng = np.random.default_rng(9)
    S = rng.standard_normal((n, n))
    M = np.eye(n) + S - S.T
    A, precond = partial(row_product, M), lambda r: r.copy()
    B = rng.standard_normal((3, n))
    B[2] *= np.linspace(0.0, 1.0, n)  # a different spectrum, so a different residual
    # row 0 starts at its solution and is retired before the first step
    x0 = np.zeros((3, n))
    x0[0] = np.linalg.solve(M, B[0])
    singles = []
    for j in (1, 2):
        with pytest.raises(SolverError) as one:
            cg_solve(A, B[j], tol=1e-10, precond=precond)
        singles.append(one.value.residual)
    with pytest.raises(SolverError) as err:
        cg_solve(A, B, tol=1e-10, precond=precond, x0=x0)
    assert err.value.iterations == 10 * n
    assert err.value.residual == pytest.approx(max(singles), rel=1e-9)
    assert f"row {1 + int(np.argmax(singles))}" in str(err.value)


def test_block_b_must_be_one_or_two_dimensional():
    A, precond, n = _fibre_step((5, 5))
    with pytest.raises(ValueError, match="shape"):
        cg_solve(A, np.ones((2, 2, n)), tol=1e-10, precond=precond)


def _row_entry_points():
    """name -> (map of a load or a (k, width) block, width, bound of a row's match), and N.

    The bound is 0 (bitwise) where a row meets the same arithmetic as a
    vector, 1e-15 relative through the batched transforms, and the
    tolerance for the spectral solves.
    """
    g = Grid((9, 7), (1.0, 1.3), T, N_STEPS)
    n, tol = g.n_nodes, 1e-10
    ops = build_operators(g, fibres(g), TensorField.diagonal(g, (0.6, 1.2)))
    step, step_pre = ops.step_system
    neumann, _ = ops.neumann_system
    coupled = ops.coupled_system
    jac = jacobi(sp.diags(ops.mass) + 0.05 * ops.K_i)

    def coupled_solve(b):
        # a (2 N, k) block stands for a stale caller's pair of (N, k) column blocks
        f, g = (b[:n], b[n:]) if len(b) == 2 * n else (b[..., :n], b[..., n:])
        phi, psi = solve_coupled_step(ops, coupled, f, g, tol=tol)
        return np.concatenate((phi, psi), axis=-1)

    points = {
        "step_apply": (step, n, 0.0),
        "neumann_apply": (neumann, n, 0.0),
        "coupled_apply": (coupled[0], 2 * n, 0.0),
        "cg_jacobi": (lambda b: cg_solve(step, b, tol=tol, precond=jac), n, 0.0),
        "cg_spectral": (lambda b: cg_solve(step, b, tol=tol, precond=step_pre), n, tol),
        "inverse": (step_pre, n, 1e-15),
        "block_inverse": (coupled[1], 2 * n, 1e-15),
        "solve_neumann": (lambda b: solve_neumann(ops, b, tol=tol), n, tol),
        "solve_coupled_step": (coupled_solve, 2 * n, tol),
    }
    return points, n


@pytest.mark.parametrize("name", sorted(_row_entry_points()[0]))
def test_row_blocks_match_their_single_rows(name):
    points, n = _row_entry_points()
    apply, width, bound = points[name]
    B = np.random.default_rng(7).standard_normal((3, width))
    halves = B.reshape(3, -1, n)  # zero-sum loads, which the Neumann rows need
    halves -= halves.mean(axis=-1, keepdims=True)
    X = apply(B)
    assert X.shape == B.shape
    for j in range(len(B)):
        x = apply(B[j])
        if bound == 0.0:
            assert np.array_equal(X[j], x)
        else:
            assert _rel(X[j], x) <= bound
    # a stale (width, k) block of columns is rejected, not read as width loads
    with pytest.raises(ValueError):
        apply(B.T.copy())
