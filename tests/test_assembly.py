import re
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.assembly import (
    CompatibilityError,
    EllipticityError,
    _reference_gradients,
    assemble_stiffness,
    bidomain_elliptic_solve,
    build_operators,
    ellipticity_check,
    reduced_operator,
    reduced_rhs_S,
    solve_coupled_step,
)
from cardioct.forward import run_forward
from cardioct.grid import FieldSeries, Grid, ScalarField, TensorField, l2_norm

from conftest import fibres, make_problem, node_coords, random_spd


def test_mass_is_quadrature_weights():
    g = Grid((9, 5), (1.0, 2.0), 1.0, 1)
    m = build_operators(g, TensorField.isotropic(g, 1.0)).mass
    assert np.array_equal(m, g.weights)
    assert m is not g.weights
    assert m.sum() == pytest.approx(2.0, rel=1e-13)


def test_stiffness_energy_of_linear_function():
    # u(x) = x with unit conductivity: int (u')^2 = 1 exactly
    g = Grid((17,), (1.0,), 1.0, 1)
    K = assemble_stiffness(TensorField.isotropic(g, 1.0))
    u = node_coords(g)[:, 0]
    assert u @ (K @ u) == pytest.approx(1.0, rel=1e-13)


def test_stiffness_energy_anisotropic_2d():
    # u(x,y) = x with M = diag(2, 2): int 2 (du/dx)^2 = 2
    g = Grid((9, 9), (1.0, 1.0), 1.0, 1)
    K = assemble_stiffness(TensorField.diagonal(g, (2.0, 2.0)))
    u = node_coords(g)[:, 0]
    assert u @ (K @ u) == pytest.approx(2.0, rel=1e-12)


def test_stiffness_kills_constants():
    g = Grid((5, 4, 3), (1.0, 1.0, 1.0), 1.0, 1)
    entries = np.tile(np.diag([1.0, 2.0, 0.5]), (g.n_cells, 1, 1))
    K = assemble_stiffness(TensorField(g, entries))
    assert np.max(np.abs(K @ np.ones(g.n_nodes))) < 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_stiffness_row_sums_vanish(seed):
    rng = np.random.default_rng(seed)
    g = Grid((5, 5), (1.0, 1.0), 1.0, 1)
    # random SPD tensor per cell: A = B B^T + delta I
    B = rng.standard_normal((g.n_cells, 2, 2))
    entries = B @ B.transpose(0, 2, 1) + 0.1 * np.eye(2)
    K = assemble_stiffness(TensorField(g, entries))
    assert np.max(np.abs(np.asarray(K.sum(axis=1)).ravel())) < 1e-12


def _coo_stiffness(grid, tensor):
    """Reference assembly: COO triplets per cell corner pair, then 0.5 (K + K^T)."""
    G, w = _reference_gradients(grid.dim)
    Gp = G / np.asarray(grid.h)
    Ke = grid.cell_volume * np.einsum(
        "g,gak,ckm,gbm->cab", w, Gp, tensor.entries, Gp, optimize=True
    )
    cells_shape = tuple(n - 1 for n in grid.nodes_per_axis)
    base = np.indices(cells_shape).reshape(grid.dim, -1).T
    conn = np.empty((grid.n_cells, 2**grid.dim), dtype=np.int64)
    for ci, bits in enumerate(product((0, 1), repeat=grid.dim)):
        conn[:, ci] = np.ravel_multi_index(
            tuple(base[:, k] + bits[k] for k in range(grid.dim)), grid.nodes_per_axis
        )
    nloc = conn.shape[1]
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(grid.n_nodes, grid.n_nodes)).tocsr()
    return (0.5 * (K + K.T)).tocsr()


GRIDS = [
    ((7,), (1.3,)),
    ((2,), (0.4,)),
    ((9, 6), (1.0, 2.5)),
    ((2, 7), (0.3, 1.0)),
    ((5, 7, 4), (1.0, 0.6, 2.0)),
    ((4, 2, 5), (2.0, 0.5, 1.0)),
]


def _assert_matches_oracle(grid, tensor):
    # DIA stores padding and the out-of-grid zeros of its diagonals; the
    # entries are compared on the CSR form, which drops them
    K = assemble_stiffness(tensor)
    assert K.format == "dia"
    K = K.tocsr()
    ref = _coo_stiffness(grid, tensor)
    assert K.has_canonical_format
    assert (K - K.T).nnz == 0
    assert abs(K - ref).max() <= 1e-14 * abs(ref).max()
    return K, ref


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRIDS), st.integers(0, 2**31 - 1))
def test_stiffness_matches_coo_oracle_on_random_spd_cells(case, seed):
    g = Grid(*case, 1.0, 1)
    _assert_matches_oracle(g, random_spd(g, np.random.default_rng(seed)))


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_stiffness_matches_coo_oracle_on_diagonal_and_fibre_tensors(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 1)
    for tensor in (TensorField.diagonal(g, np.arange(1.0, g.dim + 1.0)), fibres(g)):
        K, ref = _assert_matches_oracle(g, tensor)
        assert K.nnz == ref.nnz


@pytest.mark.parametrize(
    "nodes, coeffs",
    [((25,) * 3, (1.0, 0.5, 0.25)), ((65,) * 2, (1.0, 0.5)), ((17,) * 2, (1.6, 1.6))],
)
def test_stiffness_stores_the_oracles_entries_on_benchmark_tensors(nodes, coeffs):
    g = Grid(nodes, (1.0,) * len(nodes), 1.0, 1)
    K, ref = _assert_matches_oracle(g, TensorField.diagonal(g, coeffs))
    assert K.nnz == ref.nnz


def _constant_cell_tensors(g):
    d = g.dim
    off = np.eye(d) + 0.3 * (np.ones((d, d)) - np.eye(d))
    diag = TensorField.diagonal(g, np.arange(1.0, d + 1.0))
    return [
        TensorField.isotropic(g, 1.7),
        diag,
        TensorField(g, np.tile(off, (g.n_cells, 1, 1))),
        TensorField(g, np.broadcast_to(2.0 * off, (g.n_cells, d, d))),
        diag * 0.5 + TensorField.isotropic(g, 0.6),
    ]


# A constant tensor is summed on the class grid, min(n, 3) nodes per axis, and
# widened: these grids widen every axis, or set 2-node axes beside widened ones.
# On (7, 4, 2) the class grid (3, 3, 2) would merge deltas into one flat offset
# that the grid keeps apart, so its stencil rows are those of the grid.
CLASS_GRIDS = [
    ((11,), (0.9,)),
    ((13, 6), (1.0, 0.45)),
    ((6, 7, 8), (0.8, 1.1, 0.6)),
    ((2, 9, 6), (0.3, 1.2, 0.7)),
    ((9, 2, 9), (1.4, 0.2, 0.9)),
    ((7, 4, 2), (0.6, 1.3, 0.25)),
]


@pytest.mark.parametrize(
    "nodes, lengths", GRIDS + [((2, 2), (0.5, 1.0)), ((2, 2, 2), (1.0, 0.7, 0.4))] + CLASS_GRIDS
)
def test_constant_tensors_match_the_einsum_oracle(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 1)
    for tensor in _constant_cell_tensors(g):
        assert tensor.constant
        _assert_matches_oracle(g, tensor)


def _assembly_peak(g, tensor):
    tracemalloc.start()
    try:
        assemble_stiffness(tensor)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_constant_tensor_assembly_peaks_at_its_stencil():
    # the stencil holds 27 diagonals of N nodes at 25^3; nothing else that size is made
    g = Grid((25,) * 3, (1.0,) * 3, 1.0, 1)
    peak = _assembly_peak(g, TensorField.diagonal(g, (1.0, 0.5, 0.25)))
    assert peak <= 1.2 * 27 * g.n_nodes * 8


def test_constant_tensor_is_contracted_as_one_cell():
    # the per-cell element array of a varied tensor is the largest buffer at 25^3
    g = Grid((25,) * 3, (1.0,) * 3, 1.0, 1)
    constant = _assembly_peak(g, TensorField.diagonal(g, (1.0, 0.5, 0.25)))
    varied = _assembly_peak(g, random_spd(g, np.random.default_rng(0)))
    assert constant < 0.75 * varied


def test_build_operators_uses_no_coo_and_no_transpose(monkeypatch):
    calls = {"coo": 0, "transpose": 0}
    coo_init, transpose = sp.coo_matrix.__init__, sp.csr_matrix.transpose

    def counting_coo_init(self, *args, **kwargs):
        calls["coo"] += 1
        coo_init(self, *args, **kwargs)

    def counting_transpose(self, *args, **kwargs):
        calls["transpose"] += 1
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(sp.coo_matrix, "__init__", counting_coo_init)
    monkeypatch.setattr(sp.csr_matrix, "transpose", counting_transpose)
    g = Grid((6, 5, 4), (1.0, 0.8, 0.6), 1.0, 1)
    mi = TensorField.diagonal(g, (1.0, 0.5, 0.25))
    ops = build_operators(g, mi, fibres(g), lam=1.0)
    assert ops.K_ie is not None
    assert calls == {"coo": 0, "transpose": 0}
    # the counters see the calls the guarded path would make
    _coo_stiffness(g, mi)
    assert calls["coo"] >= 1 and calls["transpose"] >= 1


def test_stiffness_and_system_operators_stay_dia():
    # dt = 0.6, so that the step system with lam = 1 is Mass + 0.3 K_i
    g = Grid((6, 5), (1.0, 0.8), 0.6, 1)
    ops = build_operators(g, fibres(g), TensorField.diagonal(g, (0.6, 1.2)))
    assert ops.K_i.format == ops.K_e.format == ops.K_ie.format == "dia"
    # every system is an (apply, precond) pair of callables on the stencils,
    # equal to its matrix on the operator set's own dt
    dt, rng = g.dt, np.random.default_rng(3)
    K_i, K_ie, mass = ops.K_i.toarray(), ops.K_ie.toarray(), np.diag(ops.mass)
    coupled = np.block([[mass + dt * K_i, dt * K_i], [dt * K_i, dt * K_ie]])
    systems = (
        (ops.step_system, mass + 0.3 * K_i),
        (ops.neumann_system, K_ie),
        (ops.coupled_system, coupled),
    )
    for (apply, precond), A in systems:
        assert callable(apply) and callable(precond)
        X = rng.standard_normal((3, len(A)))
        assert np.allclose(apply(X), X @ A.T, rtol=0.0, atol=1e-12 * np.abs(A).max())
        assert np.allclose(apply(X[1]), A @ X[1], rtol=0.0, atol=1e-12 * np.abs(A).max())
    # each pair is built once, and reduced_operator gives the coupled one
    assert ops.step_system is ops.step_system
    assert ops.neumann_system is ops.neumann_system
    assert ops.coupled_system is ops.coupled_system
    assert reduced_operator(ops) is ops.coupled_system


def test_monodomain_build_operators_makes_no_csr(monkeypatch):
    """Assembly and full forward and adjoint runs, of both kinds, make no CSR matrix."""
    calls = [0]

    def counting(init):
        def counting_csr_init(self, *args, **kwargs):
            calls[0] += 1
            init(self, *args, **kwargs)

        return counting_csr_init

    for cls in (sp.csr_matrix, sp.csr_array):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    g = Grid((6, 5, 4), (1.0, 0.8, 0.6), 1.0, 1)
    ops = build_operators(g, TensorField.diagonal(g, (1.0, 0.5, 0.25)), lam=1.0)
    ops.step_system
    assert calls[0] == 0
    g = Grid((9, 7), (1.0, 0.8), 0.3, 4)
    for kind in ("monodomain", "bidomain"):
        cfg = make_problem(g, kind=kind, stimulus=0.3)
        mi = fibres(g)
        cfg = replace(cfg, ops=build_operators(g, mi, 1.5 * mi if kind == "bidomain" else None))
        traj = run_forward(cfg)
        run_adjoint(cfg, traj, CostConfig(w_phi=1.0, w_eta=0.5 if kind == "bidomain" else 0.0))
    assert calls[0] == 0
    # the counter sees a conversion
    ops.K_i.tocsr()
    assert calls[0] >= 1


def _kie_defect(grid, mi, me):
    """Relative max-entry gap between K_ie and the stiffness of mi + me, compared in CSR."""
    K_ie = build_operators(grid, mi, me).K_ie.tocsr()
    ref = assemble_stiffness(mi + me).tocsr()
    assert K_ie.has_canonical_format
    assert K_ie.nnz == ref.nnz
    return abs(K_ie - ref).max() / abs(ref).max()


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_kie_matches_the_stiffness_of_the_summed_fibre_tensors(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 1)
    mi = fibres(g)
    me = TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries)
    assert _kie_defect(g, mi, me) <= 1e-15


def test_kie_equals_the_stiffness_of_the_summed_benchmark_tensors():
    g = Grid((17, 17), (1.0, 1.0), 1.0, 1)
    mi, me = TensorField.diagonal(g, (1.0, 0.4)), TensorField.diagonal(g, (0.6, 1.2))
    assert _kie_defect(g, mi, me) == 0.0


@pytest.mark.parametrize("bidomain", [False, True])
def test_build_operators_checks_each_tensor_once(monkeypatch, bidomain):
    import cardioct.assembly as assembly

    checked = []

    def counting_check(tensor):
        checked.append(id(tensor))
        return ellipticity_check(tensor)

    monkeypatch.setattr(assembly, "ellipticity_check", counting_check)
    g = Grid((6, 5), (1.0, 0.8), 1.0, 1)
    mi = fibres(g)
    me = TensorField.diagonal(g, (0.6, 1.2)) if bidomain else None
    build_operators(g, mi, me)
    assert checked == ([id(mi), id(me)] if bidomain else [id(mi)])


def test_ellipticity_rejects_indefinite_tensor():
    g = Grid((5,), (1.0,), 1.0, 1)
    with pytest.raises(EllipticityError):
        ellipticity_check(TensorField(g, np.tile([[-1.0]], (g.n_cells, 1, 1))))


def test_ellipticity_rejects_asymmetric_tensor():
    g = Grid((3, 3), (1.0, 1.0), 1.0, 1)
    entries = np.tile(np.array([[1.0, 0.5], [0.0, 1.0]]), (g.n_cells, 1, 1))
    with pytest.raises(EllipticityError):
        ellipticity_check(TensorField(g, entries))


@pytest.mark.parametrize(
    "cell",
    [
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[1.0, 0.5], [0.0, 1.0]]),  # non-symmetric
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.diag([1.0, -0.5]),
    ],
)
def test_ellipticity_rejects_a_bad_constant_cell(cell):
    g = Grid((5, 4), (1.0, 1.0), 1.0, 1)
    tensor = TensorField(g, np.broadcast_to(cell, (g.n_cells, 2, 2)))
    assert tensor.constant
    with pytest.raises(EllipticityError):
        ellipticity_check(tensor)


def _mixed_tensor(grid, rng):
    """Random SPD cells with every other cell replaced by a random positive diagonal."""
    entries = random_spd(grid, rng).entries
    entries[::2] = np.eye(grid.dim) * rng.uniform(0.1, 3.0, (entries[::2].shape[0], 1, grid.dim))
    return entries


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_ellipticity_bounds_match_eigvalsh_on_mixed_cells(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 1)
    entries = _mixed_tensor(g, np.random.default_rng(7))
    assert ellipticity_check(TensorField(g, entries)) is None
    # shifted below zero, the diagonal cells and then the full ones hold the
    # smallest eigenvalue, which the error names as eigvalsh finds it
    shift = np.linalg.eigvalsh(entries)[:, 0].max() + 0.5
    for part in (slice(0, None, 2), slice(1, None, 2))[: len(entries)]:
        shifted = entries.copy()
        shifted[part] -= shift * np.eye(g.dim)
        lowest = np.linalg.eigvalsh(shifted)[:, 0].min()
        with pytest.raises(EllipticityError, match=re.escape(f"min eigenvalue {lowest:g})")):
            ellipticity_check(TensorField(g, shifted))


@pytest.mark.parametrize(
    "bad_cell",
    [
        np.diag([1.0, -0.5]),  # indefinite, diagonal only
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite with positive diagonal
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.diag([np.inf, 1.0]),
    ],
)
def test_ellipticity_rejects_bad_cell_among_mixed_cells(bad_cell):
    g = Grid((5, 4), (1.0, 1.0), 1.0, 1)
    entries = _mixed_tensor(g, np.random.default_rng(8))
    entries[5] = bad_cell
    with pytest.raises(EllipticityError):
        ellipticity_check(TensorField(g, entries))


def test_ellipticity_caches_bounds():
    g = Grid((5,), (1.0,), 1.0, 1)
    assert ellipticity_check(TensorField.isotropic(g, 3.0)) is None
    with pytest.raises(EllipticityError, match=re.escape("min eigenvalue -3)")):
        ellipticity_check(TensorField.isotropic(g, -3.0))


def test_build_operators_monodomain_has_no_kie():
    g = Grid((9,), (1.0,), 1.0, 1)
    ops = build_operators(g, TensorField.isotropic(g, 1.0), lam=2.0)
    assert ops.K_ie is None
    assert ops.lam == 2.0


def test_build_operators_refuses_a_tensor_of_another_grid():
    g = Grid((9, 9), (1.0, 1.0), 0.3, 3)
    own = TensorField.isotropic(Grid((9, 9), (1.0, 1.0), 0.3, 3), 1.0)  # an equal grid
    other = TensorField.isotropic(Grid((5, 5), (1.0, 1.0), 0.3, 3), 1.0)
    assert build_operators(g, own, own).grid is g
    with pytest.raises(ValueError, match="mi lives on a different grid"):
        build_operators(g, other)
    with pytest.raises(ValueError, match="me lives on a different grid"):
        build_operators(g, own, other)


def test_elliptic_solve_cosine_oracle():
    # -div((M_i + M_e) grad u) = f with M_i = M_e = I and f = cos(pi x)
    # has u = cos(pi x) / (2 pi^2); P1 elements converge at O(h^2)
    g = Grid((65,), (1.0,), 1.0, 1)
    mi = TensorField.isotropic(g, 1.0)
    ops = build_operators(g, mi, mi)
    f = ScalarField(g, np.cos(np.pi * g.axis_coords[0]))
    u = bidomain_elliptic_solve(ops, ops.mass * f.values, tol=1e-11)
    exact = ScalarField(g, f.values / (2 * np.pi**2))
    err = l2_norm(ScalarField(g, u - exact.values))
    assert err <= 1e-3 * l2_norm(exact)
    assert abs(g.weights @ u) < 1e-10


def test_elliptic_solve_rejects_incompatible_load():
    g = Grid((9,), (1.0,), 1.0, 1)
    mi = TensorField.isotropic(g, 1.0)
    ops = build_operators(g, mi, mi)
    with pytest.raises(CompatibilityError):
        bidomain_elliptic_solve(ops, ops.mass.copy(), tol=1e-11)


def test_reduced_rhs_collapses_for_proportional_tensors():
    g = Grid((17,), (1.0,), 1.0, 4)
    lam = 2.0
    mi = TensorField.isotropic(g, 1.0)
    ops = build_operators(g, mi, mi * lam, lam=lam)
    rng = np.random.default_rng(5)
    I_i = ScalarField(g, rng.standard_normal(g.n_nodes))
    # make the pair compatible: shift I_e so the combined mean vanishes
    I_e = ScalarField(g, rng.standard_normal(g.n_nodes))
    shift = (g.weights @ (I_i.values + I_e.values)) / g.measure
    I_e = ScalarField(g, I_e.values - shift)
    S = reduced_rhs_S(ops, I_i.values, I_e.values)
    expected = g.weights * (lam * I_i.values - I_e.values) / (1.0 + lam)
    assert np.allclose(S, expected, atol=1e-10)


def test_reduced_operator_collapses_for_proportional_tensors():
    g = Grid((17,), (1.0,), 1.0, 4)
    lam, dt, n = 0.5, g.dt, g.n_nodes
    mi = TensorField.isotropic(g, 1.0)
    ops = build_operators(g, mi, mi * lam, lam=lam)
    apply_B, precond = reduced_operator(ops)
    rng = np.random.default_rng(6)
    K_i, K_ie = ops.K_i.toarray(), ops.K_ie.toarray()
    B = np.block([[np.diag(g.weights) + dt * K_i, dt * K_i], [dt * K_i, dt * K_ie]])
    v = rng.standard_normal(2 * n)
    assert np.allclose(apply_B(v), B @ v, atol=1e-12)
    # the preconditioner is symmetric positive semidefinite (positive on random vectors) ...
    u = rng.standard_normal(2 * n)
    assert u @ precond(v) == pytest.approx(v @ precond(u), rel=1e-12)
    for x in (u, v):
        assert x @ precond(x) > 0
    # ... and for constant tensors it inverts the block apply on its range,
    # the vectors whose psi-block has zero Euclidean mean
    r = rng.standard_normal(2 * n)
    r[n:] -= r[n:].mean()
    assert np.linalg.norm(apply_B(precond(r)) - r) <= 1e-10 * np.linalg.norm(r)
    # the block phi is the monodomain step solution
    phi0, I_i, I_e = rng.standard_normal((3, n))
    I_e -= (g.weights @ (I_i + I_e)) / g.measure  # compatible currents
    f = g.weights * (phi0 + dt * I_i)
    g_load = dt * g.weights * (I_i + I_e)
    phi, _ = solve_coupled_step(ops, f, g_load, tol=1e-13)
    mono = np.diag(g.weights) + dt * lam / (1.0 + lam) * K_i
    load = g.weights * (phi0 + dt * (lam * I_i - I_e) / (1.0 + lam))
    expected = np.linalg.solve(mono, load)
    assert np.linalg.norm(phi - expected) <= 1e-10 * np.linalg.norm(expected)
