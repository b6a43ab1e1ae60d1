import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.assembly import (
    CompatibilityError,
    EllipticityError,
    assemble_mass,
    assemble_stiffness,
    bidomain_elliptic_solve,
    build_operators,
    check_operator,
    ellipticity_check,
    reduced_operator,
    reduced_rhs_S,
)
from cardioct.grid import FieldSeries, Grid, ScalarField, TensorField, lp_norm


def test_mass_is_quadrature_weights():
    g = Grid((9, 5), (1.0, 2.0), 1.0, 1)
    m = assemble_mass(g)
    assert np.array_equal(m, g.weights)
    assert m.sum() == pytest.approx(2.0, rel=1e-13)


def test_stiffness_energy_of_linear_function():
    # u(x) = x with unit conductivity: int (u')^2 = 1 exactly
    g = Grid((17,), (1.0,), 1.0, 1)
    K = assemble_stiffness(g, TensorField.isotropic(g, 1.0))
    u = g.coords[:, 0]
    assert u @ (K @ u) == pytest.approx(1.0, rel=1e-13)


def test_stiffness_energy_anisotropic_2d():
    # u(x,y) = x with M = diag(2, 2): int 2 (du/dx)^2 = 2
    g = Grid((9, 9), (1.0, 1.0), 1.0, 1)
    K = assemble_stiffness(g, TensorField.diagonal(g, (2.0, 2.0)))
    u = g.coords[:, 0]
    assert u @ (K @ u) == pytest.approx(2.0, rel=1e-12)


def test_stiffness_kills_constants():
    g = Grid((5, 4, 3), (1.0, 1.0, 1.0), 1.0, 1)
    entries = np.tile(np.diag([1.0, 2.0, 0.5]), (g.n_cells, 1, 1))
    K = assemble_stiffness(g, TensorField(g, entries))
    assert np.max(np.abs(K @ np.ones(g.n_nodes))) < 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_stiffness_row_sums_vanish(seed):
    rng = np.random.default_rng(seed)
    g = Grid((5, 5), (1.0, 1.0), 1.0, 1)
    # random SPD tensor per cell: A = B B^T + delta I
    B = rng.standard_normal((g.n_cells, 2, 2))
    entries = B @ B.transpose(0, 2, 1) + 0.1 * np.eye(2)
    K = assemble_stiffness(g, TensorField(g, entries))
    assert np.max(np.abs(np.asarray(K.sum(axis=1)).ravel())) < 1e-12


def test_ellipticity_rejects_indefinite_tensor():
    g = Grid((5,), (1.0,), 1.0, 1)
    with pytest.raises(EllipticityError):
        ellipticity_check(TensorField(g, np.tile([[-1.0]], (g.n_cells, 1, 1))))


def test_ellipticity_rejects_asymmetric_tensor():
    g = Grid((3, 3), (1.0, 1.0), 1.0, 1)
    entries = np.tile(np.array([[1.0, 0.5], [0.0, 1.0]]), (g.n_cells, 1, 1))
    with pytest.raises(EllipticityError):
        ellipticity_check(TensorField(g, entries))


def test_ellipticity_caches_bounds():
    g = Grid((5,), (1.0,), 1.0, 1)
    t = TensorField.isotropic(g, 3.0)
    ellipticity_check(t)
    assert t.mu1 == pytest.approx(3.0)
    assert t.mu2 == pytest.approx(3.0)


def test_check_operator_rejects_asymmetric():
    import scipy.sparse as sp

    A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_operator(A)


def test_build_operators_monodomain_has_no_kie():
    g = Grid((9,), (1.0,), 1.0, 1)
    ops = build_operators(g, TensorField.isotropic(g, 1.0), lam=2.0)
    assert ops.K_ie is None
    assert ops.lam == 2.0


def test_elliptic_solve_cosine_oracle():
    # -div((M_i + M_e) grad u) = f with M_i = M_e = I and f = cos(pi x)
    # has u = cos(pi x) / (2 pi^2); P1 elements converge at O(h^2)
    g = Grid((65,), (1.0,), 1.0, 1)
    mi = TensorField.isotropic(g, 1.0)
    ops = build_operators(g, mi, mi)
    f = ScalarField.from_function(g, lambda x: np.cos(np.pi * x))
    u = bidomain_elliptic_solve(ops, f)
    exact = ScalarField.from_function(g, lambda x: np.cos(np.pi * x) / (2 * np.pi**2))
    err = lp_norm(ScalarField(g, u.values - exact.values), 2)
    assert err <= 1e-3 * lp_norm(exact, 2)
    assert abs(g.weights @ u.values) < 1e-10


def test_elliptic_solve_rejects_incompatible_load():
    g = Grid((9,), (1.0,), 1.0, 1)
    mi = TensorField.isotropic(g, 1.0)
    ops = build_operators(g, mi, mi)
    with pytest.raises(CompatibilityError):
        bidomain_elliptic_solve(ops, ScalarField.constant(g, 1.0))


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
    S = reduced_rhs_S(ops, I_i, I_e)
    expected = g.weights * (lam * I_i.values - I_e.values) / (1.0 + lam)
    assert np.allclose(S, expected, atol=1e-10)


def test_reduced_operator_collapses_for_proportional_tensors():
    g = Grid((17,), (1.0,), 1.0, 4)
    lam = 0.5
    mi = TensorField.isotropic(g, 1.0)
    ops = build_operators(g, mi, mi * lam, lam=lam)
    apply_A, precond = reduced_operator(ops, g.dt)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(g.n_nodes)
    expected = g.weights * v + g.dt * (lam / (1.0 + lam)) * (ops.K_i @ v)
    assert np.allclose(apply_A(v), expected, atol=1e-9)
    # the preconditioner is symmetric positive definite ...
    u = rng.standard_normal(g.n_nodes)
    assert u @ precond(v) == pytest.approx(v @ precond(u), rel=1e-12)
    for x in (u, v):
        assert x @ precond(x) > 0
    # ... and for constant tensors it is the exact inverse of apply_A
    assert np.linalg.norm(precond(apply_A(v)) - v) <= 1e-10 * np.linalg.norm(v)
