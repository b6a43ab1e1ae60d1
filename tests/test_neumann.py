"""The pure-Neumann K_ie solves without deflation.

A load that sums to zero lies in the range of K_ie, and the spectral
pseudo-inverse is positive definite there, so plain PCG converges on
the singular system; ``solve_neumann`` then fixes the weighted
zero-mean gauge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.assembly import (
    CompatibilityError,
    build_operators,
    reduced_operator,
    solve_coupled_step,
    solve_neumann,
)
from cardioct.grid import Grid, TensorField

from conftest import fibres, random_spd, scar

GRIDS = [
    ((7,), (1.3,)),
    ((6, 5), (1.0, 2.5)),
    ((4, 3, 5), (1.0, 0.6, 2.0)),
]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(GRIDS), st.integers(0, 2**31 - 1))
def test_kie_pseudo_inverse_is_positive_on_zero_sum_vectors(case, seed):
    g = Grid(*case, 1.0, 1)
    rng = np.random.default_rng(seed)
    ops = build_operators(g, random_spd(g, rng), random_spd(g, rng))
    precond = ops.neumann_system[1]
    P = np.column_stack([precond(e) for e in np.eye(g.n_nodes)])
    scale = np.abs(P).max()
    assert np.abs(P - P.T).max() <= 1e-12 * scale
    assert np.abs(P @ g.weights).max() <= 1e-12 * scale * np.abs(g.weights).max()
    # orthonormal basis of the zero-sum vectors: the columns of Q after the first
    Q = np.linalg.qr(np.column_stack([np.ones(g.n_nodes), np.eye(g.n_nodes)[:, 1:]]))[0]
    Z = Q[:, 1:]
    assert np.linalg.eigvalsh(Z.T @ P @ Z).min() > 1e-10 * scale


def _dense_neumann(K, weights, load):
    """Least-squares solve of K x = load with the gauge row weights^T x = 0."""
    A = np.vstack([K.toarray(), weights])
    return np.linalg.lstsq(A, np.append(load, 0.0), rcond=None)[0]


@pytest.mark.parametrize("nodes", [(17, 17), (33, 33), (7, 6, 5)])
@pytest.mark.parametrize(
    "contrast, bound",
    [(None, 1e-9), (1e-2, 1e-9), (1e-4, 1e-8)],
    ids=["fibres", "scar-1e-2", "scar-1e-4"],
)
def test_solve_neumann_matches_dense_solve(nodes, contrast, bound):
    g = Grid(nodes, (1.0,) * len(nodes), 1.0, 1)
    if contrast is None:
        mi = fibres(g)
        me = TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries)
    else:
        mi = scar(g, contrast)
        me = 0.5 * mi
    ops = build_operators(g, mi, me)
    load = g.weights * np.random.default_rng(1).standard_normal(g.n_nodes)
    load -= load.mean()
    x = solve_neumann(ops, load, tol=1e-12)
    ref = _dense_neumann(ops.K_ie, g.weights, load)
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)
    assert abs(g.weights @ x) <= 1e-12 * g.measure * np.abs(x).max()


@pytest.mark.parametrize("kind", ["constant", "fibres"])
def test_a_zero_load_gives_exact_zeros(kind):
    # cg_solve returns a zero row for a zero load on the direct and the PCG
    # path, first solve or later, and the gauge shift of zero is zero
    g = Grid((9, 7), (1.0, 1.3), 1.0, 1)
    mi = fibres(g) if kind == "fibres" else TensorField.diagonal(g, (1.0, 0.4))
    ops = build_operators(g, mi, TensorField.diagonal(g, (0.6, 1.2)))
    assert ops.neumann_system[1].exact is (kind == "constant")
    block = g.weights * np.random.default_rng(4).standard_normal((3, g.n_nodes))
    block -= block.mean(axis=1, keepdims=True)
    block[1] = 0.0
    for _ in range(2):
        x = solve_neumann(ops, np.zeros(g.n_nodes), tol=1e-10)
        assert x.shape == (g.n_nodes,) and not x.any()
        X = solve_neumann(ops, block, tol=1e-10)
        assert X.shape == block.shape and not X[1].any()
        assert X[0].any() and X[2].any()
    assert not solve_neumann(ops, np.zeros((2, g.n_nodes)), tol=1e-10).any()


def test_solve_coupled_step_rejects_incompatible_load():
    g = Grid((9, 9), (1.0, 1.0), 0.3, 3)
    mi = fibres(g)
    ops = build_operators(g, mi, 1.5 * mi)
    system = reduced_operator(ops)
    f = g.weights * np.random.default_rng(2).standard_normal(g.n_nodes)
    with pytest.raises(CompatibilityError):
        solve_coupled_step(ops, system, f, g.dt * g.weights, tol=1e-10)
