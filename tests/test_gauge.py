"""The weighted zero-mean gauge of the Neumann solves, kept by the pseudo-inverse.

``solve_neumann`` and the psi half of ``solve_coupled_step`` return
PCG's result with no gauge pass: the spectral pseudo-inverse maps the
weights to zero, so every iterate of a cold PCG, and the direct result
P b, lies in its range, the fields of zero weighted mean.  The fields
the sweeps read off those solves, phi_e of ``run_forward`` and p2 of
``run_adjoint``, keep the gauge too.
"""

from dataclasses import replace

import numpy as np
import pytest

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.assembly import build_operators, solve_coupled_step, solve_neumann
from cardioct.forward import run_forward
from cardioct.grid import FieldSeries, Grid, TensorField

from conftest import fibres, make_problem

# |weighted mean| of a field, relative to its largest entry
GAUGE = 1e-14

GRIDS = {
    "2d": Grid((17, 17), (1.0, 1.3), 0.3, 4),
    "3d": Grid((7, 6, 5), (1.0, 0.8, 1.2), 0.3, 3),
}


def _tensors(g, tensor):
    if tensor == "constant":
        return TensorField.diagonal(g, (1.0, 0.4, 0.7)[: g.dim]), TensorField.isotropic(g, 0.6)
    mi = fibres(g)
    return mi, TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries)


def assert_gauge(g, x):
    """Every row (frame) of x has weighted mean at most GAUGE of its largest entry."""
    x = x.reshape(-1, g.n_nodes)
    mean = np.abs(x @ g.weights) / g.measure
    assert np.all(mean <= GAUGE * np.abs(x).max(axis=-1)), mean.max()


def _compatible_loads(g, rng, shape):
    load = g.weights * rng.standard_normal(shape + (g.n_nodes,))
    return load - load.mean(axis=-1, keepdims=True)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch3"])
@pytest.mark.parametrize("tensor", ["constant", "fibres"])
@pytest.mark.parametrize("dim", sorted(GRIDS))
def test_neumann_and_coupled_solves_keep_the_gauge(dim, tensor, batch):
    g = GRIDS[dim]
    ops = build_operators(g, *_tensors(g, tensor))
    assert ops.neumann_system[1].exact is (tensor == "constant")
    rng = np.random.default_rng(7)
    shape = (3,) if batch else ()
    # twice: the first solve of an exact system tests its residual, later ones are direct
    for _ in range(2):
        x = solve_neumann(ops, _compatible_loads(g, rng, shape), tol=1e-11)
        assert x.shape == shape + (g.n_nodes,)
        assert_gauge(g, x)
        f = g.weights * rng.standard_normal(shape + (g.n_nodes,))
        load = g.dt * _compatible_loads(g, rng, shape)
        phi, psi = solve_coupled_step(ops, f, load, tol=1e-10)
        assert phi.shape == psi.shape == shape + (g.n_nodes,)
        assert_gauge(g, psi)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch3"])
@pytest.mark.parametrize("tensor", ["constant", "fibres"])
@pytest.mark.parametrize("dim", sorted(GRIDS))
def test_phi_e_and_p2_keep_the_gauge_at_every_frame(dim, tensor, batch):
    g = GRIDS[dim]
    cfg = make_problem(g, kind="bidomain", model="ap", stimulus=0.3)
    cfg = replace(cfg, ops=build_operators(g, *_tensors(g, tensor)))
    if batch:
        scales = np.array([1.0, -0.5, 2.0])[:, None, None]
        cfg = replace(cfg, I_e=FieldSeries(g, scales * cfg.I_e.data))
    res = run_forward(cfg, report=False)
    assert res.phi_e.batch_shape == ((3,) if batch else ())
    assert_gauge(g, res.phi_e.data)
    if batch:
        return  # the adjoint sweep reads single trajectories
    for w_eta in (0.0, 0.5):
        adj = run_adjoint(cfg, res, CostConfig(mu=1e-2, w_phi=1.0, w_eta=w_eta), report=False)
        assert_gauge(g, adj.p2.data)
