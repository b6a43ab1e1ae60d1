"""The time steps accumulate in place, into arrays they own.

The forward and adjoint sweeps build each step's load in one fresh
array and write the frames they return; they must never write into
their inputs.  ``d_i_ion`` returns ``phi`` itself as d i_ion/d w on rm
and ap, so an in-place update of it would corrupt the trajectory the
adjoint reads.  The gating update is accumulated in place too, and
stays bitwise the closed form of ``ionic``.
"""

from dataclasses import replace

import numpy as np
import pytest

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.forward import run_forward
from cardioct.grid import FieldSeries, Grid
from cardioct.ionic import KINDS, IonicParams, gating_exact_update, gating_source

from conftest import assert_unchanged, make_problem, snapshot

GRID = Grid((9, 9), (1.0, 1.0), 0.3, 6)


def _config(kind, model):
    g = GRID
    cfg = make_problem(g, kind=kind, model=model, stimulus=0.3)
    rng = np.random.default_rng(3)
    I_i = FieldSeries(g, 0.05 * rng.standard_normal((g.n_steps + 1, g.n_nodes)))
    w0 = replace(cfg.w0, values=np.full(g.n_nodes, 0.1))
    return replace(cfg, I_i=I_i, w0=w0)


def _inputs(cfg):
    return {
        "phi0": cfg.phi0.values,
        "w0": cfg.w0.values,
        "I_i": cfg.I_i.data,
        "I_e": cfg.I_e.data,
    }


@pytest.mark.parametrize("model", ["rm", "ap"])
@pytest.mark.parametrize("kind", ["monodomain", "bidomain"])
def test_sweeps_never_write_into_their_inputs(kind, model):
    cfg = _config(kind, model)
    inputs = snapshot(_inputs(cfg))
    traj = run_forward(cfg, report=False)
    assert_unchanged(inputs)

    batched = replace(cfg, I_e=FieldSeries(GRID, np.array([1.0, -0.5])[:, None, None] * cfg.I_e.data))
    batch_inputs = snapshot(_inputs(batched))
    run_forward(batched, report=False)
    assert_unchanged(batch_inputs)

    bidomain = kind == "bidomain"
    targets = {"phi_des": FieldSeries(GRID, 0.5 * traj.phi_tr.data)}
    if bidomain:
        targets["eta_des"] = FieldSeries(GRID, 0.5 * traj.phi_e.data)
    cost = CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5 if bidomain else 0.0, w_gate=0.5, **targets)
    read = {"phi_tr": traj.phi_tr.data, "w": traj.w.data}
    if bidomain:
        read["phi_e"] = traj.phi_e.data
    read.update({name: series.data for name, series in targets.items()})
    read = snapshot({**_inputs(cfg), **read})
    run_adjoint(cfg, traj, cost, report=False)
    assert_unchanged(read)


@pytest.mark.parametrize("model", KINDS)
@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch3"])
def test_gating_update_is_bitwise_the_closed_form_in_a_fresh_array(model, batch):
    par = IonicParams(model)
    dt = 0.3
    rng = np.random.default_rng(11)
    w, phi_old, phi_new = (rng.uniform(-0.5, 1.5, batch + (50,)) for _ in range(3))
    before = [a.tobytes() for a in (w, phi_old, phi_new)]
    alpha = np.exp(-par.eps * dt)
    expected = alpha * w + (1 - alpha) * gating_source(par, 0.5 * (phi_old + phi_new))
    got = gating_exact_update(par, w, phi_old, phi_new, dt)
    assert got.tobytes() == expected.tobytes()
    assert got.shape == expected.shape
    assert not any(np.shares_memory(got, a) for a in (w, phi_old, phi_new))
    assert [a.tobytes() for a in (w, phi_old, phi_new)] == before
