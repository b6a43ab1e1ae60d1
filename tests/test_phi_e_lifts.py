"""phi_e read off the coupled step's psi, and psi_eta solved for all frames.

The forward sweep stores phi_e^{k+1} = psi + lift^{k+1} - lift^k with
lift^k = K_ie^+ Mass (I_i + I_e)^k solved for every frame before the
sweep, and phi_e^0 = lift^0 - K_ie^+ K_i phi^0.  Every frame is checked
against its recovery from its own elliptic solve (``conftest``).  The
adjoint solves psi_eta for every frame before its sweep.  Both block
their frames (``assembly.solve_neumann_frames``), which bounds the
memory a long run needs.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cardioct import assembly
from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.assembly import CompatibilityError, _neumann_load, build_operators, solve_neumann
from cardioct.forward import compatibility_enforce, run_forward
from cardioct.grid import FieldSeries, Grid, TensorField

from conftest import fibres, make_problem, recover_phi_e


def _fibre_bidomain(cfg):
    g = cfg.grid
    mi = fibres(g)
    me = TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries)
    return replace(cfg, ops=build_operators(g, mi, me))


GRIDS = {
    "2d": Grid((13, 13), (1.0, 1.0), 0.3, 5),
    "3d": Grid((6, 5, 5), (1.0, 1.0, 1.0), 0.3, 4),
}
# relative bound of each tensor: direct solves are exact to roundoff, PCG
# solves to the coupled step's cg_tol plus the lifts' inner_tol
TENSORS = {"constant": 1e-13, "fibres": 1e-9}


def _config(grid, tensor, batch):
    cfg = make_problem(grid, kind="bidomain", model="ap", stimulus=0.3)
    if tensor == "fibres":
        cfg = _fibre_bidomain(cfg)
    if batch:
        scales = np.array([1.0, -0.5, 2.0])[:, None, None]
        cfg = replace(cfg, I_e=FieldSeries(grid, scales * cfg.I_e.data))
    return cfg


def _assert_matches_recovery(cfg, res, bound):
    """Every frame of res.phi_e against its own recovery from phi_tr."""
    used = replace(cfg, I_e=res.I_e_used)
    for k in range(cfg.grid.n_steps + 1):
        got = res.phi_e.data[..., k, :]
        ref = recover_phi_e(used, res.phi_tr.data[..., k, :], k)
        err = np.linalg.norm(got - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
        assert np.all(err <= bound), (k, err)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch3"])
@pytest.mark.parametrize("tensor", sorted(TENSORS))
@pytest.mark.parametrize("dim", sorted(GRIDS))
def test_phi_e_read_off_psi_matches_recovery_at_every_frame(dim, tensor, batch):
    cfg = _config(GRIDS[dim], tensor, batch)
    res = run_forward(cfg, report=False)
    assert res.phi_e.batch_shape == ((3,) if batch else ())
    _assert_matches_recovery(cfg, res, TENSORS[tensor])


@pytest.mark.parametrize("tensor", sorted(TENSORS))
def test_lifts_in_blocks_of_two_frames_match_recovery(monkeypatch, tensor):
    # 3 members x 6 frames in blocks of two frames: the blocks cross members
    g = GRIDS["2d"]
    monkeypatch.setattr(assembly, "FRAME_BLOCK_VALUES", 2 * g.n_nodes)
    cfg = _config(g, tensor, batch=True)
    _assert_matches_recovery(cfg, run_forward(cfg, report=False), TENSORS[tensor])


def test_control_constant_in_time_raises_no_compatibility_error():
    # every frame is the same compatible field up to one rounding, so the
    # frame-to-frame changes of the load the run uses are pure roundoff,
    # which the compatibility test rejects; the lifts test the frame loads
    # instead
    g = GRIDS["2d"]
    cfg = make_problem(g, kind="bidomain", stimulus=0.3)
    field = cfg.I_e.data[1] - (g.weights @ cfg.I_e.data[1]) / g.measure
    t = 1.0 + 0.1 * np.arange(g.n_steps + 1)[:, None]
    cfg = replace(cfg, I_e=FieldSeries(g, (field * t) / t))
    used = compatibility_enforce(cfg.I_i, cfg.I_e).data
    changes = cfg.ops.mass * np.diff(cfg.I_i.data + used, axis=0)
    assert changes.any()
    with pytest.raises(CompatibilityError):
        _neumann_load(changes, 0.0)
    res = run_forward(cfg, report=False)
    _assert_matches_recovery(cfg, res, TENSORS["constant"])


@pytest.mark.parametrize("block_frames", [None, 2])
@pytest.mark.parametrize("tensor", sorted(TENSORS))
def test_psi_eta_equals_per_frame_neumann_solves(monkeypatch, tensor, block_frames):
    g = GRIDS["2d"]
    if block_frames:
        monkeypatch.setattr(assembly, "FRAME_BLOCK_VALUES", block_frames * g.n_nodes)
    cfg = _config(g, tensor, batch=False)
    traj = run_forward(cfg, report=False)
    cost = CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5)
    adj = run_adjoint(cfg, traj, cost, report=False)
    r_eta = cost.w_eta * traj.phi_e.data
    for k in range(g.n_steps + 1):
        load = cfg.ops.mass * (r_eta[k] - (g.weights @ r_eta[k]) / g.measure)
        ref = solve_neumann(cfg.ops, load, tol=cfg.inner_tol)
        got = adj.psi_eta.data[k]
        assert np.linalg.norm(got - ref) <= TENSORS[tensor] * np.linalg.norm(ref), k


# A 65^2 x 40-step run: a series is 41 x 4225 doubles (1.39 MB), so one
# block of frames is about 0.38 of one.  The bidomain run returns phi, w,
# phi_e and the compatible I_e (4 series); the adjoint returns p1, p3, p2
# and psi_eta (4 series) and forms the cost partials frame by frame.
# Solving all frames in one block would raise the peaks to about 7 and 8
# series.  The monodomain run returns phi and w, its adjoint p1 and p3
# (2 series each); they read 2.12 and 2.12 series, where partials kept
# for every frame, a zeros series for the absent eta term among them,
# read 5.22 for the adjoint.
MEMORY_GRID = Grid((65, 65), (1.0, 1.0), 0.3, 40)


def _peak_series(call):
    """Peak traced allocation of call(), in series of MEMORY_GRID."""
    g = MEMORY_GRID
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((g.n_steps + 1) * g.n_nodes * 8)


# (kind, eta weight, forward bound, adjoint bound), in series
PEAK_BOUNDS = (("bidomain", 0.5, 4.6, 7.7), ("monodomain", 0.0, 2.2, 2.2))


def test_forward_and_adjoint_peaks_stay_near_their_outputs():
    for kind, w_eta, forward_bound, adjoint_bound in PEAK_BOUNDS:
        cfg = make_problem(MEMORY_GRID, kind=kind, stimulus=0.3)
        cost = CostConfig(mu=1e-2, w_phi=1.0, w_eta=w_eta, w_gate=0.5)
        traj = run_forward(cfg, report=False)
        run_adjoint(cfg, traj, cost, report=False)  # the first solves measure their residual
        forward_peak = _peak_series(lambda: run_forward(cfg, report=False))
        adjoint_peak = _peak_series(lambda: run_adjoint(cfg, traj, cost, report=False))
        peaks = (kind, forward_peak, adjoint_peak)
        assert forward_peak <= forward_bound and adjoint_peak <= adjoint_bound, peaks
