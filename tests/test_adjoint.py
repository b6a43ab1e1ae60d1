import numpy as np
import pytest
from dataclasses import replace

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.control import ControlProblem
from cardioct.forward import run_forward
from cardioct.grid import FieldSeries, Grid, ScalarField
from cardioct.ionic import gating_source_slope
from cardioct.verify import gradient_check

from conftest import integrate, make_problem


def test_zero_residual_gives_zero_adjoint(grid1d):
    cfg = make_problem(grid1d, stimulus=0.3)
    res = run_forward(cfg, report=False)
    cost = CostConfig(mu=1e-2, w_phi=1.0, phi_des=res.phi_tr)
    adj = run_adjoint(cfg, res, cost)
    assert np.all(adj.p1.data == 0.0)
    assert np.all(adj.p3.data == 0.0)


def test_terminal_frames_vanish(grid1d):
    cfg = make_problem(grid1d, stimulus=0.3)
    res = run_forward(cfg, report=False)
    adj = run_adjoint(cfg, res, CostConfig(mu=1e-2, w_phi=1.0))
    n = grid1d.n_steps
    assert np.all(adj.p1.data[n] == 0.0)
    assert np.all(adj.p3.data[n] == 0.0)


def test_adjoint_scales_linearly_with_residual(grid1d):
    cfg = make_problem(grid1d, stimulus=0.3)
    res = run_forward(cfg, report=False)
    one = run_adjoint(cfg, res, CostConfig(w_phi=1.0), report=False)
    two = run_adjoint(cfg, res, CostConfig(w_phi=2.0), report=False)
    assert np.allclose(two.p1.data, 2.0 * one.p1.data, rtol=1e-9, atol=1e-12)
    assert np.allclose(two.p3.data, 2.0 * one.p3.data, rtol=1e-9, atol=1e-12)


def test_gate_tracking_feeds_p3(grid1d):
    cfg = make_problem(grid1d, stimulus=0.3)
    res = run_forward(cfg, report=False)
    adj = run_adjoint(cfg, res, CostConfig(w_phi=0.0, w_gate=1.0), report=False)
    assert np.max(np.abs(adj.p3.data)) > 0.0


def test_bidomain_p2_zero_mean(grid2d):
    cfg = make_problem(grid2d, kind="bidomain", stimulus=0.4)
    res = run_forward(cfg, report=False)
    adj = run_adjoint(cfg, res, CostConfig(w_phi=1.0, w_eta=0.5), report=False)
    assert adj.p2 is not None
    for k in range(grid2d.n_steps + 1):
        assert abs(integrate(adj.p2.frame(k))) < 1e-9


def test_eta_tracking_needs_bidomain(grid1d):
    cfg = make_problem(grid1d, stimulus=0.3)
    res = run_forward(cfg, report=False)
    with pytest.raises(ValueError):
        run_adjoint(cfg, res, CostConfig(w_eta=1.0), report=False)


def test_adjoint_report_keys(grid2d):
    cfg = make_problem(grid2d, kind="bidomain", stimulus=0.4)
    res = run_forward(cfg, report=False)
    adj = run_adjoint(cfg, res, CostConfig(w_phi=1.0, w_eta=0.5))
    for key in (
        "C0_L2_p1",
        "L2_H1_p1",
        "L4_H1_p1",
        "C0_L2_p3",
        "L2_H1_p2",
        "L2_L2_r_phi",
        "L2_L2_r_eta",
        "L2_L2_r_w",
    ):
        assert key in adj.report
        assert np.isfinite(adj.report[key])


def test_control_mask_leaves_tracking_untouched(grid1d):
    # the mask carves out the control window; the tracking terms stay
    # global, so the multipliers must not depend on it
    cfg = make_problem(grid1d, stimulus=0.3)
    res = run_forward(cfg, report=False)
    mask = (grid1d.axis_coords[0] <= 0.5).astype(float)
    full = run_adjoint(cfg, res, CostConfig(w_phi=1.0), report=False)
    masked = run_adjoint(cfg, res, CostConfig(w_phi=1.0, mask=mask), report=False)
    assert np.array_equal(masked.p1.data, full.p1.data)


@pytest.mark.parametrize("kind", ["monodomain", "bidomain"])
def test_one_step_adjoint_frame_zero(kind):
    # Frame 0 of p1 and p3 is invisible to the gradient checks (the gradient
    # reads p1[1:]); with one step it is all the sweep computes, and its
    # s'_{k-1} term is s'_0 itself.
    g = Grid((9, 9), (1.0, 1.0), 0.3, 1)
    cfg = make_problem(g, kind=kind, model="ap", stimulus=0.3)
    cfg = replace(cfg, w0=ScalarField(g, np.full(g.n_nodes, 0.5)))
    cost = CostConfig(mu=1e-2, w_phi=1.0, w_gate=0.5)
    traj = run_forward(cfg, report=False)
    adj = run_adjoint(cfg, traj, cost, report=False)
    dt, mass = g.dt, cfg.ops.mass
    phi, w = traj.phi_tr.data, traj.w.data
    alpha = np.exp(-cfg.ionic.eps * dt)

    p3 = -dt * cost.w_gate * w[0]
    assert np.array_equal(adj.p3.data[0], p3)
    slope = gating_source_slope(cfg.ionic, 0.5 * (phi[0] + phi[1]))
    load = mass * (0.5 * (1.0 - alpha) * slope * p3 - dt * cost.w_phi * phi[0])
    apply, _ = cfg.ops.coupled_system if kind == "bidomain" else cfg.ops.step_system
    if kind == "bidomain":
        # the coupled block system, with no eta load in its second row
        x = np.concatenate((adj.p1.data[0], adj.p2.data[0]))
        load = np.concatenate((load, np.zeros(g.n_nodes)))
    else:
        x = adj.p1.data[0]
    assert np.linalg.norm(apply(x) - load) <= 1e-9 * np.linalg.norm(load)


def test_ap_gating_gradient_check():
    # On "ap" the gating slope s'(phi) varies, so the p3^k term of the
    # sweep must take s' of the step before (s'_{k-1}), not s'_k: the
    # code reads about 1e-9 here, a lag of one step about 6e-4.
    g = Grid((17,), (1.0,), 2.0, 20)
    cfg = make_problem(g, model="ap", stimulus=0.4)
    problem = ControlProblem(config=cfg, cost=CostConfig(mu=1e-2, w_phi=1.0, w_gate=1.0))
    rep = gradient_check(problem, n_directions=2, seed=0)
    assert rep.max_rel_error <= 1e-6
