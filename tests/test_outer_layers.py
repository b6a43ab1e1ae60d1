"""The layers outside the time step: the optimizer's control algebra and the peaks of both.

``projected_gradient_descent`` is checked against a textbook spectral
projected gradient loop (Birgin, Martinez & Raydan, SIAM J. Optim. 10,
2000) written here with plain ``FieldSeries`` arithmetic: fresh arrays
for every step, the rectangle-rule inner product as a weighted double
sum, the projection as mask, mean removal and radial clip.  The public
control functions must leave their inputs as they were, bitwise.  The
tracemalloc peaks of the norm reports and of the optimizer are bounded
in series (one frame array of the run's size per series), and the
forward report's transforms are counted per block of frames.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cardioct.adjoint import CostConfig, adjoint_report, run_adjoint
from cardioct.assembly import build_operators
from cardioct.cli import build_problem, parse_config
from cardioct.control import (
    ARMIJO_C,
    MAX_HALVINGS,
    REL_DECREASE_TOL,
    ControlProblem,
    apply_Q,
    compute_gradient,
    project_admissible,
    projected_gradient_descent,
    reduced_gradient,
    simulate,
)
from cardioct.forward import ProblemConfig, forward_report, run_forward
from cardioct.grid import (
    NORM_BLOCK_VALUES,
    FieldSeries,
    Grid,
    ScalarField,
    TensorField,
    frame_blocks,
)
from cardioct.ionic import IonicParams
from cardioct.spectral import SpectralBasis
from cardioct.stimuli import box_mask, gaussian_bump, pulse_series, seeded_smooth_series

from conftest import assert_unchanged, make_problem, snapshot


def _masked_monodomain():
    g = Grid((17, 17), (1.0, 1.0), 0.3, 5)
    cost = CostConfig(mu=1e-3, w_phi=1.0, mask=box_mask(g, (0.5, 0.5), (1.0, 1.0)))
    # the radius clips the first frames of the optimum and leaves the later ones
    return ControlProblem(make_problem(g, stimulus=0.5), cost, radius=0.3, budget=6)


def _bidomain_mean_removal(masked=False):
    g = Grid((13, 13), (1.0, 1.0), 0.3, 4)
    mask = box_mask(g, (0.4, 0.4), (1.0, 1.0)) if masked else None
    cost = CostConfig(mu=1e-3, w_phi=1.0, w_eta=0.5, mask=mask)
    return ControlProblem(make_problem(g, kind="bidomain", stimulus=0.5), cost, budget=6)


PROBLEMS = {
    "masked_monodomain": _masked_monodomain,
    "bidomain": _bidomain_mean_removal,
    "masked_bidomain": lambda: _bidomain_mean_removal(masked=True),
}


def _textbook_spg(problem):
    """Spectral projected gradients with fresh arrays everywhere; (J history, control, J)."""
    g = problem.config.grid
    cost, kind, n = problem.cost, problem.config.kind, g.n_steps
    tw = np.full(n + 1, g.dt)
    tw[-1] = 0.0
    chi = np.ones(g.n_nodes) if cost.mask is None else cost.mask

    def inner(a, b):
        return float(sum(tw[k] * np.sum(g.weights * a.data[k] * b.data[k]) for k in range(n + 1)))

    def Q(x):
        data = x.data * chi
        if kind == "bidomain":
            window = g.weights * chi
            data = (data - (data @ window / window.sum())[:, None]) * chi
        return FieldSeries(g, data)

    def P(x):
        q = Q(x)
        if problem.radius is not None:
            norms = np.sqrt((q.data * q.data) @ g.weights)
            scale = np.where(norms > problem.radius, problem.radius / np.maximum(norms, 1e-300), 1.0)
            q = FieldSeries(g, q.data * scale[:, None])
        return q

    def gradient(I):
        # from full sweeps: the forward over every step, the adjoint down to frame 0
        cfg = replace(problem.config, I_e=I)
        adj = run_adjoint(cfg, run_forward(cfg, report=False), cost, report=False)
        data = np.zeros_like(I.data)
        if kind == "monodomain":
            track = adj.p1.data[1:] / (1.0 + problem.config.ops.lam)
        else:
            track = -(adj.p2.data[1:] + adj.psi_eta.data[1:] - adj.psi_eta.data[:-1])
        data[:n] = cost.mu * I.data[:n] + track
        return Q(FieldSeries(g, data))

    I = P(problem.config.I_e)
    J, _ = simulate(problem, I)
    history, prev_I, prev_g, g0 = [], None, None, None
    for _ in range(problem.budget):
        grad = gradient(I)
        g_norm = np.sqrt(inner(grad, grad))
        g0 = g_norm if g0 is None else g0
        history.append(J)
        if g_norm <= problem.gtol * (1.0 + g0):
            break
        alpha = 1.0
        if prev_I is not None:
            s = FieldSeries(g, I.data - prev_I.data)
            y = FieldSeries(g, grad.data - prev_g.data)
            sy = inner(s, y)
            alpha = min(max(inner(s, s) / sy if sy > 0.0 else 1e8, 1e-8), 1e8)
        prev_I, prev_g = I, grad
        for _ in range(MAX_HALVINGS + 1):
            trial = P(FieldSeries(g, I.data - alpha * grad.data))
            slope = inner(grad, FieldSeries(g, trial.data - I.data))
            J_trial, _ = simulate(problem, trial)
            if J_trial <= J + ARMIJO_C * slope:
                break
            alpha *= 0.5
        else:
            raise AssertionError("the textbook line search stagnated")
        drop = (J - J_trial) / max(abs(J), 1e-300)
        I, J = trial, J_trial
        if drop < REL_DECREASE_TOL:
            break
    return history, I, J


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_optimizer_matches_textbook_spg(name):
    problem = PROBLEMS[name]()
    history, I, J = _textbook_spg(problem)
    opt = projected_gradient_descent(problem)
    assert len(history) >= 4
    assert [h["J"] for h in opt.history] == pytest.approx(history, rel=1e-12, abs=0.0)
    assert opt.J == pytest.approx(J, rel=1e-12, abs=0.0)
    assert np.abs(opt.control.data - I.data).max() <= 1e-12 * np.abs(I.data).max()
    if problem.radius is not None:
        norms = np.sqrt((I.data * I.data) @ problem.config.grid.weights)
        # the check covers both sides of the clip
        assert np.any(np.isclose(norms, problem.radius, rtol=1e-12))
        assert np.any((norms > 0.0) & (norms < 0.99 * problem.radius))


def _arrays(**series):
    """The data of each named series that is not None."""
    return {name: s.data for name, s in series.items() if s is not None}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_control_functions_leave_their_inputs_unchanged(name):
    problem = PROBLEMS[name]()
    g = problem.config.grid
    noise = seeded_smooth_series(g, np.random.default_rng(3), 0.1).data
    I0 = FieldSeries(g, problem.config.I_e.data + noise)
    problem = replace(problem, config=replace(problem.config, I_e=I0))
    cfg = problem.config
    inputs = snapshot(_arrays(I_e=cfg.I_e))
    projected_gradient_descent(problem)
    assert_unchanged(inputs)

    I = project_admissible(cfg.I_e, problem)
    assert_unchanged(inputs)
    _, traj = simulate(problem, I)
    trajectory = snapshot(_arrays(
        I_e=cfg.I_e, I=I,
        phi=traj.phi_tr, w=traj.w, phi_e=traj.phi_e, I_e_used=traj.I_e_used,
    ))
    grad = compute_gradient(problem, I, traj)
    # the multipliers compute_gradient forms, which it does not return
    adj = run_adjoint(replace(cfg, I_e=I), traj, problem.cost, report=False, lowest_frame=1)
    adjoint = snapshot(_arrays(grad=grad, p1=adj.p1, p3=adj.p3, p2=adj.p2, psi_eta=adj.psi_eta))
    again = reduced_gradient(adj, I, replace(cfg, I_e=I), problem.cost)
    assert np.array_equal(again.data, grad.data)
    q = apply_Q(grad, problem.cost, cfg.kind)
    assert not np.shares_memory(q.data, grad.data)
    p = project_admissible(I, problem)
    assert not np.shares_memory(p.data, I.data)
    assert_unchanged(trajectory)
    assert_unchanged(adjoint)


def _peak_series(call, grid):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((grid.n_steps + 1) * grid.n_nodes * 8)


def _benchmark_config(g, diagonal, model, amplitude):
    """A problem as the benchmark's workloads build it: a pulse plus seeded noise in I_e."""
    bump = gaussian_bump(g, (0.7,) * g.dim, 0.15, amplitude)
    noise = seeded_smooth_series(g, np.random.default_rng(0), 0.05)
    I_e = pulse_series(g, bump, 0.0, 0.5 * g.T, "smooth")
    return ProblemConfig(
        grid=g,
        ops=build_operators(g, TensorField.diagonal(g, diagonal), lam=1.0),
        ionic=IonicParams(model),
        kind="monodomain",
        phi0=gaussian_bump(g, (0.3,) * g.dim, 0.15, 0.8),
        w0=ScalarField.zeros(g),
        I_i=FieldSeries.zeros(g),
        I_e=FieldSeries(g, I_e.data + noise.data),
    )


def _mono3d_forward():
    """The 25^3 monodomain forward run of the mono3d_forward workload."""
    g = Grid((25,) * 3, (1.0, 1.0, 1.0), 1.0, 6)
    return _benchmark_config(g, (1.0, 0.5, 0.25), "ap", 0.2)


def _mono2d_control():
    """The 65^2 box-window control problem of the mono2d_control workload."""
    g = Grid((65, 65), (1.0, 1.0), 1.0, 5)
    cost = CostConfig(mu=1e-3, w_phi=1.0, mask=box_mask(g, (0.5, 0.5), (1.0, 1.0)))
    cfg = _benchmark_config(g, (1.0, 0.5), "rm", 0.5)
    return ControlProblem(config=cfg, cost=cost, radius=0.3, budget=12)


# Peaks in series, each at its measured figure plus at most 0.1.  Before
# the weighted transform and the in-place control algebra the report read
# 3.00 (its weighted copy of each series) and the optimizer 15.0; before
# the norms went over blocks of frames the forward report read 2.00 and
# the adjoint report 4.00 (its partials of every frame).
REPORT_PEAK = 0.67
ADJOINT_REPORT_PEAK = 0.39
OPTIMIZER_PEAK = 13.1


def test_forward_report_peak_stays_below_one_series():
    cfg = _mono3d_forward()
    res = run_forward(cfg, report=False)
    forward_report(cfg, res.phi_tr, res.w)
    peak = _peak_series(lambda: forward_report(cfg, res.phi_tr, res.w), cfg.grid)
    assert peak <= REPORT_PEAK, peak


def test_adjoint_report_peak_stays_below_one_series():
    # 21 frames of 65^2 go in seven blocks of three
    g = Grid((65, 65), (1.0, 1.0), 1.0, 20)
    cfg = _benchmark_config(g, (1.0, 0.5), "rm", 0.5)
    res = run_forward(cfg, report=False)
    cost = CostConfig(w_phi=1.0, w_gate=0.5, phi_des=FieldSeries(g, 0.5 * res.phi_tr.data))
    adj = run_adjoint(cfg, res, cost, report=False)
    assert len(frame_blocks(adj.p1.n_frames, g.n_nodes, NORM_BLOCK_VALUES)) == 7

    def report():
        return adjoint_report(adj.p1, adj.p3, adj.p2, cost, res)

    report()
    peak = _peak_series(report, g)
    assert peak <= ADJOINT_REPORT_PEAK, peak


def test_optimizer_peak_stays_bounded():
    problem = _mono2d_control()
    projected_gradient_descent(problem)  # the first solves measure their residual
    peak = _peak_series(lambda: projected_gradient_descent(problem), problem.config.grid)
    assert peak <= OPTIMIZER_PEAK, peak


def test_forward_report_transforms_once_per_block(monkeypatch, tmp_path):
    # A small 1-D series is one block, one transform of all its frames;
    # a 25^3 frame is a block of its own.
    calls = []
    original = SpectralBasis.coefficients

    def counted(self, x):
        calls.append(len(x))
        return original(self, x)

    monkeypatch.setattr(SpectralBasis, "coefficients", counted)
    ini = tmp_path / "default.ini"
    ini.write_text("")
    cli_default = build_problem(parse_config(ini))
    assert (cli_default.grid.nodes_per_axis, cli_default.grid.n_steps) == ((33,), 50)
    for cfg, expected in ((cli_default, [51, 51]), (_mono3d_forward(), [1] * 14)):
        res = run_forward(cfg, report=False)
        calls.clear()
        forward_report(cfg, res.phi_tr, res.w)
        assert calls == expected
