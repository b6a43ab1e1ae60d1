"""Batched forward runs: a control series with a leading batch axis.

One batched ``simulate`` must give every member's unbatched J and
trajectory, the finite-difference ladder of ``gradient_check`` is one
such call per direction, and the single-trajectory entry points reject
a batch rather than read a member as a frame.
"""

from dataclasses import replace

import numpy as np
import pytest

from cardioct import control, forward, ionic
from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.assembly import build_operators
from cardioct.control import (
    ControlProblem,
    compute_gradient,
    control_inner,
    project_admissible,
    projected_gradient_descent,
    random_admissible_direction,
    simulate,
)
from cardioct.forward import run_forward
from cardioct.grid import FieldSeries, Grid, TensorField
from cardioct.ionic import gating_source_slope
from cardioct.verify import gradient_check

from conftest import fibres, make_problem


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _fibre_bidomain(g):
    cfg = make_problem(g, kind="bidomain", model="ap", stimulus=0.2)
    mi = fibres(g)
    me = TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries)
    return replace(cfg, ops=build_operators(g, mi, me))


CASES = {
    "mono2d": lambda: make_problem(Grid((9, 9), (1.0, 1.0), 0.3, 6), stimulus=0.3),
    "bido2d": lambda: make_problem(
        Grid((9, 9), (1.0, 1.0), 0.3, 6), kind="bidomain", stimulus=0.3
    ),
    "fibre2d": lambda: _fibre_bidomain(Grid((13, 13), (1.0, 1.0), 0.3, 4)),
    "fibre3d": lambda: _fibre_bidomain(Grid((6, 5, 5), (1.0, 1.0, 1.0), 0.3, 3)),
}


def _problem(case):
    cfg = CASES[case]()
    w_eta = 0.5 if cfg.kind == "bidomain" else 0.0
    return ControlProblem(config=cfg, cost=CostConfig(mu=1e-2, w_phi=1.0, w_eta=w_eta, w_gate=0.5))


def _ladder(problem, steps, seed=0):
    base = project_admissible(problem.config.I_e, problem)
    d = random_admissible_direction(problem, np.random.default_rng(seed))
    return FieldSeries(base.grid, base.data + np.asarray(steps)[:, None, None] * d.data)


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_simulate_equals_one_simulate_per_control(case):
    problem = _problem(case)
    controls = _ladder(problem, [0.3, -0.3, 0.05, 0.0])
    J, traj = simulate(problem, controls)
    assert J.shape == (4,)
    assert traj.phi_tr.batch_shape == (4,)
    bidomain = problem.config.kind == "bidomain"
    states = ["phi_tr", "w"] + (["phi_e"] if bidomain else [])
    n = controls.grid.n_steps
    for j in range(4):
        J_one, one = simulate(problem, FieldSeries(controls.grid, controls.data[j]))
        assert isinstance(J_one, float)
        assert abs(J[j] - J_one) <= 1e-13 * abs(J_one)
        for name in states:
            # simulate stops at frame n - 1, the last that J reads
            batched, single = getattr(traj, name).data[j], getattr(one, name).data
            assert _rel(batched[:n], single[:n]) <= 1e-13
            assert np.isnan(batched[n]).all() and np.isnan(single[n]).all()
        if bidomain:
            assert _rel(traj.I_e_used.data[j], one.I_e_used.data) <= 1e-13


@pytest.mark.parametrize("case", ["mono2d", "bido2d", "fibre2d"])
def test_gradient_check_fd_values_equal_the_sequential_ladder(case):
    problem = _problem(case)
    seed, deltas = 4, [4e-3, 2e-3, 1e-3, 5e-4]
    rep = gradient_check(problem, n_directions=2, seed=seed, deltas=deltas)
    base = project_admissible(problem.config.I_e, problem)
    # the gradient of the base run made alone (the check runs it in a batch)
    grad = compute_gradient(problem, base, simulate(problem, base)[1])
    rng = np.random.default_rng(seed)
    for fd, delta, gd in zip(rep.fd_values, rep.deltas, rep.inner_products):
        d = random_admissible_direction(problem, rng)
        assert abs(gd - control_inner(grad, d)) <= 1e-9 * abs(gd)
        J_plus, _ = simulate(problem, FieldSeries(base.grid, base.data + delta * d.data))
        J_minus, _ = simulate(problem, FieldSeries(base.grid, base.data - delta * d.data))
        sequential = (J_plus - J_minus) / (2.0 * delta)
        assert abs(fd - sequential) <= 1e-9 * abs(sequential)
    assert rep.max_rel_error <= 1e-3


def test_gradient_check_makes_one_forward_sweep_per_direction(monkeypatch):
    problem = _problem("bido2d")
    calls = []

    def counted(config, **kwargs):
        calls.append(config.I_e.data.shape[:-2])
        return forward.run_forward(config, **kwargs)

    monkeypatch.setattr(control, "run_forward", counted)
    gradient_check(problem, n_directions=3, seed=1)
    # one batch of the default ladder's 2 x 6 controls per direction; the
    # first also carries the base control
    assert calls == [(13,), (12,), (12,)]


# Entry points that read frames as ``data[k]``, each handed a batch of two
# controls (and their batched trajectory): (call, name in the message).
REJECTS = {
    "run_forward_report": (lambda p, c, t: run_forward(replace(p.config, I_e=c)), "run_forward"),
    "run_adjoint": (lambda p, c, t: run_adjoint(p.config, t, p.cost, report=False), "run_adjoint"),
    "compute_gradient": (lambda p, c, t: compute_gradient(p, c, t), "compute_gradient"),
    "projected_gradient_descent": (
        lambda p, c, t: projected_gradient_descent(replace(p, config=replace(p.config, I_e=c))),
        "projected_gradient_descent",
    ),
}


@pytest.mark.parametrize("entry", sorted(REJECTS))
def test_single_trajectory_entry_point_rejects_a_batch(entry):
    problem = _problem("bido2d")
    controls = _ladder(problem, [0.1, -0.1])
    _, traj = simulate(problem, controls)
    call, name = REJECTS[entry]
    with pytest.raises(ValueError, match=name):
        call(problem, controls, traj)


def test_field_series_batch_axes(grid2d):
    frames = (grid2d.n_steps + 1, grid2d.n_nodes)
    series = FieldSeries(grid2d, np.zeros((2, 3) + frames))
    assert series.batch_shape == (2, 3)
    assert series.n_frames == frames[0]
    assert FieldSeries.empty(grid2d, (4,)).data.shape == (4,) + frames
    assert FieldSeries.zeros(grid2d).batch_shape == ()
    with pytest.raises(ValueError, match="series shape"):
        FieldSeries(grid2d, np.zeros((2, frames[0] + 1, frames[1])))
    cfg = make_problem(grid2d)
    with pytest.raises(ValueError, match="batch axis"):
        replace(cfg, I_e=series)
    with pytest.raises(ValueError):  # batches of different sizes do not broadcast
        replace(cfg, I_i=FieldSeries(grid2d, np.zeros((2,) + frames)),
                I_e=FieldSeries(grid2d, np.zeros((3,) + frames)))


@pytest.mark.parametrize("kind", ["monodomain", "bidomain"])
def test_backward_sweep_evaluates_each_midpoint_slope_once(kind, grid2d, monkeypatch):
    # ap: one slope per step midpoint, bitwise, from the last step back to
    # the first; fhn and rm have the constant slope kappa and form no midpoint
    cost = CostConfig(mu=1e-2, w_phi=1.0, w_gate=0.5)
    n = grid2d.n_steps
    for model in ("ap", "rm", "fhn"):
        cfg = make_problem(grid2d, kind=kind, model=model, stimulus=0.3)
        traj = run_forward(cfg, report=False)
        args = []

        def recorded(ionic_params, phi):
            args.append(phi.copy())
            return gating_source_slope(ionic_params, phi)

        with monkeypatch.context() as patch:
            patch.setattr(ionic, "gating_source_slope", recorded)
            run_adjoint(cfg, traj, cost, report=False)
        if model != "ap":
            assert args == [], model
            continue
        assert len(args) == n
        phi = traj.phi_tr.data
        for k, arg in zip(range(n - 1, -1, -1), args):
            assert arg.tobytes() == (0.5 * (phi[k] + phi[k + 1])).tobytes()
