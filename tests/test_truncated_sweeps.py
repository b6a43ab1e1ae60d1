"""The optimizer's sweeps stop at the frames the reduced cost reads.

J weighs frames 0..n_steps-1 (left-rectangle rule) and the reduced
gradient reads the multipliers of frames 1..n_steps, so ``simulate``
runs n_steps - 1 forward steps and ``compute_gradient`` stops its
adjoint sweep at frame 1.  J, the gradient, the optimizer history and
the finite-difference values must equal, bitwise, those of full sweeps:
the forward over every step, the adjoint down to frame 0.  Frames a
truncated sweep does not compute are NaN, and a truncated sweep has no
norm report.
"""

from dataclasses import replace

import numpy as np
import pytest

from cardioct import adjoint, control, forward
from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.cli import main
from cardioct.control import (
    ControlProblem,
    compute_gradient,
    evaluate_cost,
    project_admissible,
    projected_gradient_descent,
    random_admissible_direction,
    reduced_gradient,
    simulate,
)
from cardioct.forward import DivergenceError, run_forward
from cardioct.grid import FieldSeries, Grid
from cardioct.stimuli import box_mask, seeded_smooth_series
from cardioct.verify import gradient_check

from conftest import constant_field, make_problem


def _problem(kind, model, n_steps, masked=False):
    g = Grid((9, 9), (1.0, 1.0), 0.3, n_steps)
    cfg = make_problem(g, kind=kind, model=model, stimulus=0.3)
    noise = seeded_smooth_series(g, np.random.default_rng(2), 0.1)
    cfg = replace(cfg, I_e=FieldSeries(g, cfg.I_e.data + noise.data))
    cost = CostConfig(
        mu=1e-2,
        w_phi=1.0,
        w_eta=0.5 if kind == "bidomain" else 0.0,
        w_gate=0.5,
        mask=box_mask(g, (0.4, 0.4), (1.0, 1.0)) if masked else None,
    )
    return ControlProblem(cfg, cost, radius=0.3 if masked else None, budget=4)


def _full_simulate(problem, control):
    """J and trajectory of a forward run over every step."""
    traj = run_forward(replace(problem.config, I_e=control), report=False)
    return evaluate_cost(traj, control, problem.cost), traj


def _full_gradient(problem, control, traj):
    """The reduced gradient from an adjoint sweep down to frame 0."""
    cfg = replace(problem.config, I_e=control)
    adj = run_adjoint(cfg, traj, problem.cost, report=False)
    return reduced_gradient(adj, cfg, problem.cost)


CASES = [
    (kind, model, n_steps, masked)
    for kind in ("monodomain", "bidomain")
    for model in ("fhn", "rm", "ap")
    for n_steps in (1, 2, 5)
    for masked in (False, True)
]


@pytest.mark.parametrize("kind, model, n_steps, masked", CASES)
def test_truncated_sweeps_equal_full_sweeps(kind, model, n_steps, masked, monkeypatch):
    problem = _problem(kind, model, n_steps, masked)
    I = project_admissible(problem.config.I_e, problem)
    J, traj = simulate(problem, I)
    J_full, traj_full = _full_simulate(problem, I)
    assert J == J_full
    grad = compute_gradient(problem, I, traj)
    assert np.array_equal(grad.data, _full_gradient(problem, I, traj_full).data)
    # a batched ladder, as gradient_check runs it
    d = random_admissible_direction(problem, np.random.default_rng(1))
    ladder = FieldSeries(I.grid, I.data + np.array([0.0, 1e-3, -1e-3])[:, None, None] * d.data)
    assert np.array_equal(simulate(problem, ladder)[0], _full_simulate(problem, ladder)[0])

    opt = projected_gradient_descent(problem)
    rep = gradient_check(problem, n_directions=2, seed=1, deltas=[4e-3, 2e-3, 1e-3])
    monkeypatch.setattr(control, "simulate", _full_simulate)
    monkeypatch.setattr(control, "compute_gradient", _full_gradient)
    monkeypatch.setattr("cardioct.verify.simulate", _full_simulate)
    monkeypatch.setattr("cardioct.verify.compute_gradient", _full_gradient)
    ref = projected_gradient_descent(problem)
    ref_rep = gradient_check(problem, n_directions=2, seed=1, deltas=[4e-3, 2e-3, 1e-3])
    assert opt.history == ref.history
    assert (opt.J, opt.grad_norm, opt.status) == (ref.J, ref.grad_norm, ref.status)
    assert np.array_equal(opt.control.data, ref.control.data)
    assert rep.fd_values == ref_rep.fd_values
    assert rep.inner_products == ref_rep.inner_products


@pytest.mark.parametrize("kind", ["monodomain", "bidomain"])
def test_uncomputed_frames_are_nan(kind):
    problem = _problem(kind, "ap", 4)
    n = problem.config.grid.n_steps
    I = problem.config.I_e
    _, traj = simulate(problem, I)
    states = [traj.phi_tr, traj.w] + ([traj.phi_e] if kind == "bidomain" else [])
    for series in states:
        assert np.isfinite(series.data[:n]).all()
        assert np.isnan(series.data[n]).all()

    adj = run_adjoint(replace(problem.config, I_e=I), traj, problem.cost, report=False,
                      lowest_frame=1)
    multipliers = [adj.p1, adj.p3] + ([adj.p2] if kind == "bidomain" else [])
    for series in multipliers:
        assert np.isnan(series.data[0]).all()
        assert np.isfinite(series.data[1:n]).all()
    assert not adj.p1.data[n].any() and not adj.p3.data[n].any()
    if kind == "bidomain":
        assert np.isnan(adj.p2.data[n]).all() and np.isnan(adj.psi_eta.data[n]).all()
        assert np.isfinite(adj.psi_eta.data[:n]).all()


def _counted_step_solves(monkeypatch):
    """Count the step solves of the forward and adjoint sweeps, by module."""
    counts = {"forward": 0, "adjoint": 0}
    for module in (forward, adjoint):
        for name in ("cg_solve", "solve_coupled_step"):
            original = getattr(module, name)

            def counted(*args, _original=original, _key=module.__name__.rpartition(".")[2],
                        **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("kind", ["monodomain", "bidomain"])
@pytest.mark.parametrize("n_steps", [1, 2, 5])
def test_step_solves_of_truncated_and_full_sweeps(kind, n_steps, monkeypatch):
    problem = _problem(kind, "ap", n_steps)
    cfg, I = problem.config, problem.config.I_e
    counts = _counted_step_solves(monkeypatch)
    _, traj = simulate(problem, I)
    compute_gradient(problem, I, traj)
    assert counts == {"forward": n_steps - 1, "adjoint": n_steps - 1}

    counts.update(forward=0, adjoint=0)
    full = run_forward(cfg)
    run_adjoint(cfg, full, problem.cost)
    assert counts == {"forward": n_steps, "adjoint": n_steps}


def test_truncation_has_no_report():
    problem = _problem("bidomain", "ap", 3)
    cfg, n = problem.config, problem.config.grid.n_steps
    with pytest.raises(ValueError, match="report=True"):
        run_forward(cfg, steps=n - 1)
    traj = run_forward(cfg, report=False)
    with pytest.raises(ValueError, match="report=True"):
        run_adjoint(cfg, traj, problem.cost, lowest_frame=1)
    for bad in (-1, n + 1):
        with pytest.raises(ValueError, match="run_forward takes"):
            run_forward(cfg, report=False, steps=bad)
        with pytest.raises(ValueError, match="run_adjoint stops"):
            run_adjoint(cfg, traj, problem.cost, report=False, lowest_frame=bad)


# An ap potential of 1e3 everywhere overflows in the cubic current of
# step 4 of 5: frames 0..3 are finite and frame 4, the last J reads, is not.
BLOW_UP = 1e3


def test_a_blow_up_in_the_last_frame_j_reads_raises():
    g = Grid((17, 17), (1.0, 1.0), 0.3, 5)
    cfg = replace(make_problem(g, model="ap"), phi0=constant_field(g, BLOW_UP))
    problem = ControlProblem(cfg, CostConfig())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="after step 4"):
            simulate(problem, cfg.I_e)
        # the full run meets it in the load of step 5, which reads frame 4
        with pytest.raises(DivergenceError, match="load at step 5"):
            run_forward(cfg, report=False)


@pytest.mark.parametrize("command", ["optimize", "gradcheck"])
def test_cli_exits_3_on_a_blow_up_in_the_last_frame_j_reads(command, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(
        "[grid]\ndim = 2\nnodes = 17\nt_final = 0.3\nsteps = 5\n"
        "[model]\nkind = ap\n"
        f"[stimulus]\nphi0_amplitude = {BLOW_UP}\nphi0_width = 10.0\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "non-finite state after step 4" in capsys.readouterr().err
