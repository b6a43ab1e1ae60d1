import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.adjoint import CostConfig
from cardioct.control import (
    ControlProblem,
    apply_Q,
    compute_gradient,
    control_inner,
    control_norm,
    evaluate_cost,
    project_admissible,
    projected_gradient_descent,
    random_admissible_direction,
    simulate,
)
from cardioct.forward import ForwardResult, run_forward
from cardioct.grid import FieldSeries, Grid, ScalarField
from cardioct.stimuli import box_mask, seeded_smooth_series

from conftest import constant_series, make_problem


def zero_traj(grid):
    return ForwardResult(
        phi_tr=FieldSeries.zeros(grid),
        w=FieldSeries.zeros(grid),
        report=None,
    )


def rectangle_weights(grid):
    """Left-rectangle time weights: dt on frames 0..n_steps-1, 0 at the end."""
    w = np.full(grid.n_steps + 1, grid.dt)
    w[-1] = 0.0
    return w


def test_control_inner_skips_final_frame():
    g = Grid((5,), (1.0,), 1.0, 4)
    tw = rectangle_weights(g)
    assert tw.shape == (5,)
    assert tw[-1] == 0.0
    assert tw.sum() == pytest.approx(1.0)
    ones = constant_series(g, 1.0)
    # T |Omega| = 1, and the final frame has no weight
    assert control_inner(ones, ones) == pytest.approx(1.0, rel=1e-14)
    tail = ones.copy()
    tail.data[-1] = 7.0
    assert control_inner(tail, ones) == control_inner(ones, ones)


def test_cost_of_rest_versus_unit_target():
    # J = 1/2 int_0^T int_Omega 1 dx dt = 1/2 on the unit cylinder
    g = Grid((17,), (1.0,), 1.0, 8)
    cost = CostConfig(mu=0.0, w_phi=1.0, phi_des=constant_series(g, 1.0))
    J = evaluate_cost(zero_traj(g), FieldSeries.zeros(g), cost)
    assert J == pytest.approx(0.5, rel=1e-13)


def test_cost_regularizer_masked():
    g = Grid((17,), (1.0,), 1.0, 8)
    mask = box_mask(g, (0.0,), (0.5,))
    cost = CostConfig(mu=2.0, w_phi=0.0, mask=mask)
    control = constant_series(g, 1.0)
    J = evaluate_cost(zero_traj(g), control, cost)
    # mu/2 * |box| * T with the half-weight boundary node at x = 0.5
    expected = 0.5 * 2.0 * float(g.weights @ mask)
    assert J == pytest.approx(expected, rel=1e-12)


def test_control_inner_is_an_inner_product(rng):
    g = Grid((9,), (1.0,), 1.0, 5)
    u = FieldSeries(g, rng.standard_normal((6, 9)))
    v = FieldSeries(g, rng.standard_normal((6, 9)))
    assert control_inner(u, v) == pytest.approx(control_inner(v, u), rel=1e-12)
    assert control_inner(u, u) > 0
    assert control_norm(u) == pytest.approx(np.sqrt(control_inner(u, u)), rel=1e-13)


def test_inner_and_cost_match_the_weighted_double_sum(rng):
    g = Grid((7, 5), (1.0, 0.6), 1.0, 4)
    u = FieldSeries(g, rng.standard_normal((5, g.n_nodes)))
    v = FieldSeries(g, rng.standard_normal((5, g.n_nodes)))
    tw = rectangle_weights(g)
    direct = sum(tw[k] * sum(u.data[k] * g.weights * v.data[k]) for k in range(5))
    assert control_inner(u, v) == pytest.approx(direct, rel=1e-13)
    cost = CostConfig(mu=0.3, w_phi=2.0, phi_des=v)
    traj = replace(zero_traj(g), phi_tr=u)
    J = evaluate_cost(traj, u, cost)
    dev = u.data - v.data
    direct = sum(
        tw[k] * sum(g.weights * (dev[k] ** 2 + 0.15 * u.data[k] ** 2)) for k in range(5)
    )
    assert J == pytest.approx(direct, rel=1e-13)


def test_apply_q_masks_frames(rng):
    g = Grid((17,), (1.0,), 1.0, 4)
    mask = box_mask(g, (0.25,), (0.75,))
    cost = CostConfig(mask=mask)
    s = FieldSeries(g, rng.standard_normal((5, 17)))
    q = apply_Q(s, cost, "monodomain")
    assert np.array_equal(q.data * mask, q.data)
    # idempotent
    qq = apply_Q(q, cost, "monodomain")
    assert np.allclose(qq.data, q.data, atol=1e-14)


def test_apply_q_bidomain_removes_window_mean(rng):
    g = Grid((17,), (1.0,), 1.0, 4)
    mask = box_mask(g, (0.25,), (0.75,))
    cost = CostConfig(mask=mask)
    s = FieldSeries(g, rng.standard_normal((5, 17)))
    q = apply_Q(s, cost, "bidomain")
    for k in range(5):
        assert abs(np.sum(g.weights * mask * q.data[k])) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.05, 2.0))
def test_projection_enforces_radius(seed, radius):
    g = Grid((9,), (1.0,), 0.4, 4)
    s = FieldSeries(g, np.random.default_rng(seed).standard_normal((5, 9)))
    problem = ControlProblem(
        config=make_problem(g), cost=CostConfig(), radius=radius
    )
    p = project_admissible(s, problem)
    for k in range(5):
        fr = p.frame(k)
        assert np.sqrt(g.weights @ fr.values**2) <= radius * (1 + 1e-12)
    pp = project_admissible(p, problem)
    assert np.allclose(pp.data, p.data, atol=1e-13)


@pytest.mark.parametrize(
    "kind, fields, cost, names",
    [
        ("monodomain", {"radius": 0.0}, {}, "radius"),
        ("monodomain", {"radius": -1.0}, {}, "radius"),
        ("monodomain", {"budget": -1}, {}, "budget"),
        ("monodomain", {"gtol": -1.0}, {}, "gtol"),
        ("monodomain", {"gtol": float("nan")}, {}, "gtol"),
        ("monodomain", {}, {"w_eta": 0.5}, "cost.w_eta"),
        ("monodomain", {}, {"mask": np.zeros(9)}, "cost.mask"),
        ("monodomain", {}, {"mask": np.ones(8)}, "cost.mask"),
        ("bidomain", {}, {"mask": np.eye(9)[4]}, "cost.mask"),
    ],
    ids=["radius-0", "radius-negative", "budget-negative", "gtol-negative", "gtol-nan",
         "w-eta-monodomain", "mask-empty", "mask-wrong-size", "mask-one-node-bidomain"],
)
def test_control_problem_rejects_bad_fields(kind, fields, cost, names):
    g = Grid((9,), (1.0,), 0.4, 4)
    with pytest.raises(ValueError, match=names):
        ControlProblem(config=make_problem(g, kind=kind), cost=CostConfig(**cost), **fields)


def test_control_problem_accepts_its_edge_values():
    g = Grid((9,), (1.0,), 0.4, 4)
    one_node = CostConfig(mask=np.eye(9)[4])
    ControlProblem(config=make_problem(g), cost=one_node, radius=1e-9, budget=0, gtol=0.0)
    two_nodes = CostConfig(w_eta=0.5, mask=np.eye(9)[3] + np.eye(9)[4])
    ControlProblem(config=make_problem(g, kind="bidomain"), cost=two_nodes)


def test_random_direction_unit_norm_inert_tail(rng):
    g = Grid((9,), (1.0,), 0.4, 4)
    cost = CostConfig(mask=box_mask(g, (0.0,), (0.5,)))
    problem = ControlProblem(config=make_problem(g), cost=cost)
    d = random_admissible_direction(problem, rng)
    assert control_norm(d) == pytest.approx(1.0, rel=1e-12)
    assert np.all(d.data[-1] == 0.0)


def test_gradient_without_adjoint_is_regularizer(grid1d):
    # when the trajectory already matches the target the adjoint vanishes
    # and the reduced gradient is mu times the (masked) control
    cfg = make_problem(grid1d, stimulus=0.0)
    base = run_forward(cfg, report=False)
    cost = CostConfig(mu=0.5, w_phi=1.0, phi_des=base.phi_tr)
    problem = ControlProblem(config=cfg, cost=cost)
    zero = FieldSeries.zeros(grid1d)
    _, traj = simulate(problem, zero)
    grad = compute_gradient(problem, zero, traj)
    assert np.allclose(grad.data, 0.0, atol=1e-12)


def test_descent_reduces_tracking_error(grid1d):
    cfg = make_problem(grid1d, stimulus=0.0)
    target = constant_series(grid1d, 0.05)
    cost = CostConfig(mu=1e-4, w_phi=1.0, phi_des=target)
    problem = ControlProblem(config=cfg, cost=cost, budget=8)
    res = projected_gradient_descent(problem)
    Js = [h["J"] for h in res.history]
    assert res.J < Js[0]
    assert all(b <= a + 1e-15 for a, b in zip(Js, Js[1:]))


def test_descent_recovers_zero_control(grid1d):
    cfg = make_problem(grid1d, stimulus=0.0)
    base = run_forward(cfg, report=False)
    cost = CostConfig(mu=1e-2, w_phi=1.0, phi_des=base.phi_tr)
    start = seeded_smooth_series(grid1d, np.random.default_rng(5), amplitude=0.2)
    problem = ControlProblem(config=replace(cfg, I_e=start), cost=cost, budget=40, gtol=1e-12)
    res = projected_gradient_descent(problem)
    assert control_norm(res.control) < 1e-7
    assert res.status in ("gradient", "decrease")


def test_radius_constraint_respected(grid1d):
    cfg = make_problem(grid1d, stimulus=0.0)
    target = constant_series(grid1d, 0.2)
    cost = CostConfig(mu=1e-6, w_phi=1.0, phi_des=target)
    problem = ControlProblem(config=cfg, cost=cost, radius=0.05, budget=10)
    res = projected_gradient_descent(problem)
    for k in range(grid1d.n_steps + 1):
        fr = res.control.frame(k)
        norm = np.sqrt(grid1d.weights @ fr.values**2)
        assert norm <= 0.05 * (1 + 1e-10)
