import numpy as np
import pytest
from dataclasses import replace

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.control import ControlProblem
from cardioct.forward import run_forward
from cardioct.grid import FieldSeries, Grid, refined
from cardioct.stimuli import seeded_smooth_series
from cardioct.verify import (
    _series_dual_l2_sq,
    apriori_check,
    convergence_study,
    difference_bundle,
    gradient_check,
    monodomain_limit_check,
    regularity_monitor,
    stability_experiment,
)

from conftest import identical_run_difference, make_problem


def smooth_direction(grid, seed=3, amplitude=1.0):
    return (
        FieldSeries.zeros(grid),
        seeded_smooth_series(grid, np.random.default_rng(seed), amplitude=amplitude),
    )


def test_identical_runs_differ_by_nothing(grid1d):
    assert identical_run_difference(make_problem(grid1d, stimulus=0.3)) == 0.0


def test_stability_rejects_degenerate_input(grid1d):
    cfg = make_problem(grid1d)
    zero = (FieldSeries.zeros(grid1d), FieldSeries.zeros(grid1d))
    with pytest.raises(ValueError):
        stability_experiment(cfg, zero, (0.5, 1.0))
    with pytest.raises(ValueError):
        stability_experiment(cfg, smooth_direction(grid1d), (0.0, 1.0))


def test_stability_monodomain_spread(grid1d):
    cfg = make_problem(grid1d, stimulus=0.2)
    rep = stability_experiment(cfg, smooth_direction(grid1d), (0.25, 0.5, 1.0, 2.0))
    assert rep.stable
    assert rep.spread <= 2.0
    assert len(rep.rows()) == 4
    assert all(l <= r * rep.fitted_constant * rep.spread * 1.01 for _, l, r, _ in rep.rows())


@pytest.mark.parametrize("kind", ["monodomain", "bidomain"])
def test_batched_stability_equals_one_run_per_scale(grid1d, kind):
    cfg = make_problem(grid1d, kind=kind, stimulus=0.2)
    dIi, dIe = smooth_direction(grid1d, seed=5)
    dIi = FieldSeries(grid1d, 0.5 * dIe.data[::-1])
    scales = (0.25, 0.5, 1.0)
    rep = stability_experiment(cfg, (dIi, dIe), scales)
    base = run_forward(cfg, report=False)
    for s, lhs, rhs in zip(scales, rep.lhs, rep.rhs):
        pert = run_forward(
            replace(
                cfg,
                I_i=FieldSeries(grid1d, cfg.I_i.data + s * dIi.data),
                I_e=FieldSeries(grid1d, cfg.I_e.data + s * dIe.data),
            ),
            report=False,
        )
        ref_lhs = difference_bundle(base, pert, kind)
        d_ie = FieldSeries(grid1d, pert.I_e_used.data - base.I_e_used.data)
        ref_rhs = _series_dual_l2_sq(FieldSeries(grid1d, s * dIi.data)) + _series_dual_l2_sq(d_ie)
        assert lhs == pytest.approx(ref_lhs, rel=1e-9)
        assert rhs == pytest.approx(ref_rhs, rel=1e-12)


def test_stability_lhs_scales_quadratically(grid1d):
    # halving the perturbation should quarter the squared seminorms
    cfg = make_problem(grid1d, stimulus=0.2)
    rep = stability_experiment(cfg, smooth_direction(grid1d), (0.5, 1.0))
    assert rep.lhs[1] / rep.lhs[0] == pytest.approx(4.0, rel=0.3)


def test_limit_check_rejects_bidomain_config(grid1d):
    cfg = make_problem(grid1d, kind="bidomain")
    with pytest.raises(ValueError):
        monodomain_limit_check(cfg)


def test_limit_check_tiny_for_all_lambdas(grid1d):
    for lam in (0.5, 2.0):
        cfg = make_problem(grid1d, lam=lam, stimulus=0.3)
        rep = monodomain_limit_check(cfg)
        assert rep.lam == lam
        assert rep.discrepancy < 1e-9


def test_apriori_forward_bounded(grid1d):
    cfg = make_problem(grid1d, stimulus=0.3)
    res = run_forward(cfg)
    rep = apriori_check(res, cfg)
    assert rep.rhs > 0
    assert 0 < rep.ratio < 10.0


def test_apriori_adjoint_bounded(grid1d):
    cfg = make_problem(grid1d, stimulus=0.3)
    res = run_forward(cfg, report=False)
    adj = run_adjoint(cfg, res, CostConfig(w_phi=1.0))
    rep = apriori_check(adj, cfg)
    assert rep.rhs > 0
    assert 0 < rep.ratio < 10.0


def test_apriori_ratio_stable_under_refinement(grid1d):
    cfg = make_problem(grid1d, stimulus=0.3)
    coarse = apriori_check(run_forward(cfg), cfg)
    g2 = refined(grid1d)
    cfg2 = make_problem(g2, stimulus=0.3)
    fine = apriori_check(run_forward(cfg2), cfg2)
    assert abs(fine.ratio / coarse.ratio - 1.0) <= 0.25


def test_regularity_monitor_bounded(grid1d):
    def build(g):
        return make_problem(g, stimulus=0.3)

    rep = regularity_monitor(grid1d, build)
    assert len(rep.values) == 2
    assert rep.bounded


def test_convergence_orders():
    rep = convergence_study()
    assert rep.conclusive
    assert all(1.7 <= o <= 2.3 for o in rep.spatial_orders)
    assert all(0.8 <= o <= 1.3 for o in rep.temporal_orders)


@pytest.mark.parametrize(
    "kwargs, name", [({"spatial_levels": 1}, "spatial_levels")], ids=["spatial"]
)
def test_convergence_study_needs_levels_for_one_order(kwargs, name):
    with pytest.raises(ValueError, match=name):
        convergence_study(**kwargs)


def test_gradient_check_monodomain_tight(grid1d):
    cfg = make_problem(grid1d, stimulus=0.2)
    problem = ControlProblem(config=cfg, cost=CostConfig(mu=1e-2, w_phi=1.0))
    rep = gradient_check(problem, n_directions=2, seed=0)
    assert rep.max_rel_error <= 1e-6
    assert len(rep.rel_errors) == 2


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"deltas": [1e-3]}, "deltas"),
        ({"deltas": []}, "deltas"),
        ({"n_directions": 0}, "n_directions"),
    ],
)
def test_gradient_check_rejects_a_ladder_it_cannot_judge(grid1d, kwargs, name):
    cfg = make_problem(grid1d, stimulus=0.2)
    problem = ControlProblem(config=cfg, cost=CostConfig(mu=1e-2, w_phi=1.0))
    with pytest.raises(ValueError, match=name):
        gradient_check(problem, **kwargs)


def test_gradient_check_reports_plateau(grid1d):
    cfg = make_problem(grid1d, stimulus=0.2)
    problem = ControlProblem(config=cfg, cost=CostConfig(mu=1e-2, w_phi=1.0))
    rep = gradient_check(problem, n_directions=1, seed=1)
    assert rep.deltas[0] > 0
    assert np.isfinite(rep.fd_values[0])
    assert rep.inner_products[0] == pytest.approx(rep.fd_values[0], rel=1e-5)
