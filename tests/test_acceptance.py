"""Acceptance gate: the headline guarantees at fixed scales and tolerances.

Each test prints one [PASS]/[FAIL] line with its wall time (visible
under ``pytest -s``); assertions carry the same tolerances, so the
suite is the machine-checked version of that summary.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.assembly import CompatibilityError, build_operators, solve_coupled_step
from cardioct.control import (
    ControlProblem,
    control_norm,
    projected_gradient_descent,
)
from cardioct.forward import ProblemConfig, run_forward
from cardioct.grid import FieldSeries, Grid, ScalarField, TensorField, refined
from cardioct.ionic import (
    IonicParams,
    d_i_ion,
    gating_exact_update,
    i_ion,
)
from cardioct.stimuli import gaussian_bump, pulse_series, seeded_smooth_series
from cardioct.verify import (
    apriori_check,
    convergence_study,
    gradient_check,
    monodomain_limit_check,
    stability_experiment,
)

from conftest import integrate, make_problem


class stopwatch:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def report(self, ok, detail=""):
        dt = time.perf_counter() - self.t0
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {self.label}: {detail} ({dt:.1f}s)")
        return dt

    def __exit__(self, *exc):
        return False


def test_01_rest_state_is_exactly_preserved():
    with stopwatch("rest state") as sw:
        g = Grid((33,), (1.0,), 0.5, 50)
        ok = True
        for kind in ("monodomain", "bidomain"):
            for model in ("fhn", "rm", "ap"):
                cfg = make_problem(g, kind=kind, model=model, phi0_amp=0.0)
                res = run_forward(cfg, report=False)
                ok &= bool(np.all(res.phi_tr.data == 0.0))
                ok &= bool(np.all(res.w.data == 0.0))
                if kind == "bidomain":
                    ok &= bool(np.all(res.phi_e.data == 0.0))
        sw.report(ok, "all six model/system pairs stay bit-zero")
    assert ok


def test_02_gating_reintegration_matches_stored_w():
    with stopwatch("gating representation") as sw:
        g = Grid((33,), (1.0,), 1.0, 100)
        cfg = make_problem(g, model="ap", stimulus=0.4)
        res = run_forward(cfg, report=False)
        w = cfg.w0.values.copy()
        worst = 0.0
        for k in range(g.n_steps):
            w = gating_exact_update(
                cfg.ionic, w, res.phi_tr.data[k], res.phi_tr.data[k + 1], g.dt
            )
            worst = max(worst, float(np.max(np.abs(w - res.w.data[k + 1]))))
        ok = worst <= 1e-12
        sw.report(ok, f"100-step re-integration error {worst:.2e} <= 1e-12")
    assert ok


def test_03_cubic_difference_identity():
    with stopwatch("cubic difference identity") as sw:
        rng = np.random.default_rng(42)
        a = rng.uniform(0.05, 0.95, 10_000)
        p1 = rng.uniform(-5.0, 5.0, 10_000)
        p2 = rng.uniform(-5.0, 5.0, 10_000)

        def cubic(a, p):
            return p**3 - (a + 1.0) * p**2 + a * p

        lhs = cubic(a, p1) - cubic(a, p2)
        rhs = (p1 - p2) * (
            p1**2 + p1 * p2 + p2**2 - (a + 1.0) * (p1 + p2) + a
        )
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        worst = float(np.max(np.abs(lhs - rhs) / scale))
        ok = worst <= 1e-12
        sw.report(ok, f"worst of 1e4 random triples {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_04_monodomain_limit():
    with stopwatch("monodomain limit") as sw:
        g = Grid((33, 33), (1.0, 1.0), 0.5, 100)
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            cfg = make_problem(g, lam=lam, stimulus=0.3)
            rep = monodomain_limit_check(cfg)
            worst = max(worst, rep.discrepancy)
        elapsed = time.perf_counter() - sw.t0
        ok = worst <= 1e-8 and elapsed < 30.0
        sw.report(ok, f"worst discrepancy {worst:.2e} <= 1e-8 over lam in {{0.5,1,2}}")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_05_stability_constant_spread():
    with stopwatch("stability estimate") as sw:
        g = Grid((65,), (1.0,), 0.5, 40)
        worst = 0.0
        for kind in ("monodomain", "bidomain"):
            for model in ("fhn", "rm", "ap"):
                cfg = make_problem(g, kind=kind, model=model, stimulus=0.2)
                direction = (
                    FieldSeries.zeros(g),
                    seeded_smooth_series(g, np.random.default_rng(3)),
                )
                rep = stability_experiment(cfg, direction, (0.25, 0.5, 1.0, 2.0))
                worst = max(worst, rep.spread)
        elapsed = time.perf_counter() - sw.t0
        ok = worst <= 2.0 and elapsed < 60.0
        sw.report(ok, f"worst max/median ratio spread {worst:.3f} <= 2")
    assert worst <= 2.0
    assert elapsed < 60.0


def test_06_reaction_derivatives_consistent():
    with stopwatch("reaction derivatives") as sw:
        rng = np.random.default_rng(7)
        phi = rng.uniform(-2.0, 3.0, 1000)
        w = rng.uniform(-1.0, 1.0, 1000)
        h = 1e-5
        worst = 0.0
        for kind in ("fhn", "rm", "ap"):
            par = IonicParams(kind)
            dphi, dw = d_i_ion(par, phi, w)
            fd_phi = (i_ion(par, phi + h, w) - i_ion(par, phi - h, w)) / (2 * h)
            fd_w = (i_ion(par, phi, w + h) - i_ion(par, phi, w - h)) / (2 * h)
            for exact, approx in ((dphi, fd_phi), (dw, fd_w)):
                err = np.max(np.abs(exact - approx) / (1.0 + np.abs(approx)))
                worst = max(worst, float(err))
        ok = worst <= 1e-6
        sw.report(ok, f"worst scaled error over 1e3 samples {worst:.2e} <= 1e-6")
    assert worst <= 1e-6


def test_07_gradient_check_both_systems():
    with stopwatch("adjoint gradient check") as sw:
        g1 = Grid((65,), (1.0,), 0.5, 40)
        mono = ControlProblem(
            config=make_problem(g1, model="rm", stimulus=0.2),
            cost=CostConfig(mu=1e-2, w_phi=1.0),
        )
        rep1 = gradient_check(mono, n_directions=5, seed=0)

        g2 = Grid((17, 17), (1.0, 1.0), 0.3, 20)
        bi = ControlProblem(
            config=make_problem(g2, kind="bidomain", model="ap", stimulus=0.2),
            cost=CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5),
        )
        rep2 = gradient_check(bi, n_directions=5, seed=1)
        elapsed = time.perf_counter() - sw.t0
        ok = rep1.max_rel_error <= 1e-4 and rep2.max_rel_error <= 1e-3 and elapsed < 120.0
        sw.report(
            ok,
            f"monodomain {rep1.max_rel_error:.2e} <= 1e-4, "
            f"bidomain {rep2.max_rel_error:.2e} <= 1e-3",
        )
    assert rep1.max_rel_error <= 1e-4
    assert rep2.max_rel_error <= 1e-3
    assert elapsed < 120.0


def test_08_optimizer_recovers_uncontrolled_target():
    with stopwatch("optimizer sanity") as sw:
        g = Grid((33,), (1.0,), 0.4, 20)
        cfg = make_problem(g, model="rm")
        base = run_forward(cfg, report=False)
        cost = CostConfig(mu=1e-2, w_phi=1.0, phi_des=base.phi_tr)
        start = seeded_smooth_series(g, np.random.default_rng(5), amplitude=0.3)
        problem = ControlProblem(
            config=replace(cfg, I_e=start), cost=cost, budget=60, gtol=1e-12
        )
        res = projected_gradient_descent(problem)
        Js = [h["J"] for h in res.history]
        monotone = all(b <= a + 1e-15 for a, b in zip(Js, Js[1:]))
        nrm = control_norm(res.control)
        ok = nrm <= 1e-6 and monotone
        sw.report(ok, f"recovered ||I_e|| = {nrm:.2e} <= 1e-6, J history monotone")
    assert nrm <= 1e-6
    assert monotone


def test_09_convergence_orders():
    with stopwatch("convergence orders") as sw:
        rep = convergence_study()
        ok = (
            rep.conclusive
            and all(1.7 <= o <= 2.3 for o in rep.spatial_orders)
            and all(0.8 <= o <= 1.3 for o in rep.temporal_orders)
        )
        sw.report(
            ok,
            f"spatial {[f'{o:.2f}' for o in rep.spatial_orders]} in [1.7,2.3], "
            f"temporal {[f'{o:.2f}' for o in rep.temporal_orders]} in [0.8,1.3]",
        )
    assert ok


def test_10_apriori_ratios_stable_under_refinement():
    with stopwatch("a-priori estimates") as sw:
        g = Grid((33,), (1.0,), 0.4, 20)

        def build(grid, scale=1.0):
            cfg = make_problem(grid, stimulus=0.3)
            return replace(
                cfg,
                phi0=ScalarField(grid, scale * cfg.phi0.values),
                I_e=FieldSeries(grid, scale * cfg.I_e.data),
            )

        cfg = build(g)
        fwd = run_forward(cfg)
        fr = apriori_check(fwd, cfg)
        adj = run_adjoint(cfg, fwd, CostConfig(w_phi=1.0))
        ar = apriori_check(adj, cfg)

        g2 = refined(g)
        cfg2 = build(g2)
        fwd2 = run_forward(cfg2)
        fr2 = apriori_check(fwd2, cfg2)
        adj2 = run_adjoint(cfg2, fwd2, CostConfig(w_phi=1.0))
        ar2 = apriori_check(adj2, cfg2)

        drift_f = abs(fr2.ratio / fr.ratio - 1.0)
        drift_a = abs(ar2.ratio / ar.ratio - 1.0)
        ok = drift_f <= 0.25 and drift_a <= 0.25

        # data-scaling behaviour is reported, not asserted: the forward
        # bound has an O(1) floor, so the quotient genuinely moves
        scaling = []
        for s in (1.0, 2.0, 4.0):
            cfgs = build(g, scale=s)
            scaling.append(apriori_check(run_forward(cfgs), cfgs).ratio)
        sw.report(
            ok,
            f"refinement drift fwd {drift_f:.1%} adj {drift_a:.1%} <= 25%; "
            f"scaling ratios {[f'{r:.3f}' for r in scaling]} (informational)",
        )
    assert drift_f <= 0.25
    assert drift_a <= 0.25


def test_11_gauge_and_compatibility():
    with stopwatch("gauge and compatibility") as sw:
        g = Grid((17, 17), (1.0, 1.0), 0.3, 30)
        cfg = make_problem(g, kind="bidomain", stimulus=0.5)
        res = run_forward(cfg, report=False)
        gauge = max(
            abs(integrate(res.phi_e.frame(k))) for k in range(g.n_steps + 1)
        )
        compat = max(
            abs(integrate(cfg.I_i.frame(k)) + integrate(res.I_e_used.frame(k)))
            for k in range(g.n_steps + 1)
        )
        # a step whose psi row carries an incompatible load is rejected
        incompatible = cfg.ops.mass * cfg.I_e.data[g.n_steps // 4]
        raised = False
        try:
            solve_coupled_step(cfg.ops, np.zeros(g.n_nodes), incompatible, tol=cfg.cg_tol)
        except CompatibilityError:
            raised = True
        ok = gauge <= 1e-9 and compat <= 1e-12 and raised
        sw.report(
            ok,
            f"max |int phi_e| = {gauge:.2e}, max stimulus imbalance = {compat:.2e}, "
            f"incompatible step load rejected",
        )
    assert gauge <= 1e-9
    assert compat <= 1e-12
    assert raised
