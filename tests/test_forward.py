from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.forward import ProblemConfig, compatibility_enforce, run_forward
from cardioct.grid import FieldSeries, Grid, ScalarField, TensorField
from cardioct.ionic import IonicParams, gating_exact_update, i_ion
from cardioct.assembly import build_operators

from conftest import constant_field, integrate, make_problem


def test_rest_state_stays_identically_zero(grid1d):
    cfg = make_problem(grid1d, phi0_amp=0.0)
    res = run_forward(cfg)
    assert np.all(res.phi_tr.data == 0.0)
    assert np.all(res.w.data == 0.0)


def test_monodomain_matches_pointwise_recursion():
    # spatially constant data turn the PDE into the plain IMEX recursion
    g = Grid((7,), (1.0,), 0.5, 25)
    lam = 1.5
    ops = build_operators(g, TensorField.isotropic(g, 1.0), lam=lam)
    par = IonicParams("rm")
    ii, ie = 0.3, -0.2
    cfg = ProblemConfig(
        grid=g,
        ops=ops,
        ionic=par,
        kind="monodomain",
        phi0=constant_field(g, 0.4),
        w0=constant_field(g, 0.1),
        I_i=FieldSeries.constant(g, ii),
        I_e=FieldSeries.constant(g, ie),
    )
    res = run_forward(cfg, report=False)
    phi, w = 0.4, 0.1
    dt = g.dt
    for k in range(g.n_steps):
        forcing = (lam * ii - ie) / (1.0 + lam)
        phi_new = phi + dt * (forcing - i_ion(par, phi, w))
        w = gating_exact_update(par, w, phi, phi_new, dt)
        phi = phi_new
        assert np.allclose(res.phi_tr.data[k + 1], phi, atol=1e-8)
        assert np.allclose(res.w.data[k + 1], w, atol=1e-8)


@pytest.mark.parametrize("value", [-1.0, 0.0, 1.0, float("nan")])
@pytest.mark.parametrize("name", ["cg_tol", "inner_tol"])
def test_problem_config_rejects_a_tolerance_outside_0_1(grid1d, name, value):
    with pytest.raises(ValueError, match=name):
        make_problem(grid1d, **{name: value})


@pytest.mark.parametrize(
    "nodes, lengths", [((9, 9), (2.0, 5.0)), ((17, 17), (1.0, 1.0))], ids=["stretched", "finer"]
)
def test_problem_config_rejects_what_lives_on_another_grid(grid2d, nodes, lengths):
    cfg = make_problem(grid2d)
    other = Grid(nodes, lengths, grid2d.T, grid2d.n_steps)
    with pytest.raises(ValueError, match="ops lives on a different grid"):
        replace(cfg, ops=build_operators(other, TensorField.isotropic(other, 1.0)))
    for name in ("phi0", "w0"):
        with pytest.raises(ValueError, match=f"{name} lives on a different grid"):
            replace(cfg, **{name: ScalarField.zeros(other)})
    # an equal grid that is another object is the same grid
    same = Grid(grid2d.nodes_per_axis, grid2d.lengths, grid2d.T, grid2d.n_steps)
    replace(cfg, ops=build_operators(same, TensorField.isotropic(same, 1.0)))


def test_gating_reintegration_reproduces_stored_w(grid1d):
    cfg = make_problem(grid1d, model="ap", stimulus=0.4)
    res = run_forward(cfg, report=False)
    par, dt = cfg.ionic, grid1d.dt
    w = cfg.w0.values.copy()
    for k in range(grid1d.n_steps):
        w = gating_exact_update(par, w, res.phi_tr.data[k], res.phi_tr.data[k + 1], dt)
        assert np.max(np.abs(w - res.w.data[k + 1])) < 1e-12


def test_forward_report_keys(grid1d):
    res = run_forward(make_problem(grid1d, stimulus=0.3))
    for key in (
        "C0_L2_phi",
        "L2_H1_phi",
        "L4_OmegaT_phi",
        "L4_H1_phi",
        "C0_L2_w",
        "L43_dual_dphi_dt",
        "L2_dual_dw_dt",
    ):
        assert key in res.report
        assert np.isfinite(res.report[key])
    assert "L2_H1_phie" not in res.report


def test_bidomain_report_includes_phie(grid2d):
    res = run_forward(make_problem(grid2d, kind="bidomain", stimulus=0.3))
    assert "L2_H1_phie" in res.report
    assert res.phi_e is not None


def test_bidomain_gauge_every_frame(grid2d):
    cfg = make_problem(grid2d, kind="bidomain", stimulus=0.5)
    res = run_forward(cfg, report=False)
    for k in range(grid2d.n_steps + 1):
        assert abs(integrate(res.phi_e.frame(k))) < 1e-9


def test_compatibility_enforcement_shifts_ie(grid1d):
    cfg = make_problem(grid1d, kind="bidomain", stimulus=0.5)
    res = run_forward(cfg, report=False)
    used = res.I_e_used
    assert used is not None
    for k in range(grid1d.n_steps + 1):
        total = integrate(cfg.I_i.frame(k)) + integrate(used.frame(k))
        assert abs(total) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_compatibility_enforce_idempotent(seed):
    g = Grid((9,), (1.0,), 0.5, 4)
    rng = np.random.default_rng(seed)
    I_i = FieldSeries(g, rng.standard_normal((5, 9)))
    I_e = FieldSeries(g, rng.standard_normal((5, 9)))
    once = compatibility_enforce(g, I_i, I_e)
    twice = compatibility_enforce(g, I_i, once)
    assert np.allclose(once.data, twice.data, atol=1e-14)
    for k in range(5):
        assert abs(integrate(I_i.frame(k)) + integrate(once.frame(k))) < 1e-12


def test_monodomain_bidomain_agree_for_proportional_tensors(grid1d):
    lam = 2.0
    mono = make_problem(grid1d, lam=lam, stimulus=0.4)
    bi = make_problem(grid1d, kind="bidomain", me_factor=lam, lam=lam, stimulus=0.4)
    I_e = compatibility_enforce(grid1d, mono.I_i, mono.I_e)
    from dataclasses import replace

    res_m = run_forward(replace(mono, I_e=I_e), report=False)
    res_b = run_forward(replace(bi, I_e=I_e), report=False)
    assert np.max(np.abs(res_m.phi_tr.data - res_b.phi_tr.data)) < 1e-7


def test_no_reaction_heat_decay():
    # with M_i scaled by 2/pi^2 and lam = 1 the mode cos(pi x) decays like e^{-t}
    g = Grid((65,), (1.0,), 0.1, 200)
    ops = build_operators(g, TensorField.isotropic(g, 2.0 / np.pi**2), lam=1.0)
    cfg = ProblemConfig(
        grid=g,
        ops=ops,
        ionic=IonicParams("fhn"),
        kind="monodomain",
        phi0=ScalarField.from_function(g, lambda x: np.cos(np.pi * x)),
        w0=ScalarField.zeros(g),
        I_i=FieldSeries.zeros(g),
        I_e=FieldSeries.zeros(g),
        no_reaction=True,
    )
    res = run_forward(cfg, report=False)
    exact = np.exp(-g.T) * np.cos(np.pi * g.axis_coords[0])
    assert np.max(np.abs(res.phi_tr.data[-1] - exact)) < 2e-4
    assert np.all(res.w.data == 0.0)
