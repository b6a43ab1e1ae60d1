"""The spectral H1 and dual norms against their direct definitions."""

import numpy as np
import pytest

from conftest import h1_norm, make_problem, values_nd
from cardioct import grid as gridmod
from cardioct.adjoint import CostConfig, adjoint_report, run_adjoint
from cardioct.assembly import assemble_stiffness
from cardioct.forward import forward_report, run_forward
from cardioct.verify import _w12_l2_sq
from cardioct.grid import (
    FieldSeries,
    Grid,
    ScalarField,
    TensorField,
    bochner_norm,
    dual_frame_norms,
    dual_norm,
    frame_blocks,
    time_weights,
)

# unequal lengths and node counts, one axis with only two nodes
GRIDS = [
    ((33,), (1.3,)),
    ((2,), (0.4,)),
    ((9, 13), (1.0, 2.5)),
    ((7, 2), (0.6, 1.1)),
    ((6, 5, 4), (1.0, 2.0, 0.5)),
    ((5, 2, 7), (0.8, 0.3, 1.7)),
]


def _grad_sq_integral(fld):
    """Integral of |grad field|^2 from cell-centered axis differences."""
    g = fld.grid
    v = values_nd(fld)
    total = 0.0
    for axis in range(g.dim):
        d = np.diff(v, axis=axis) / g.h[axis]
        for other in range(g.dim):
            if other == axis:
                continue
            sl_lo = [slice(None)] * g.dim
            sl_hi = [slice(None)] * g.dim
            sl_lo[other] = slice(None, -1)
            sl_hi[other] = slice(1, None)
            d = 0.5 * (d[tuple(sl_lo)] + d[tuple(sl_hi)])
        total += g.cell_volume * float(np.sum(d * d))
    return total


def _h1_direct(fld):
    v = fld.values
    return np.sqrt(fld.grid.weights @ (v * v) + _grad_sq_integral(fld))


def _series(g, seed):
    rng = np.random.default_rng(seed)
    return FieldSeries(g, rng.standard_normal((g.n_steps + 1, g.n_nodes)))


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_h1_norm_matches_cell_differences(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 4)
    s = _series(g, 5)
    per_frame = np.array([_h1_direct(s.frame(k)) for k in range(s.n_frames)])
    for k in range(s.n_frames):
        assert h1_norm(s.frame(k)) == pytest.approx(per_frame[k], rel=1e-13)
    tw = time_weights(g)
    for p in (2, 4):
        direct = (tw @ per_frame**p) ** (1.0 / p)
        assert bochner_norm(s, p, "H1") == pytest.approx(direct, rel=1e-13)
    assert bochner_norm(s, np.inf, "H1") == pytest.approx(per_frame.max(), rel=1e-13)


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_dual_norm_matches_riesz_solve(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 1)
    R = assemble_stiffness(TensorField.isotropic(g, 1.0)).toarray() + np.diag(g.weights)
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = ScalarField(g, rng.standard_normal(g.n_nodes))
        load = g.weights * f.values
        direct = np.sqrt(load @ np.linalg.solve(R, load))
        assert dual_norm(f) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_batched_transform_equals_per_frame(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 3)
    data = _series(g, 11).data
    basis = g.spectral
    batched = basis.transform(data)
    assert batched.shape == data.shape
    for k, row in enumerate(data):
        single = basis.transform(row.reshape(nodes))
        assert single.shape == nodes
        assert np.abs(batched[k] - single.ravel()).max() <= 1e-14 * np.abs(single).max()
    stacked = basis.transform(data.reshape((2, -1) + nodes))
    assert np.array_equal(stacked.reshape(data.shape), batched)


@pytest.mark.parametrize("kind, grid", [
    ("monodomain", Grid((17,), (1.0,), 0.3, 6)),
    ("bidomain", Grid((9, 7), (1.0, 0.8), 0.2, 4)),
])
def test_report_rates_match_frame_by_frame_dual_norms(kind, grid):
    cfg = make_problem(grid, kind=kind, stimulus=2.0)
    res = run_forward(cfg)
    dt = grid.dt

    def rates(series):
        return np.array([
            dual_norm(ScalarField(grid, (series.data[k + 1] - series.data[k]) / dt))
            for k in range(grid.n_steps)
        ])

    dphi, dw = rates(res.phi_tr), rates(res.w)
    assert res.report["L43_dual_dphi_dt"] == pytest.approx(
        (dt * np.sum(dphi ** (4.0 / 3.0))) ** 0.75, rel=1e-12
    )
    assert res.report["L2_dual_dw_dt"] == pytest.approx(
        np.sqrt(dt * np.sum(dw**2)), rel=1e-12
    )


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_weighted_transform_equals_transform_of_weighted_series(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 3)
    data = _series(g, 13).data
    plain = g.spectral.transform(data * g.weights)
    for x in (data, data.reshape((-1,) + nodes), data[1]):
        folded = g.spectral.coefficients(x)
        assert folded.shape == x.shape
        expected = plain.reshape(x.shape) if x.ndim > 1 else plain[1]
        assert np.abs(folded - expected).max() <= 1e-14 * np.abs(expected).max()


REPORT_CASES = [
    ("monodomain", Grid((17,), (1.0,), 0.3, 6)),
    ("monodomain", Grid((6, 5, 4), (1.0, 2.0, 0.5), 0.2, 4)),
    ("bidomain", Grid((9, 7), (1.0, 0.8), 0.2, 4)),
]


@pytest.mark.parametrize("kind, grid", REPORT_CASES)
def test_forward_report_matches_plain_formulas(kind, grid):
    cfg = make_problem(grid, kind=kind, stimulus=2.0)
    res = run_forward(cfg)
    dt, w = grid.dt, grid.weights
    tw = time_weights(grid)
    R = assemble_stiffness(TensorField.isotropic(grid, 1.0)).toarray() + np.diag(w)

    def l2(v):
        return np.sqrt(np.sum(w * v * v))

    def dual(v):
        load = w * v
        return np.sqrt(load @ np.linalg.solve(R, load))

    def frames(series, norm):
        return np.array([norm(v) for v in series.data])

    def rates(series):
        return np.array([dual((b - a) / dt) for a, b in zip(series.data[:-1], series.data[1:])])

    phi = res.phi_tr
    h1 = np.array([_h1_direct(phi.frame(k)) for k in range(phi.n_frames)])
    expected = {
        "C0_L2_phi": frames(phi, l2).max(),
        "L2_H1_phi": np.sqrt(tw @ h1**2),
        "L4_OmegaT_phi": np.sum(tw * frames(phi, lambda v: np.sum(w * v**4))) ** 0.25,
        "L4_H1_phi": (tw @ h1**4) ** 0.25,
        "C0_L2_w": frames(res.w, l2).max(),
        "L43_dual_dphi_dt": (dt * np.sum(rates(phi) ** (4.0 / 3.0))) ** 0.75,
        "L2_dual_dw_dt": np.sqrt(dt * np.sum(rates(res.w) ** 2)),
    }
    if kind == "bidomain":
        h1_e = np.array([_h1_direct(res.phi_e.frame(k)) for k in range(phi.n_frames)])
        expected["L2_H1_phie"] = np.sqrt(tw @ h1_e**2)
    assert set(res.report) == set(expected)
    for key, value in expected.items():
        assert res.report[key] == pytest.approx(value, rel=1e-13), key


@pytest.mark.parametrize("frames_per_block", [2, 3])
@pytest.mark.parametrize("kind, grid", REPORT_CASES)
def test_norms_over_blocks_equal_one_block(monkeypatch, kind, grid, frames_per_block):
    # blocks that do not divide the frame count, so the last one is short
    # and the report's rates cross every block boundary
    cfg = make_problem(grid, kind=kind, stimulus=2.0)
    res = run_forward(cfg, report=False)
    bidomain = kind == "bidomain"
    target = FieldSeries(grid, 0.5 * res.phi_tr.data)
    cost = CostConfig(w_phi=1.0, w_gate=0.5, w_eta=0.5 if bidomain else 0.0, phi_des=target)
    adj = run_adjoint(cfg, res, cost, report=False)

    def norms():
        phi = res.phi_tr
        return {
            **forward_report(cfg, phi, res.w, res.phi_e),
            **adjoint_report(adj.p1, adj.p3, adj.p2, cost, res),
            "L2_L2": bochner_norm(phi, 2, "L2"),
            "C0_L2": bochner_norm(phi, np.inf, "L2"),
            "L2_H1": bochner_norm(phi, 2, "H1"),
            "L4_H1": bochner_norm(phi, 4, "H1"),
            "W12_L2_w": _w12_l2_sq(res.w),
            **{f"dual_{k}": v for k, v in enumerate(dual_frame_norms(phi))},
        }

    n_frames = grid.n_steps + 1
    monkeypatch.setattr(gridmod, "NORM_BLOCK_VALUES", n_frames * grid.n_nodes)
    assert len(frame_blocks(n_frames, grid.n_nodes, gridmod.NORM_BLOCK_VALUES)) == 1
    whole = norms()
    monkeypatch.setattr(gridmod, "NORM_BLOCK_VALUES", frames_per_block * grid.n_nodes + 1)
    blocks = frame_blocks(n_frames, grid.n_nodes, gridmod.NORM_BLOCK_VALUES)
    assert [b.stop - b.start for b in blocks[:-1]] == [frames_per_block] * (len(blocks) - 1)
    assert n_frames % frames_per_block != 0 and blocks[-1].stop > n_frames
    split = norms()
    assert set(split) == set(whole)
    for key, value in whole.items():
        assert split[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
