import tracemalloc
from itertools import product

import numpy as np
import pytest

from cardioct.forward import run_forward
from cardioct.grid import Grid
from cardioct.stimuli import (
    box_mask,
    gaussian_bump,
    pulse_series,
    seeded_smooth_series,
    time_window,
)

from conftest import make_problem

# 1-D, 2-D and 3-D grids, with a 2-node axis and unequal lengths
GRIDS = [((9,), (2.0,)), ((9, 6), (1.0, 0.3)), ((5, 2, 4), (1.0, 0.3, 2.0)), ((7, 6, 5), (1.0,) * 3)]


def _loop_series(grid, rng, amplitude=1.0, modes=2):
    """Reference: one scalar draw and one rank-one update per (mode tuple, q)."""
    t = grid.times
    data = np.zeros((grid.n_steps + 1, grid.n_nodes))
    for m_tuple in product(range(modes + 1), repeat=grid.dim):
        basis = np.ones(grid.nodes_per_axis)
        for ax, m in enumerate(m_tuple):
            basis = basis * np.cos(np.pi * m * grid.meshgrid[ax] / grid.lengths[ax])
        flat = basis.ravel()
        for q in range(1, modes + 1):
            coef = rng.standard_normal()
            data += coef * np.outer(np.sin(np.pi * q * t / grid.T), flat)
    peak = np.max(np.abs(data))
    if peak > 0:
        data *= amplitude / peak
    return data


@pytest.mark.parametrize(
    "nodes, lengths, modes",
    [((9,), (2.0,), 2), ((9, 6), (1.0, 0.3), 3), ((5, 2, 4), (1.0, 0.3, 2.0), 2)],
)
def test_seeded_series_matches_the_scalar_loop(nodes, lengths, modes):
    g = Grid(nodes, lengths, 0.7, 6)
    rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    got = seeded_smooth_series(g, rng, 0.4, modes).data
    ref = _loop_series(g, rng_ref, 0.4, modes)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the draws consumed the same stream
    assert rng.standard_normal() == rng_ref.standard_normal()


def test_seeded_series_peaks_near_its_output():
    # 7 frames at 25^3: no (3^d, N) Kronecker table of the cosine modes is made
    g = Grid((25,) * 3, (1.0,) * 3, 1.0, 6)
    tracemalloc.start()
    try:
        series = seeded_smooth_series(g, np.random.default_rng(0), 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.data.shape == (7, g.n_nodes)
    assert peak <= 3 * series.data.nbytes


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_gaussian_bump_matches_the_meshgrid_formula(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 2)
    center = np.array([0.3, 0.2, 1.1][: g.dim])
    r2 = sum((mesh - c) ** 2 for mesh, c in zip(g.meshgrid, center))
    ref = (0.8 * np.exp(-r2 / 0.4**2)).ravel()
    got = gaussian_bump(g, center, 0.4, 0.8).values
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("nodes, lengths", GRIDS)
def test_box_mask_matches_the_meshgrid_formula(nodes, lengths):
    g = Grid(nodes, lengths, 1.0, 2)
    # lo lies 5e-13 above node 1, which the 1e-12 margin keeps inside; hi falls
    # between nodes, or on the last node of a 2-node axis
    lo = np.array(g.h) + 5e-13
    hi = np.where(np.array(nodes) > 2, 0.7 * np.array(lengths), lengths)
    mask = np.ones(g.nodes_per_axis, dtype=bool)
    for mesh, a, b in zip(g.meshgrid, lo, hi):
        mask &= (mesh >= a - 1e-12) & (mesh <= b + 1e-12)
    ref = mask.ravel().astype(float)
    got = box_mask(g, lo, hi)
    assert got.any()
    assert np.array_equal(got, ref)
    assert np.array_equal(box_mask(g, np.zeros(g.dim), g.lengths), np.ones(g.n_nodes))
    assert not box_mask(g, np.full(g.dim, 2e-12), g.lengths)[0]


def test_set_up_and_a_first_run_build_no_node_coordinates():
    # the builders and the first solve read grid.axis_coords only
    g = Grid((9, 7, 5), (1.0, 0.8, 0.6), 0.5, 3)
    cfg = make_problem(g, model="ap", stimulus=0.4)
    box_mask(g, (0.2, 0.2, 0.2), (0.6, 0.6, 0.6))
    pulse_series(g, gaussian_bump(g, (0.5, 0.4, 0.3), 0.2), 0.0, 0.25, "box")
    seeded_smooth_series(g, np.random.default_rng(0), 0.1)
    run_forward(cfg)
    assert "meshgrid" not in g.__dict__
    assert "coords" not in g.__dict__


def test_gaussian_bump_peaks_near_its_output():
    g = Grid((25,) * 3, (1.0,) * 3, 1.0, 6)
    tracemalloc.start()
    try:
        bump = gaussian_bump(g, (0.3, 0.3, 0.3), 0.15, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * bump.values.nbytes


@pytest.mark.parametrize("width", [0.0, -0.1, float("nan")])
def test_gaussian_bump_rejects_a_width_that_is_not_positive(width):
    # exp(-d^2 / 0) is 0 away from the center: a zero width would give a silent zero bump
    g = Grid((9,), (1.0,), 1.0, 4)
    with pytest.raises(ValueError, match="width"):
        gaussian_bump(g, (0.3,), width)


@pytest.mark.parametrize(
    "t0, t1", [(0.6, 0.2), (0.3, 0.3), (0.0, float("nan")), (float("nan"), 0.5)]
)
def test_time_window_rejects_an_empty_or_nan_window(t0, t1):
    # a NaN bound compares false everywhere: it would give a silent zero window
    g = Grid((9,), (1.0,), 1.0, 4)
    with pytest.raises(ValueError, match="t1 > t0"):
        time_window(g, t0, t1)
