import tracemalloc
from itertools import product

import numpy as np
import pytest

from cardioct.grid import Grid
from cardioct.stimuli import seeded_smooth_series


def _loop_series(grid, rng, amplitude=1.0, modes=2):
    """Reference: one scalar draw and one rank-one update per (mode tuple, q)."""
    t = grid.times
    data = np.zeros((grid.n_steps + 1, grid.n_nodes))
    for m_tuple in product(range(modes + 1), repeat=grid.dim):
        basis = np.ones(grid.shape)
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
