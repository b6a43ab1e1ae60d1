"""Analytic initial data, stimulus windows, masks, and seeded directions.

These builders keep experiment data analytic so refinement studies can
re-evaluate the same functions on finer grids instead of interpolating.
"""

from __future__ import annotations

import numpy as np

from .grid import FieldSeries, ScalarField


def gaussian_bump(grid, center, width, amplitude=1.0):
    """exp(-sum((x_i - c_i)^2) / width^2), peak value `amplitude`."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dim:
        raise ValueError("center does not match grid dimension")
    r2 = 0.0
    for ax, mesh in enumerate(grid.meshgrid):
        r2 = r2 + (mesh - center[ax]) ** 2
    return ScalarField(grid, amplitude * np.exp(-r2 / width**2).ravel())


def time_window(grid, t0, t1, profile="smooth"):
    """Per-frame weights: 0 outside [t0, t1]; smooth sin^2 arch or flat box inside."""
    t = grid.times
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    inside = (t >= t0) & (t <= t1)
    w = np.zeros_like(t)
    if profile == "box":
        w[inside] = 1.0
    elif profile == "smooth":
        s = (t[inside] - t0) / (t1 - t0)
        w[inside] = np.sin(np.pi * s) ** 2
    else:
        raise ValueError(f"unknown time profile {profile!r}")
    return w


def pulse_series(grid, space_field, t0, t1, profile="smooth"):
    """Separable stimulus: spatial field times a time window."""
    w = time_window(grid, t0, t1, profile)
    return FieldSeries(grid, w[:, None] * space_field.values[None, :])


def box_mask(grid, lo, hi):
    """Nodal 0/1 indicator of the axis-aligned box [lo, hi]."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.size != grid.dim or hi.size != grid.dim:
        raise ValueError("box bounds do not match grid dimension")
    mask = np.ones(grid.shape, dtype=bool)
    for ax, mesh in enumerate(grid.meshgrid):
        mask &= (mesh >= lo[ax] - 1e-12) & (mesh <= hi[ax] + 1e-12)
    return mask.ravel().astype(float)


def seeded_smooth_series(grid, rng, amplitude=1.0, modes=2):
    """Random smooth space-time series from low cosine modes (deterministic).

    Spatial basis: products of cos(pi m x / L) per axis, m <= modes;
    time basis: sin(pi q t / T), q = 1..modes.  Coefficients come from
    ``rng`` in one draw, row m_tuple (C order) and column q; the result
    is rescaled to the requested max amplitude.
    """
    m = np.arange(modes + 1)
    q = np.arange(1, modes + 1)
    coef = rng.standard_normal(((modes + 1) ** grid.dim, modes))
    # contract one mode axis at a time with its axis's cosine table: no Kronecker table
    space = coef.T.reshape((modes,) + (modes + 1,) * grid.dim)
    for x, L in zip(grid.axis_coords, grid.lengths):
        space = np.tensordot(space, np.cos((np.pi * m)[:, None] * x / L), axes=(1, 0))
    time = np.sin((np.pi * q) * grid.times[:, None] / grid.T)
    data = time @ space.reshape(modes, -1)
    peak = max(data.max(), -data.min())
    if peak > 0:
        data *= amplitude / peak
    return FieldSeries(grid, data)
