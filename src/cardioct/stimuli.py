"""Analytic initial data, stimulus windows, masks, and seeded directions.

These builders keep experiment data analytic so refinement studies can
re-evaluate the same functions on finer grids instead of interpolating.
The spatial builders are separable: each evaluates one factor per axis
on ``grid.axis_coords`` and writes the nodal field as their outer
product, so none builds a node-sized coordinate array.
``seeded_smooth_series`` contracts its time table into the
coefficients first, so that its last per-axis contraction writes the
output.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .grid import FieldSeries, ScalarField

SMOOTH_MODES = 2  # the highest mode per axis and in time of ``seeded_smooth_series``


def _outer(factors):
    """Nodal values, C order, of the product of one 1-D factor per axis."""
    return reduce(np.multiply.outer, factors).ravel()


def gaussian_bump(grid, center, width, amplitude=1.0):
    """exp(-sum((x_i - c_i)^2) / width^2), peak value `amplitude`.

    Built as the outer product of the per-axis factors
    exp(-(x_i - c_i)^2 / width^2), the first scaled by ``amplitude``.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dim:
        raise ValueError("center does not match grid dimension")
    if not width > 0:
        raise ValueError(f"bump width must be positive, not {width}")
    factors = [np.exp(-((x - c) ** 2) / width**2) for x, c in zip(grid.axis_coords, center)]
    factors[0] *= amplitude
    return ScalarField(grid, _outer(factors))


def time_window(grid, t0, t1, profile="smooth"):
    """Per-frame weights: 0 outside [t0, t1]; smooth sin^2 arch or flat box inside."""
    t = grid.times
    if not t1 > t0:  # also rejects a NaN bound, which would zero the window
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
    """Nodal 0/1 indicator of the axis-aligned box [lo, hi], bounds widened by 1e-12.

    The outer product of the per-axis 0/1 indicators of [lo_i, hi_i].
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.size != grid.dim or hi.size != grid.dim:
        raise ValueError("box bounds do not match grid dimension")
    return _outer(
        ((x >= a - 1e-12) & (x <= b + 1e-12)).astype(float)
        for x, a, b in zip(grid.axis_coords, lo, hi)
    )


def seeded_smooth_series(grid, rng, amplitude=1.0):
    """Random smooth space-time series from low cosine modes (deterministic).

    Spatial basis: products of cos(pi m x / L) per axis, m <= SMOOTH_MODES;
    time basis: sin(pi q t / T), q = 1..SMOOTH_MODES.  Coefficients come from
    ``rng`` in one draw, row m_tuple (C order) and column q; the result
    is rescaled to the requested max amplitude.
    """
    m = np.arange(SMOOTH_MODES + 1)
    q = np.arange(1, SMOOTH_MODES + 1)
    coef = rng.standard_normal((len(m) ** grid.dim, len(q)))
    time = np.sin((np.pi * q) * grid.times[:, None] / grid.T)
    # the time table first, then one mode axis at a time with its axis's cosine
    # table: no Kronecker table, and the last contraction writes the output
    data = (time @ coef.T).reshape((-1,) + (len(m),) * grid.dim)
    for x, L in zip(grid.axis_coords, grid.lengths):
        data = np.tensordot(data, np.cos((np.pi * m)[:, None] * x / L), axes=(1, 0))
    data = data.reshape(len(time), -1)
    peak = max(data.max(), -data.min())
    if peak > 0:
        data *= amplitude / peak
    return FieldSeries(grid, data)
