"""Structured space-time grids, nodal fields, norms, and snapshot output.

Everything lives on axis-aligned tensor-product grids (1-D intervals,
2-D rectangles, 3-D boxes) with a uniform time axis.  Spatial integrals
use the tensor-trapezoid rule; its weights double as the lumped mass
matrix, so the L2 norms and the mass operator agree on what volume
means.  Time integrals in the Bochner norms use the trapezoid rule
over the stored frames.

The H1 norm is the lumped L2 part plus a cell-difference quadrature
of |grad u|^2.  The dual norm is a discrete surrogate for the
(W^{1,2})* norm: the load is paired through the lumped weights and
measured against the Riesz operator K + M (identity-tensor stiffness
plus lumped mass).  Both are diagonal in the grid's DCT-I basis
(``Grid.spectral``), so they are weighted sums of squares of the
coefficients V^T W x (``SpectralBasis.coefficients``), with no linear
solve.  The trapezoid weights are separable, so that transform carries
them in its per-axis cosine matrices and reads each frame once.

The norms of a series are taken over blocks of consecutive frames
(``frame_blocks``), one batched transform per block.  A block holds at
most ``NORM_BLOCK_VALUES`` values and at least one frame, so its
temporaries stay in cache: one frame per block at 25^3 and 129^2,
three at 65^2, and the whole series on a small 1-D grid, where one
transform of all frames is the cheapest.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .spectral import SpectralBasis

MAGIC = b"BDMF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4s5IQ")  # magic, version, dim, n0, n1, n2, frames


def _as_tuple(value, kind=float):
    if np.isscalar(value):
        return (kind(value),)
    return tuple(kind(v) for v in value)


@dataclass
class Grid:
    """Axis-aligned box grid with nodes at cell corners, plus a time axis.

    Parameters
    ----------
    nodes_per_axis : int or tuple of int
        Node count along each axis (>= 2).
    lengths : float or tuple of float
        Physical extent along each axis.
    T : float
        Final time.
    n_steps : int
        Number of uniform time steps; trajectories store n_steps + 1 frames.
    """

    nodes_per_axis: tuple[int, ...]
    lengths: tuple[float, ...]
    T: float
    n_steps: int

    def __post_init__(self):
        self.nodes_per_axis = _as_tuple(self.nodes_per_axis, int)
        self.lengths = _as_tuple(self.lengths, float)
        if len(self.nodes_per_axis) != len(self.lengths):
            raise ValueError("nodes_per_axis and lengths disagree on dimension")
        if not 1 <= len(self.nodes_per_axis) <= 3:
            raise ValueError("only 1-D, 2-D and 3-D grids are supported")
        if any(n < 2 for n in self.nodes_per_axis):
            raise ValueError("need at least two nodes per axis")
        if not all(0 < L < np.inf for L in self.lengths):
            raise ValueError("lengths must be finite and positive")
        if not 0 < self.T < np.inf or self.n_steps < 1:
            raise ValueError("T must be finite and positive, and n_steps at least 1")
        self.T = float(self.T)
        self.n_steps = int(self.n_steps)

    @property
    def dim(self):
        return len(self.nodes_per_axis)

    @cached_property
    def h(self):
        return tuple(L / (n - 1) for L, n in zip(self.lengths, self.nodes_per_axis))

    @property
    def dt(self):
        return self.T / self.n_steps

    @cached_property
    def n_nodes(self):
        return int(np.prod(self.nodes_per_axis))

    @cached_property
    def n_cells(self):
        return int(np.prod([n - 1 for n in self.nodes_per_axis]))

    @cached_property
    def cell_volume(self):
        return float(np.prod(self.h))

    @cached_property
    def measure(self):
        return float(np.prod(self.lengths))

    @cached_property
    def axis_coords(self):
        return tuple(
            np.linspace(0.0, L, n) for L, n in zip(self.lengths, self.nodes_per_axis)
        )

    @cached_property
    def weights(self):
        """Tensor-trapezoid quadrature weights (= lumped mass diagonal)."""
        axis_w = []
        for h, n in zip(self.h, self.nodes_per_axis):
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
            axis_w.append(w)
        w_nd = reduce(np.multiply.outer, axis_w)
        return np.ascontiguousarray(w_nd.ravel())

    @cached_property
    def times(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)

    @cached_property
    def spectral(self):
        """DCT-I eigenbasis of the lumped-mass grid operators."""
        return SpectralBasis(self.nodes_per_axis, self.h)

    @cached_property
    def h1_weights(self):
        """Flat weights (1 + mu) / N: ||x||_H1^2 = sum weights * c^2, c = V^T W x."""
        basis = self.spectral
        return ((1.0 + basis.gradient_eigenvalues()) / basis._norms).ravel()

    @cached_property
    def dual_weights(self):
        """Flat weights 1 / (N (1 + lam)): ||x||_*^2 = sum weights * c^2, c = V^T W x.

        ||x||_*^2 = load . (K(identity) + M)^{-1} load with load = W x.
        """
        basis = self.spectral
        lam = basis.stiffness_eigenvalues((1.0,) * self.dim)
        return (1.0 / (basis._norms * (1.0 + lam))).ravel()


REFINEMENT = 2


def refined(grid):
    """A grid with every axis and the time interval refined ``REFINEMENT``-fold."""
    nodes = tuple((n - 1) * REFINEMENT + 1 for n in grid.nodes_per_axis)
    return Grid(nodes, grid.lengths, grid.T, grid.n_steps * REFINEMENT)


def time_weights(grid):
    """Trapezoid weights over the n_steps + 1 stored frames (sum = T)."""
    w = np.full(grid.n_steps + 1, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


@dataclass
class ScalarField:
    """A nodal scalar field on a grid (flat float64 buffer, C node order)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size != self.grid.n_nodes:
            raise ValueError(
                f"field has {v.size} values for a grid with {self.grid.n_nodes} nodes"
            )
        self.values = np.ascontiguousarray(v.reshape(-1))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.n_nodes))


@dataclass
class FieldSeries:
    """A time series of nodal fields, stored as one (n_frames, n_nodes) array.

    Frame k lives at time k * dt; a series always carries n_steps + 1
    frames so trajectories, controls and targets share one layout.

    ``data`` may carry leading batch axes, (*batch, n_frames, n_nodes):
    a batch of series on one grid, such as the controls and
    trajectories of one batched ``run_forward``.  Frame k of every
    member is ``data[..., k, :]``, and an unbatched series broadcasts
    against a batched one.  Code that reads frames as ``data[k]`` takes
    unbatched series only and says so through ``require_unbatched``.
    """

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        expected = (self.grid.n_steps + 1, self.grid.n_nodes)
        if d.shape[-2:] != expected:
            raise ValueError(f"series shape {d.shape} != expected (*batch, *{expected})")
        self.data = np.ascontiguousarray(d)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.n_steps + 1, grid.n_nodes)))

    @classmethod
    def empty(cls, grid, batch_shape=()):
        """A series of unfilled frames, each of which its caller must write."""
        return cls(grid, np.empty(tuple(batch_shape) + (grid.n_steps + 1, grid.n_nodes)))

    @property
    def batch_shape(self):
        """The leading batch axes of ``data``; () for a single series."""
        return self.data.shape[:-2]

    def require_unbatched(self, what):
        """Raise ValueError if the series is a batch; ``what`` names its reader."""
        if self.batch_shape:
            raise ValueError(
                f"{what} takes a single series, not a batch of shape {self.batch_shape}"
            )

    @classmethod
    def constant(cls, fld):
        """The series on ``fld``'s grid whose every frame is the ScalarField ``fld``."""
        return cls(fld.grid, np.tile(fld.values, (fld.grid.n_steps + 1, 1)))

    @property
    def n_frames(self):
        return self.data.shape[-2]

    def frame(self, k):
        return ScalarField(self.grid, self.data[k])

    def copy(self):
        return FieldSeries(self.grid, self.data.copy())


@dataclass
class TensorField:
    """Cellwise-constant symmetric conductivity tensor.

    ``entries`` has shape (n_cells, dim, dim).  Symmetry and positive
    definiteness are checked where the tensor is assembled
    (``assembly.ellipticity_check``).

    A tensor whose cells are all equal is ``constant``, and the assembly
    checks and contracts only its first cell.  Its ``entries`` are then
    a read-only broadcast view of that cell (stride 0 on the cell axis):
    ``isotropic`` and ``diagonal`` build such views, a stride-0 array is
    kept as it is, and a full array whose cells are all equal is
    collapsed into one, except on a one-cell grid, where it is kept.
    Sums and scalings of constant tensors stay constant.
    """

    grid: Grid
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        d = self.grid.dim
        if e.shape != (self.grid.n_cells, d, d):
            raise ValueError(
                f"tensor entries shape {e.shape} != {(self.grid.n_cells, d, d)}"
            )
        if len(e) > 1 and e.strides[0] != 0 and (e == e[0]).all():
            e = np.broadcast_to(e[0].copy(), e.shape)
        self.entries = e if e.strides[0] == 0 else np.ascontiguousarray(e)

    @classmethod
    def _of_cell(cls, grid, cell):
        """The constant tensor holding ``cell`` in every cell."""
        return cls(grid, np.broadcast_to(cell, (grid.n_cells,) + cell.shape))

    @classmethod
    def isotropic(cls, grid, value):
        return cls._of_cell(grid, np.eye(grid.dim) * float(value))

    @classmethod
    def diagonal(cls, grid, diag):
        diag = np.asarray(diag, dtype=float)
        if diag.shape != (grid.dim,):
            raise ValueError("diagonal needs one entry per axis")
        return cls._of_cell(grid, np.diag(diag))

    @property
    def constant(self):
        """True when every cell holds the same matrix: one cell, or a stride-0 view."""
        return len(self.entries) == 1 or self.entries.strides[0] == 0

    @property
    def cells(self):
        """The cells to check and contract: the one cell of a constant tensor, else all."""
        return self.entries[:1] if self.constant else self.entries

    @property
    def mean_diagonal(self):
        """The per-axis cell means of the diagonal (``dim`` values), for the DCT-I inverses."""
        return np.diagonal(self.cells, axis1=1, axis2=2).mean(axis=0)

    @property
    def constant_diagonal(self):
        """True when every cell holds the same diagonal matrix: the DCT-I inverses are exact."""
        cell = self.entries[0]
        return self.constant and not (cell - np.diag(np.diag(cell))).any()

    def __add__(self, other):
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("tensors live on different grids")
        return TensorField(self.grid, self.entries + other.entries)

    def __mul__(self, scalar):
        return TensorField(self.grid, self.entries * float(scalar))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# norms


def checked_norms(norms):
    """``norms``, a ``{name: float}`` report, after checking each value is finite and >= 0."""
    for key, value in norms.items():
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"norm {key} = {value} is not a finite nonnegative value")
    return norms


def l2_norm(fld):
    """Lumped L^2 norm of a nodal field."""
    v = fld.values
    return float(np.sqrt(fld.grid.weights @ (v * v)))


def coefficient_norms(coeffs, weights):
    """sqrt(sum weights * c^2) over the last axis of DCT-I coefficients.

    With ``Grid.h1_weights`` this is the H^1 norm, with
    ``Grid.dual_weights`` the dual norm, of each field the rows of
    ``coeffs`` were computed from by ``SpectralBasis.coefficients``.
    """
    return np.sqrt((coeffs * coeffs) @ weights)


# Most values (frames x nodes) of one block of frames of the series norms.
NORM_BLOCK_VALUES = 2**14


def frame_blocks(rows, row_length, budget):
    """Slices of consecutive rows that cover ``rows`` rows in order.

    Each block holds at most ``budget`` values (rows x ``row_length``),
    and at least one row however long a row is.  The norms of a series
    take their frames in blocks of ``NORM_BLOCK_VALUES``.
    """
    step = max(1, budget // row_length)
    return [slice(k, k + step) for k in range(0, rows, step)]


def block_norms(series, norms):
    """``norms(s)`` of every block ``s`` of the frames of ``series``, joined in frame order.

    ``norms`` maps a slice of frames to one value per frame, along the
    last axis.
    """
    blocks = frame_blocks(series.n_frames, series.grid.n_nodes, NORM_BLOCK_VALUES)
    return np.concatenate([norms(s) for s in blocks], axis=-1)


def _l2_frames(series):
    def l2(s):
        x = series.data[..., s, :]
        return np.sqrt((x * x) @ series.grid.weights)

    return block_norms(series, l2)


def _spectral_frames(series, weights):
    """``coefficient_norms`` of every frame, one batched transform per block of frames."""
    basis = series.grid.spectral
    return block_norms(
        series, lambda s: coefficient_norms(basis.coefficients(series.data[..., s, :]), weights)
    )


def h1_frame_norms(series):
    """H^1 norm of every frame of a series, one batched transform per block of frames."""
    return _spectral_frames(series, series.grid.h1_weights)


def dual_frame_norms(series):
    """Dual norm of every frame of a series, one batched transform per block of frames."""
    return _spectral_frames(series, series.grid.dual_weights)


_FRAME_NORMS = {"L2": _l2_frames, "H1": h1_frame_norms}


def time_norm(grid, per_frame, p_time):
    """Time-Lp norm (trapezoid weights) or, for p_time = inf, max of per-frame values."""
    if p_time == np.inf:
        return float(np.max(per_frame))
    if p_time not in (2, 4):
        raise ValueError(f"unsupported time exponent {p_time}")
    tw = time_weights(grid)
    return float((tw @ per_frame**p_time) ** (1.0 / p_time))


def bochner_norm(series, p_time, spatial):
    """Time-Lp norm of a spatial norm over the frames of a series.

    ``spatial`` is "L2" or "H1", each evaluated over blocks of frames
    (``frame_blocks``), H1 through one batched DCT-I per block.
    ``p_time`` is 2, 4 or inf.  Finite p uses trapezoid weights in
    time, inf takes the max over frames (the discrete C^0 norm).
    """
    return time_norm(series.grid, _FRAME_NORMS[spatial](series), p_time)


def dual_norm(fld):
    """Discrete (W^{1,2})* surrogate norm of a nodal load.

    The load vector W x pairs the field through the lumped weights, and
    the norm is sqrt(load . (K + M)^{-1} load) with the Riesz operator
    K(identity) + M.  That operator is diagonal in the DCT-I basis, so
    the norm is read off the coefficients c = V^T W x as
    sqrt(sum c^2 / (N (1 + lam))) (``Grid.dual_weights``), with no solve.
    """
    g = fld.grid
    return float(coefficient_norms(g.spectral.coefficients(fld.values), g.dual_weights))


# ---------------------------------------------------------------------------
# snapshot output


def write_snapshots(path, series):
    """Write a FieldSeries as a binary snapshot file.

    Layout (little-endian): magic "BDMF", u32 version, u32 dim, three
    u32 per-axis node counts (unused axes = 1), u64 frame count, then
    all frames as float64 in C node order, frame-major.
    """
    series.require_unbatched("write_snapshots")
    g = series.grid
    npa = list(g.nodes_per_axis) + [1] * (3 - g.dim)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, g.dim, *npa, series.n_frames)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(series.data, dtype="<f8").tobytes())


def export_csv(fld, path):
    """Write a ScalarField as CSV rows ``x,y,z,value``, one per node."""
    g = fld.grid
    xyz = np.zeros((g.n_nodes, 3))
    mesh = np.meshgrid(*g.axis_coords, indexing="ij")
    xyz[:, : g.dim] = np.stack(mesh, axis=-1).reshape(g.n_nodes, g.dim)
    with open(path, "w") as fh:
        fh.write("x,y,z,value\n")
        for (x, y, z), v in zip(xyz, fld.values):
            fh.write(f"{x:.17g},{y:.17g},{z:.17g},{v:.17g}\n")
