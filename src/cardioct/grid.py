"""Structured space-time grids, nodal fields, norms, and snapshot I/O.

Everything lives on axis-aligned tensor-product grids (1-D intervals,
2-D rectangles, 3-D boxes) with a uniform time axis.  Spatial integrals
use the tensor-trapezoid rule; its weights double as the lumped mass
matrix, so ``integrate``, the Lp norms and the mass operator all agree
on what volume means.  Time integrals in the Bochner norms use the
trapezoid rule over the stored frames.

The H1 norm is the lumped L2 part plus a cell-difference quadrature
of |grad u|^2.  The dual norm is a discrete surrogate for the
(W^{1,2})* norm: the load is paired through the lumped weights and
measured against the Riesz operator K + M (identity-tensor stiffness
plus lumped mass).  Both are diagonal in the grid's DCT-I basis
(``Grid.spectral``), so they are weighted sums of squares of the
coefficients V^T W x (``Grid.coefficients``), read off one batched
transform of all frames of a series with no linear solve.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
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
        if any(L <= 0 for L in self.lengths):
            raise ValueError("axis lengths must be positive")
        if self.T <= 0 or self.n_steps < 1:
            raise ValueError("need T > 0 and n_steps >= 1")
        self.T = float(self.T)
        self.n_steps = int(self.n_steps)

    @property
    def dim(self):
        return len(self.nodes_per_axis)

    @property
    def shape(self):
        return self.nodes_per_axis

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
    def meshgrid(self):
        return np.meshgrid(*self.axis_coords, indexing="ij")

    @cached_property
    def coords(self):
        """Node coordinates, shape (n_nodes, dim), C-ordered like field values."""
        return np.stack([m.ravel() for m in self.meshgrid], axis=1)

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

    def coefficients(self, data):
        """DCT-I coefficients V^T W x of each row of ``data`` (one field or a stack)."""
        return self.spectral.transform(data * self.weights)


def refined(grid, space=2, time=2):
    """A grid with each axis refined `space`-fold and `time`-fold more steps."""
    nodes = tuple((n - 1) * space + 1 for n in grid.nodes_per_axis)
    return Grid(nodes, grid.lengths, grid.T, grid.n_steps * time)


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

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.n_nodes, float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        """Evaluate ``fn(x)``, ``fn(x, y)`` or ``fn(x, y, z)`` at the nodes."""
        return cls(grid, np.asarray(fn(*grid.meshgrid), dtype=float).ravel())

    @property
    def values_nd(self):
        return self.values.reshape(self.grid.shape)

    def copy(self):
        return ScalarField(self.grid, self.values.copy())


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
    def zeros(cls, grid, batch_shape=()):
        return cls(grid, np.zeros(tuple(batch_shape) + (grid.n_steps + 1, grid.n_nodes)))

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
    def constant(cls, grid, field_or_value):
        if isinstance(field_or_value, ScalarField):
            row = field_or_value.values
        else:
            row = np.full(grid.n_nodes, float(field_or_value))
        return cls(grid, np.tile(row, (grid.n_steps + 1, 1)))

    @classmethod
    def from_function(cls, grid, fn):
        """Evaluate ``fn(t, *axes)`` on every frame; fn must broadcast."""
        mesh = grid.meshgrid
        data = np.empty((grid.n_steps + 1, grid.n_nodes))
        for k, t in enumerate(grid.times):
            data[k] = np.broadcast_to(
                np.asarray(fn(t, *mesh), dtype=float), grid.shape
            ).ravel()
        return cls(grid, data)

    @property
    def n_frames(self):
        return self.data.shape[-2]

    def __len__(self):
        return self.n_frames

    def frame(self, k):
        return ScalarField(self.grid, self.data[k])

    def copy(self):
        return FieldSeries(self.grid, self.data.copy())


@dataclass
class TensorField:
    """Cellwise-constant symmetric conductivity tensor.

    ``entries`` has shape (n_cells, dim, dim).  Symmetry and positive
    definiteness are checked where the tensor is assembled
    (``assembly.ellipticity_check``), which also returns its eigenvalue
    bounds.
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
        self.entries = np.ascontiguousarray(e)

    @classmethod
    def isotropic(cls, grid, value):
        eye = np.eye(grid.dim) * float(value)
        return cls(grid, np.tile(eye, (grid.n_cells, 1, 1)))

    @classmethod
    def diagonal(cls, grid, diag):
        diag = np.asarray(diag, dtype=float)
        if diag.shape != (grid.dim,):
            raise ValueError("diagonal needs one entry per axis")
        return cls(grid, np.tile(np.diag(diag), (grid.n_cells, 1, 1)))

    def __add__(self, other):
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("tensors live on different grids")
        return TensorField(self.grid, self.entries + other.entries)

    def __mul__(self, scalar):
        return TensorField(self.grid, self.entries * float(scalar))

    __rmul__ = __mul__


@dataclass
class NormReport:
    """Named nonnegative norm values from a forward or adjoint run."""

    norms: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, key):
        return self.norms[key]

    def __setitem__(self, key, value):
        self.norms[key] = float(value)

    def __contains__(self, key):
        return key in self.norms

    def items(self):
        return self.norms.items()

    def check(self):
        for key, value in self.norms.items():
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"norm {key} = {value} is not a finite nonnegative value")
        return self

    def format(self):
        width = max((len(k) for k in self.norms), default=0)
        return "\n".join(f"{k.ljust(width)} = {v:.12e}" for k, v in self.norms.items())


# ---------------------------------------------------------------------------
# quadrature and norms


def integrate(fld):
    """Lumped (tensor-trapezoid) integral of a nodal field."""
    return float(fld.grid.weights @ fld.values)


def lp_norm(fld, p):
    """Lumped L^p norm, p in {1, 2, 4, inf}."""
    v = fld.values
    if p == np.inf:
        return float(np.max(np.abs(v)))
    if p not in (1, 2, 4):
        raise ValueError(f"unsupported exponent p={p}")
    if p == 1:
        return float(fld.grid.weights @ np.abs(v))
    if p == 2:
        return float(np.sqrt(fld.grid.weights @ (v * v)))
    v2 = v * v
    return float((fld.grid.weights @ (v2 * v2)) ** 0.25)


def coefficient_norms(coeffs, weights):
    """sqrt(sum weights * c^2) over the last axis of DCT-I coefficients.

    With ``Grid.h1_weights`` this is the H^1 norm, with
    ``Grid.dual_weights`` the dual norm, of each field the rows of
    ``coeffs`` were computed from by ``Grid.coefficients``.
    """
    return np.sqrt((coeffs * coeffs) @ weights)


def h1_norm(fld):
    """Discrete H^1 norm: lumped L^2 part plus cell-quadrature gradient part.

    The gradient part differences along each axis and averages the two
    cell-edge nodes along the others; it is read off the DCT-I
    coefficients together with the L^2 part (``Grid.h1_weights``).
    """
    g = fld.grid
    return float(coefficient_norms(g.coefficients(fld.values), g.h1_weights))


def _l2_frames(series):
    return np.sqrt((series.data * series.data) @ series.grid.weights)


def _l4_frames(series):
    sq = series.data * series.data
    return ((sq * sq) @ series.grid.weights) ** 0.25


def h1_frame_norms(series):
    """H^1 norm of every frame of a series from one batched transform."""
    g = series.grid
    return coefficient_norms(g.coefficients(series.data), g.h1_weights)


def dual_frame_norms(series):
    """Dual norm of every frame of a series from one batched transform."""
    g = series.grid
    return coefficient_norms(g.coefficients(series.data), g.dual_weights)


_FRAME_NORMS = {"L2": _l2_frames, "L4": _l4_frames, "H1": h1_frame_norms}


def time_norm(grid, per_frame, p_time):
    """Time-Lp norm (trapezoid weights) or, for p_time = inf, max of per-frame values."""
    if p_time == np.inf:
        return float(np.max(per_frame))
    if p_time not in (1, 2, 4):
        raise ValueError(f"unsupported time exponent {p_time}")
    tw = time_weights(grid)
    return float((tw @ per_frame**p_time) ** (1.0 / p_time))


def bochner_norm(series, p_time, spatial):
    """Time-Lp norm of a spatial norm over the frames of a series.

    ``spatial`` is "L2", "L4" or "H1", each evaluated for all frames in
    one vectorised pass (H1 through one batched DCT-I), or any callable
    on ScalarField, evaluated frame by frame.  ``p_time`` is 1, 2, 4 or
    inf.  Finite p uses trapezoid weights in time, inf takes the max
    over frames (the discrete C^0 norm).
    """
    frames = _FRAME_NORMS.get(spatial)
    if frames is not None:
        per_frame = frames(series)
    else:
        per_frame = np.array([spatial(series.frame(k)) for k in range(series.n_frames)])
    return time_norm(series.grid, per_frame, p_time)


def dual_norm(fld):
    """Discrete (W^{1,2})* surrogate norm of a nodal load.

    The load vector W x pairs the field through the lumped weights, and
    the norm is sqrt(load . (K + M)^{-1} load) with the Riesz operator
    K(identity) + M.  That operator is diagonal in the DCT-I basis, so
    the norm is read off the coefficients c = V^T W x as
    sqrt(sum c^2 / (N (1 + lam))) (``Grid.dual_weights``), with no solve.
    """
    g = fld.grid
    return float(coefficient_norms(g.coefficients(fld.values), g.dual_weights))


# ---------------------------------------------------------------------------
# snapshot I/O


def write_snapshots(path, series):
    """Write a FieldSeries (or list of ScalarFields) as a binary snapshot file.

    Layout (little-endian): magic "BDMF", u32 version, u32 dim, three
    u32 per-axis node counts (unused axes = 1), u64 frame count, then
    all frames as float64 in C node order, frame-major.
    """
    if isinstance(series, ScalarField):
        frames = series.values[None, :]
        g = series.grid
    elif isinstance(series, FieldSeries):
        frames = series.data
        g = series.grid
    else:
        fields = list(series)
        g = fields[0].grid
        frames = np.stack([f.values for f in fields])
    npa = list(g.nodes_per_axis) + [1] * (3 - g.dim)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, g.dim, *npa, frames.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(frames, dtype="<f8").tobytes())


def read_snapshots(path):
    """Read a snapshot file; returns (dim, nodes_per_axis, frames array).

    The header carries no physical lengths or time horizon, so the
    caller re-attaches geometry; frames come back with shape
    (n_frames, n_nodes).
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header")
        magic, version, dim, n0, n1, n2, n_frames = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        npa = (n0, n1, n2)[:dim]
        n_nodes = int(np.prod(npa))
        raw = np.frombuffer(fh.read(8 * n_frames * n_nodes), dtype="<f8")
        if raw.size != n_frames * n_nodes:
            raise ValueError(f"{path}: truncated snapshot payload")
    return dim, npa, raw.reshape(n_frames, n_nodes).astype(float)


def export_csv(obj, path):
    """Write a field (x,y,z,value) or series (frame,x,y,z,value) as CSV."""
    if isinstance(obj, ScalarField):
        frames = obj.values[None, :]
        g = obj.grid
        with_frame = False
    else:
        frames = obj.data
        g = obj.grid
        with_frame = True
    xyz = np.zeros((g.n_nodes, 3))
    xyz[:, : g.dim] = g.coords
    with open(path, "w") as fh:
        fh.write(("frame," if with_frame else "") + "x,y,z,value\n")
        for k in range(frames.shape[0]):
            prefix = f"{k}," if with_frame else ""
            for i in range(g.n_nodes):
                fh.write(
                    prefix
                    + f"{xyz[i, 0]:.17g},{xyz[i, 1]:.17g},{xyz[i, 2]:.17g},"
                    + f"{frames[k, i]:.17g}\n"
                )
