import struct
from pathlib import Path

import numpy as np
import pytest

from cardioct import (
    FieldSeries,
    Grid,
    IonicParams,
    ProblemConfig,
    ScalarField,
    TensorField,
    build_operators,
)
from cardioct import adjoint, assembly, forward, linalg, run_forward
from cardioct.grid import coefficient_norms
from cardioct.stimuli import gaussian_bump, pulse_series


def bump_start(grid, center=0.3, width=0.12, amplitude=0.8):
    centers = (center,) * grid.dim
    return gaussian_bump(grid, centers, width, amplitude)


def fibres(grid):
    """Rotating fibres with 10:1 anisotropy, 0.1 I + 0.9 f f^T.

    f lies in the x-y plane at the angle pi/2 (x + y [+ z]) of each cell
    centre: conductivity 1 along the fibres and 0.1 across.  On a 1-D
    grid f is the x-component alone.
    """
    centres = np.meshgrid(*(0.5 * (c[1:] + c[:-1]) for c in grid.axis_coords), indexing="ij")
    a = 0.5 * np.pi * sum(c.ravel() for c in centres)
    f = np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=1)[:, : grid.dim]
    return TensorField(grid, 0.1 * np.eye(grid.dim) + 0.9 * f[:, :, None] * f[:, None, :])


def scar(grid, c, radius=0.2):
    """Unit isotropic conductivity, c inside a ball of ``radius`` about the centre."""
    centres = np.meshgrid(*(0.5 * (x[1:] + x[:-1]) for x in grid.axis_coords), indexing="ij")
    inside = sum((x - 0.5) ** 2 for x in centres).ravel() < radius**2
    return TensorField(grid, np.where(inside, c, 1.0)[:, None, None] * np.eye(grid.dim))


def jacobi(A):
    """The Jacobi preconditioner r -> r / diag(A) of a matrix A, per row of a block.

    The package solves with spectral inverses only; tests use this as
    the baseline they are compared with.
    """
    inv_diag = 1.0 / A.diagonal()
    return lambda r: inv_diag * r


def h1_norm(fld):
    """Discrete H^1 norm of one field, read off its DCT-I coefficients.

    The lumped L^2 part plus the cell-quadrature gradient part, which
    differences along each axis and averages the two cell-edge nodes
    along the others (``Grid.h1_weights``).
    """
    g = fld.grid
    return float(coefficient_norms(g.spectral.coefficients(fld.values), g.h1_weights))


def integrate(fld):
    """Lumped (tensor-trapezoid) integral of a nodal field."""
    return float(fld.grid.weights @ fld.values)


def constant_field(grid, value):
    """The ScalarField holding ``value`` at every node."""
    return ScalarField(grid, np.full(grid.n_nodes, float(value)))


def constant_series(grid, value):
    """The FieldSeries holding ``value`` at every node of every frame."""
    return FieldSeries(grid, np.full((grid.n_steps + 1, grid.n_nodes), float(value)))


def node_meshgrid(grid):
    """The per-axis node coordinates broadcast over the grid, one array per axis."""
    return np.meshgrid(*grid.axis_coords, indexing="ij")


def node_coords(grid):
    """Node coordinates, shape (n_nodes, dim), C-ordered like field values."""
    return np.stack([m.ravel() for m in node_meshgrid(grid)], axis=1)


# The documented snapshot header (README, "Snapshot format"): magic,
# version, dim, three per-axis node counts, frame count; little-endian.
SNAPSHOT_HEADER = struct.Struct("<4s5IQ")


def read_snapshots(path):
    """Read a snapshot file as (dim, nodes_per_axis, frames), frames (n_frames, n_nodes).

    Written from the documented layout, not from the writer's code, so
    that a round trip checks the writer against the documentation.
    Raises ValueError on a bad magic, version or length.
    """
    raw = Path(path).read_bytes()
    if len(raw) < SNAPSHOT_HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, version, dim, n0, n1, n2, n_frames = SNAPSHOT_HEADER.unpack_from(raw)
    if magic != b"BDMF" or version != 1:
        raise ValueError(f"{path}: bad magic {magic!r} or version {version}")
    nodes = (n0, n1, n2)[:dim]
    frames = np.frombuffer(raw[SNAPSHOT_HEADER.size :], dtype="<f8")
    if frames.size != n_frames * int(np.prod(nodes)):
        raise ValueError(f"{path}: truncated snapshot payload")
    return dim, nodes, frames.reshape(n_frames, -1).astype(float)


def recover_phi_e(config, phi_tr, k):
    """phi_e at frame k from its own elliptic solve, per batch member: the lifts' oracle.

    K_ie phi_e = Mass (I_i + I_e)^k - K_i phi^k, solved to ``inner_tol``
    in the zero-mean gauge; ||K_i||_1 ||phi|| bounds the terms of
    K_i phi, which cancel for a constant phi, and the currents where
    they cancel against it.
    """
    ops = config.ops
    currents = config.I_i.data[..., k, :] + config.I_e.data[..., k, :]
    load = ops.mass * currents - linalg.row_product(ops.K_i, phi_tr)
    scale = np.abs(ops.K_i.data).sum(axis=0).max() * np.linalg.norm(phi_tr, axis=-1, keepdims=True)
    return assembly.bidomain_elliptic_solve(ops, load, tol=config.inner_tol, scale=scale)


def identical_run_difference(config):
    """Max pointwise difference between two runs of the same data (exactly 0)."""
    a = run_forward(config, report=False)
    b = run_forward(config, report=False)
    diff = max(
        float(np.max(np.abs(a.phi_tr.data - b.phi_tr.data))),
        float(np.max(np.abs(a.w.data - b.w.data))),
    )
    if config.kind == "bidomain":
        diff = max(diff, float(np.max(np.abs(a.phi_e.data - b.phi_e.data))))
    return diff


def snapshot(arrays):
    """The bytes of each named array, to be compared by ``assert_unchanged``."""
    return {name: (a, a.tobytes()) for name, a in arrays.items()}


def assert_unchanged(snapshot):
    """Every array of a ``snapshot`` still holds the same bytes."""
    changed = [name for name, (a, before) in snapshot.items() if a.tobytes() != before]
    assert not changed, changed


def values_nd(fld):
    """The values of a ScalarField on the grid's node shape."""
    return fld.values.reshape(fld.grid.nodes_per_axis)


def random_spd(grid, rng):
    """Random SPD cells B B^T + 0.1 I."""
    B = rng.standard_normal((grid.n_cells, grid.dim, grid.dim))
    return TensorField(grid, B @ B.transpose(0, 2, 1) + 0.1 * np.eye(grid.dim))


def make_problem(
    grid,
    *,
    kind="monodomain",
    model="rm",
    lam=1.0,
    me_factor=None,
    stimulus=0.0,
    phi0_amp=0.8,
    **kwargs,
):
    """Small self-exciting problem with an optional extracellular pulse."""
    mi = TensorField.isotropic(grid, 1.0)
    me = None
    if kind == "bidomain":
        me = mi * (me_factor if me_factor is not None else 1.5)
    ops = build_operators(grid, mi, me, lam=lam)
    I_e = FieldSeries.zeros(grid)
    if stimulus:
        centers = (0.7,) * grid.dim
        I_e = pulse_series(
            grid,
            gaussian_bump(grid, centers, 0.1, stimulus),
            0.0,
            grid.T / 2,
            "smooth",
        )
    return ProblemConfig(
        grid=grid,
        ops=ops,
        ionic=IonicParams(model),
        kind=kind,
        phi0=bump_start(grid, amplitude=phi0_amp) if phi0_amp else ScalarField.zeros(grid),
        w0=ScalarField.zeros(grid),
        I_i=FieldSeries.zeros(grid),
        I_e=I_e,
        **kwargs,
    )


@pytest.fixture
def solves(monkeypatch):
    """Record every CG call of the package: operator, load, keywords, result, applications.

    Also the ``residual`` of the preconditioner when the call began
    (None before the first solve of an exact system).

    The operator is wrapped in a counting closure, as the benchmark's
    tracer does, in every module that calls ``cg_solve``.
    """
    record = []

    def counted(A, b, **kwargs):
        matvec = A if callable(A) else A.__matmul__
        entry = {"A": A, "matvec": matvec, "b": b, "kwargs": kwargs, "applications": 0}
        # the residual estimate of an exact preconditioner as the solve began
        entry["residual"] = getattr(kwargs.get("precond"), "residual", None)
        record.append(entry)

        def counting(v):
            entry["applications"] += 1
            return matvec(v)

        x = linalg.cg_solve(counting, b, **kwargs)
        # a copy: the caller may update the result in place (the forward
        # sweep updates psi, a view of the coupled step's result)
        entry["x"] = x.copy()
        return x

    for module in (forward, adjoint, assembly):
        monkeypatch.setattr(module, "cg_solve", counted)
    return record


def meets_tolerance(solve):
    """Whether a recorded solve's residual, recomputed from its operator, is within its tol.

    Checked per row: ||b - A x|| <= tol ||b||.
    """
    b = solve["b"]
    residual = np.linalg.norm(b - solve["matvec"](solve["x"]), axis=-1)
    return bool(np.all(residual <= solve["kwargs"]["tol"] * np.linalg.norm(b, axis=-1)))


def assert_direct(solve):
    """The recorded solve made no operator application and returned P b within its tol."""
    assert solve["applications"] == 0
    assert np.array_equal(solve["x"], solve["kwargs"]["precond"](solve["b"]))
    assert meets_tolerance(solve)


def assert_exact(solve):
    """A recorded solve of an exact system returned P b within its tol.

    The first solve of the system (no residual yet) tests the residual
    of P b with one operator application; every later one is direct.
    """
    if solve["residual"] is None:
        assert solve["applications"] == 1
        assert np.array_equal(solve["x"], solve["kwargs"]["precond"](solve["b"]))
        assert meets_tolerance(solve)
    else:
        assert_direct(solve)


@pytest.fixture
def grid1d():
    return Grid((33,), (1.0,), 0.4, 20)


@pytest.fixture
def grid2d():
    return Grid((9, 9), (1.0, 1.0), 0.3, 12)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
