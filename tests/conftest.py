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
from cardioct.stimuli import gaussian_bump, pulse_series


def bump_start(grid, center=0.3, width=0.12, amplitude=0.8):
    centers = (center,) * grid.dim
    return gaussian_bump(grid, centers, width, amplitude)


def fibres(grid):
    """Rotating fibres with 10:1 anisotropy: in the x-y plane at the angle
    pi/2 (x + y [+ z]) of each cell centre, conductivity 1 along them and
    0.1 across."""
    centres = np.meshgrid(*(0.5 * (c[1:] + c[:-1]) for c in grid.axis_coords), indexing="ij")
    a = 0.5 * np.pi * sum(centres).ravel()
    f = np.zeros((grid.n_cells, grid.dim))
    f[:, 0], f[:, 1] = np.cos(a), np.sin(a)
    return TensorField(grid, 0.1 * np.eye(grid.dim) + 0.9 * f[:, :, None] * f[:, None, :])


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
def grid1d():
    return Grid((33,), (1.0,), 0.4, 20)


@pytest.fixture
def grid2d():
    return Grid((9, 9), (1.0, 1.0), 0.3, 12)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
