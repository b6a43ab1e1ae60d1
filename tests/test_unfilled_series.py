"""The sweeps allocate their series unfilled and write every frame.

``run_forward`` and ``run_adjoint`` take their series from
``FieldSeries.empty``.  Patched to hand out series filled with a
sentinel, the sweeps must return the same bytes as an unpatched run:
a frame left unwritten would keep the sentinel.  Two sentinels, NaN
and 1e300, also tell an unwritten frame from a NaN one the sweep wrote.
"""

from dataclasses import replace

import numpy as np
import pytest

from cardioct.adjoint import CostConfig, run_adjoint
from cardioct.forward import run_forward
from cardioct.grid import FieldSeries, Grid

from conftest import make_problem

GRID = Grid((9, 9), (1.0, 1.0), 0.3, 4)
SENTINELS = (np.nan, 1e300)
FORWARD_SERIES = ("phi_tr", "w", "phi_e", "I_e_used")
ADJOINT_SERIES = ("p1", "p3", "p2", "psi_eta")


def _patch_empty(monkeypatch, value):
    """Make ``FieldSeries.empty`` fill its series with ``value``; returns the list of its calls."""
    calls = []

    def empty(cls, grid, batch_shape=()):
        calls.append(tuple(batch_shape))
        return cls(grid, np.full(tuple(batch_shape) + (grid.n_steps + 1, grid.n_nodes), value))

    monkeypatch.setattr(FieldSeries, "empty", classmethod(empty))
    return calls


def _bytes(result, names):
    """The bytes of each series of a result, None for an absent one."""
    series = (getattr(result, name) for name in names)
    return [None if s is None else s.data.tobytes() for s in series]


def _assert_sentinels_never_show(monkeypatch, sweep, names):
    """``sweep()`` returns the same bytes under every sentinel as unpatched."""
    sweep()  # the first solves of the exact systems measure their residual
    want = _bytes(sweep(), names)
    for value in SENTINELS:
        with monkeypatch.context() as m:
            calls = _patch_empty(m, value)
            got = _bytes(sweep(), names)
        assert calls, "the sweep allocated no unfilled series"
        assert got == want, [n for n, a, b in zip(names, got, want) if a != b]


def _config(kind):
    return make_problem(GRID, kind=kind, model="ap", stimulus=0.3)


@pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
@pytest.mark.parametrize(
    "kind, w_eta",
    [("monodomain", 0.0), ("bidomain", 0.0), ("bidomain", 0.5)],
    ids=["monodomain", "bidomain", "bidomain-eta"],
)
def test_forward_and_adjoint_series_are_fully_written(monkeypatch, kind, w_eta, truncated):
    cfg = _config(kind)
    n = GRID.n_steps
    steps, lowest = (n - 1, 1) if truncated else (n, 0)
    cost = CostConfig(mu=1e-2, w_phi=1.0, w_eta=w_eta, w_gate=0.5)
    _assert_sentinels_never_show(
        monkeypatch, lambda: run_forward(cfg, report=False, steps=steps), FORWARD_SERIES
    )
    traj = run_forward(cfg, report=False, steps=steps)
    _assert_sentinels_never_show(
        monkeypatch,
        lambda: run_adjoint(cfg, traj, cost, report=False, lowest_frame=lowest),
        ADJOINT_SERIES,
    )


@pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
@pytest.mark.parametrize("kind", ["monodomain", "bidomain"])
def test_batched_forward_series_are_fully_written(monkeypatch, kind, truncated):
    cfg = _config(kind)
    scales = np.array([1.0, -0.5, 2.0])[:, None, None]
    cfg = replace(cfg, I_e=FieldSeries(GRID, scales * cfg.I_e.data))
    steps = GRID.n_steps - 1 if truncated else GRID.n_steps
    _assert_sentinels_never_show(
        monkeypatch, lambda: run_forward(cfg, report=False, steps=steps), FORWARD_SERIES
    )
