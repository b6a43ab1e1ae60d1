"""Forward time integration of the monodomain and bidomain systems.

One step treats diffusion implicitly, the ionic reaction explicitly at
the step's left endpoint, and the recovery variable by its exact
exponential relaxation with the source at the step midpoint:

    (Mass + dt D) phi^{k+1} = Mass (phi^k - dt i_ion^k) + dt F^k
    w^{k+1} = e^{-eps dt} w^k + (1 - e^{-eps dt}) s((phi^k + phi^{k+1})/2)

For the monodomain system D = (lam/(1+lam)) K_i and the forcing is
F^k = Mass (lam I_i^k - I_e^k)/(1+lam).  For the bidomain system D is
the reduced operator A_h = K_i - K_i K_ie^+ K_i, and the step is
solved as the coupled block system of ``assembly``

    [[Mass + dt K_i, dt K_i], [dt K_i, dt K_ie]] [phi^{k+1}; psi]
        = [Mass (phi^k - dt i_ion^k + dt I_i^k); dt Mass (I_i + I_e)^k]

by one block PCG, whose Schur complement on phi is the equation
above.  psi is the extracellular potential with the frame-k currents,
so it is not phi_e^{k+1}, which solves K_ie phi_e = Mass (I_i + I_e)^{k+1}
- K_i phi^{k+1} with zero-mean gauge.  The two differ by the lift of
the change of the currents:

    phi_e^{k+1} = psi + lift^{k+1} - lift^k,   lift^k = K_ie^+ Mass (I_i + I_e)^k

The lifts depend on the data only, so ``run_forward`` solves them for
all frames before the sweep (``assembly.solve_neumann_frames``) and
each step adds its difference to psi; only frame 0 is recovered
(``recover_phi_e``).  phi_e^{k+1} thus carries the error of psi, the
coupled step's ``cg_tol`` (a block residual), plus that of the lifts,
``inner_tol``; compatibility is tested on the frame loads themselves.

``run_forward`` steps over the series it returns: step k reads frame k
of phi and w and writes frame k + 1.  ``step_monodomain`` gives
phi^{k+1}, solving ``config.ops.step_system``, and ``step_bidomain``
gives (phi^{k+1}, psi) from ``assembly.solve_coupled_step``, which
reads the coupled system off ``config.ops``; ``run_forward`` stores
them and makes the gating update.  A step builds its load,
frame-k forcing included, in one fresh array, and raises
``DivergenceError`` when that load is not finite.  A run may stop
early (``steps``), as ``control.simulate`` does after step
n_steps - 1: the frames it does not write are NaN, and its last frame,
which no load of its own reads, is tested as a load would be.

Zero-flux boundary conditions are built into the assembled operators.

A run may carry a batch of controls: I_i and I_e with one leading batch
axis of m members (``FieldSeries``).  The states are then (m, n_nodes)
arrays, and every step and the frame-0 recovery make one ``cg_solve``
call for the whole batch, on the (m, n_nodes) block of its loads: one
row per member, as the states hold them, and one vector for a single
control.  The lift blocks take the frames of all members alike.  Each
member is solved as its own PCG, so a batched run gives each member's
unbatched trajectory to solver precision at the Python cost of one run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import grid as gridmod
from .assembly import (
    SystemOperators,
    bidomain_elliptic_solve,
    compatible_load,
    solve_coupled_step,
    solve_neumann_frames,
)
from .grid import FieldSeries, Grid, ScalarField
from .ionic import IonicParams, gating_exact_update, i_ion
from .linalg import cg_solve, row_product

KINDS = ("monodomain", "bidomain")


class DivergenceError(RuntimeError):
    """A forward step met a non-finite load: the state has blown up."""


@dataclass
class ProblemConfig:
    """Everything a forward run needs.

    I_i and I_e are data/control series with n_steps + 1 frames; the
    dynamics read frames 0..n_steps-1 (each acts over one step).  A
    bidomain run makes I_i + I_e compatible framewise by shifting I_e
    (``compatibility_enforce``).  The operators and every field and
    series must live on ``grid``, and the solver tolerances ``cg_tol``
    and ``inner_tol`` in (0, 1); a config that breaks either raises
    ValueError.  ``no_reaction`` freezes the ionic current and recovery variable
    (pure diffusion), used by the convergence harness.  I_i and I_e may
    carry one leading batch axis between them (``batch_shape``); the
    run then integrates every member at once.
    """

    grid: Grid
    ops: SystemOperators
    ionic: IonicParams
    kind: str
    phi0: ScalarField
    w0: ScalarField
    I_i: FieldSeries
    I_e: FieldSeries
    cg_tol: float = 1e-10
    inner_tol: float = 1e-11
    no_reaction: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind == "bidomain" and self.ops.K_ie is None:
            raise ValueError("bidomain run needs operators with an extracellular tensor")
        for name in ("ops", "phi0", "w0", "I_i", "I_e"):
            other = getattr(self, name).grid
            if other is not self.grid and other != self.grid:
                raise ValueError(f"{name} lives on a different grid")
        for name in ("cg_tol", "inner_tol"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), not {getattr(self, name)}")
        if len(self.batch_shape) > 1:
            raise ValueError(f"a run takes at most one batch axis, not {self.batch_shape}")

    @property
    def batch_shape(self):
        """The broadcast batch axes of I_i and I_e; () for a single run."""
        return np.broadcast_shapes(self.I_i.batch_shape, self.I_e.batch_shape)


@dataclass
class ForwardResult:
    phi_tr: FieldSeries
    w: FieldSeries
    report: dict
    phi_e: FieldSeries | None = None
    I_e_used: FieldSeries | None = None

    def member(self, i):
        """Member i of a batched run as an unbatched result with an empty report.

        Every series is copied, so the result does not keep the batch
        alive; a series without a batch axis is shared by all members.
        """

        def pick(series):
            if series is None:
                return None
            data = series.data[i] if series.batch_shape else series.data
            return FieldSeries(series.grid, data.copy())

        return ForwardResult(
            phi_tr=pick(self.phi_tr),
            w=pick(self.w),
            report={},
            phi_e=pick(self.phi_e),
            I_e_used=pick(self.I_e_used),
        )


def compatibility_enforce(I_i, I_e):
    """Shift each I_e frame (of each batch member) by a constant so int(I_i + I_e) dx = 0."""
    shift = (I_i.data + I_e.data) @ I_e.grid.weights / I_e.grid.measure
    return FieldSeries(I_e.grid, I_e.data - shift[..., None])


def _explicit_part(config, phi, w):
    """phi - dt i_ion(phi, w) in a fresh array."""
    if config.no_reaction:
        return phi.copy()
    out = i_ion(config.ionic, phi, w)
    out *= -config.grid.dt
    out += phi
    return out


def step_monodomain(config, phi, w, k):
    """phi^{k+1} of one monodomain step from phi^k and w^k."""
    A, precond = config.ops.step_system
    dt, lam = config.grid.dt, config.ops.lam
    rhs = _explicit_part(config, phi, w)
    rhs += (dt * lam / (1.0 + lam)) * config.I_i.data[..., k, :]
    rhs -= (dt / (1.0 + lam)) * config.I_e.data[..., k, :]
    rhs *= config.ops.mass
    _check_load(rhs, k)
    return cg_solve(A, rhs, tol=config.cg_tol, precond=precond, x0=phi)


def recover_phi_e(config, phi_tr, k):
    """Extracellular potential at frame k (zero-mean gauge), per batch member."""
    ops = config.ops
    currents = config.I_i.data[..., k, :] + config.I_e.data[..., k, :]
    load = ops.mass * currents - row_product(ops.K_i, phi_tr)
    # ||K_i||_1 ||phi|| bounds the terms of K_i phi, which cancel for a constant phi, and
    # the currents where they cancel against it
    scale = np.abs(ops.K_i.data).sum(axis=0).max() * np.linalg.norm(phi_tr, axis=-1, keepdims=True)
    return bidomain_elliptic_solve(ops, compatible_load(load, scale), tol=config.inner_tol)


def _current_lifts(config, out):
    """Write lift^k = K_ie^+ Mass (I_i + I_e)^k of every frame and member into ``out``.

    ``out``, shaped like the run's series, receives the loads, which
    ``solve_neumann_frames`` replaces in place by their lifts, solved
    to ``inner_tol``.
    """
    np.add(config.I_i.data, config.I_e.data, out=out)
    out *= config.ops.mass
    solve_neumann_frames(config.ops, out, tol=config.inner_tol)


def _check_load(load, k):
    """Raise DivergenceError if the load of step k is not finite."""
    if not np.isfinite(load).all():
        raise DivergenceError(f"non-finite load at step {k + 1}: the potential has blown up")


def _check_frame(frames, k):
    """Raise DivergenceError unless the frames k of the states, written by step k, are finite."""
    if not all(np.isfinite(f).all() for f in frames):
        raise DivergenceError(f"non-finite state after step {k}: the potential has blown up")


def step_bidomain(config, phi, w, k):
    """(phi^{k+1}, psi) of one bidomain step from phi^k and w^k.

    psi is phi_e^{k+1} with the frame-k currents (module docstring).
    """
    dt, mass = config.grid.dt, config.ops.mass
    I_i, I_e = config.I_i.data[..., k, :], config.I_e.data[..., k, :]
    f = _explicit_part(config, phi, w)
    f += dt * I_i
    f *= mass
    _check_load(f, k)
    currents = I_i + I_e
    currents *= dt * mass
    return solve_coupled_step(config.ops, f, currents, tol=config.cg_tol)


def run_forward(config, *, report=True, steps=None):
    """Integrate the system over the first ``steps`` steps (all by default).

    Step k reads frame k of the returned series and writes frame k + 1.
    A run of fewer steps than ``grid.n_steps`` leaves the frames after
    frame ``steps`` NaN, in every series it returns, and raises
    ``DivergenceError`` when frame ``steps``, which no load test of
    its own reads, is not finite; it has no norm report, so
    ``report=True`` rejects it (ValueError).  A batched config
    (``ProblemConfig.batch_shape``) gives series with the same batch
    axis, one trajectory per member; the norm report reads single
    series, so ``report=True`` rejects a batch.  For a bidomain run,
    phi_e is psi of each step plus the change of the current lifts
    (module docstring): it is accurate to ``cg_tol`` of the coupled
    step plus ``inner_tol`` of the lifts, and frame 0, which is
    recovered, to ``inner_tol``.
    """
    g = config.grid
    bidomain = config.kind == "bidomain"
    batch = config.batch_shape
    steps = g.n_steps if steps is None else steps
    if not 0 <= steps <= g.n_steps:
        raise ValueError(f"run_forward takes 0 to {g.n_steps} steps, not {steps}")
    if report and steps < g.n_steps:
        raise ValueError(f"run_forward(report=True) needs all {g.n_steps} steps, not {steps}")
    if report:
        for series in (config.I_i, config.I_e):
            series.require_unbatched("run_forward(report=True)")

    if bidomain:
        config = replace(config, I_e=compatibility_enforce(config.I_i, config.I_e))

    phi_e = None
    if bidomain:
        # phi_e holds the lifts until each step overwrites its frame; they
        # are solved before phi and w exist, which keeps the peak low.  A
        # shorter run solves them all too: its blocks keep their rows,
        # whose BLAS products round each row as in the full run
        phi_e = FieldSeries.zeros(g, batch)
        _current_lifts(config, phi_e.data)
        lift = phi_e.data[..., 0, :].copy()
        phi_e.data[..., 0, :] = recover_phi_e(config, config.phi0.values, 0)
    phi = FieldSeries.zeros(g, batch)
    w = FieldSeries.zeros(g, batch)
    phi.data[..., 0, :] = config.phi0.values
    w.data[..., 0, :] = config.w0.values

    for k in range(steps):
        phi_k, w_k = phi.data[..., k, :], w.data[..., k, :]
        if bidomain:
            phi_next, psi = step_bidomain(config, phi_k, w_k, k)
            # phi_e^{k+1} = psi + lift^{k+1} - lift^k, in place of lift^{k+1}
            frame = phi_e.data[..., k + 1, :]
            psi -= lift
            lift = frame.copy()
            frame += psi
        else:
            phi_next = step_monodomain(config, phi_k, w_k, k)
        phi.data[..., k + 1, :] = phi_next
        if config.no_reaction:
            w.data[..., k + 1, :] = w_k
        else:
            w.data[..., k + 1, :] = gating_exact_update(config.ionic, w_k, phi_k, phi_next, g.dt)

    if steps < g.n_steps:
        states = [phi, w] + ([phi_e] if bidomain else [])
        _check_frame([s.data[..., steps, :] for s in states], steps)
        for s in states:
            s.data[..., steps + 1 :, :] = np.nan
    rep = forward_report(config, phi, w, phi_e) if report else {}
    return ForwardResult(phi_tr=phi, w=w, report=rep, phi_e=phi_e, I_e_used=config.I_e)


def forward_report(config, phi, w, phi_e=None):
    """Trajectory norm bundle for the energy estimates, as ``{name: float}``.

    Includes the C0-in-time L2 norms, the L2-in-time H1 norm, the
    space-time L4 norm, the L4-in-time H1 monitor, and dual-norm rates
    of change of phi (L^{4/3} in time) and w (L^2 in time).

    One pass over the blocks of frames of phi and w
    (``grid.frame_blocks``).  A block gives the L2 and L4 norms of phi
    and the L2 norm of w from one squared block, and the H1 and dual
    norms from one batched DCT-I per block and series
    (``SpectralBasis.coefficients``).
    The coefficients are linear in the frames, so a rate's coefficients
    are the differences of the frames' coefficients divided by dt; the
    last coefficient row of each block is carried to the next.
    """
    g = config.grid
    dt = g.dt
    # squared frame norms (the fourth power for L4), rooted after the pass
    l2_phi, l4_phi, h1_phi, l2_w, dphi, dw = sq_norms = np.empty((6, phi.n_frames))
    last_phi = last_w = None
    for s in gridmod.frame_blocks(phi.n_frames, g.n_nodes, gridmod.NORM_BLOCK_VALUES):
        dw[s], last_w = _rate_sq(g, g.spectral.coefficients(w.data[s]), last_w)
        c_phi = g.spectral.coefficients(phi.data[s])
        h1_phi[s] = (c_phi * c_phi) @ g.h1_weights
        dphi[s], last_phi = _rate_sq(g, c_phi, last_phi)
        sq = phi.data[s] * phi.data[s]
        l2_phi[s] = sq @ g.weights
        sq *= sq
        l4_phi[s] = sq @ g.weights
        np.multiply(w.data[s], w.data[s], out=sq)
        l2_w[s] = sq @ g.weights
        del c_phi, sq  # out of the peak of the next block's transforms
    l4_phi **= 0.5
    np.sqrt(sq_norms, out=sq_norms)
    # frame 0 has no rate, and the dt of the rates divides their norms
    dphi, dw = dphi[1:] / dt, dw[1:] / dt
    rep = {
        "C0_L2_phi": gridmod.time_norm(g, l2_phi, np.inf),
        "L2_H1_phi": gridmod.time_norm(g, h1_phi, 2),
        "L4_OmegaT_phi": gridmod.time_norm(g, l4_phi, 4),
        "L4_H1_phi": gridmod.time_norm(g, h1_phi, 4),
        "C0_L2_w": gridmod.time_norm(g, l2_w, np.inf),
        "L43_dual_dphi_dt": float((dt * np.sum(dphi ** (4.0 / 3.0))) ** 0.75),
        "L2_dual_dw_dt": float(np.sqrt(dt * np.sum(dw**2))),
    }
    if phi_e is not None:
        rep["L2_H1_phie"] = gridmod.bochner_norm(phi_e, 2, "H1")
    return gridmod.checked_norms(rep)


def _rate_sq(grid, coeffs, before):
    """Squared dual norms of dt times the rates into the frames with these coefficients.

    ``before`` holds the coefficients of the frame before the first
    row, or None for frame 0, whose rate is then zero.  Overwrites
    ``coeffs`` with the squared differences.  Returns the norms and
    the last row of ``coeffs`` as it came in, the ``before`` of the
    next block.
    """
    last = coeffs[-1].copy()
    first = coeffs[0] if before is None else before
    coeffs[1:] -= coeffs[:-1]  # numpy buffers the overlap
    coeffs[0] -= first
    coeffs *= coeffs
    return coeffs @ grid.dual_weights, last
