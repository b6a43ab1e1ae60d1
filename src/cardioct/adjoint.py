"""Backward (adjoint) integration for tracking-type costs.

The adjoint system runs backward from zero terminal data with the same
IMEX structure as the forward sweep: diffusion implicit, reaction
coefficients frozen at the forward snapshot, and the recovery adjoint
updated with the exact exponential decay factor.  For frame k (one
step of reversed time, alpha = e^{-eps dt}):

    p3^k = alpha p3^{k+1} - dt (di_ion/dw)^k p1^{k+1} - dt r_w^k
    (Mass + dt D) p1^k = Mass [ (1 - dt (di_ion/dphi)^k) p1^{k+1}
                                + (1-alpha)/2 (s'(pb^k) p3^{k+1}
                                               + s'(pb^{k-1}) p3^k)
                                - dt r_phi^k ]           (+ eta lift)

where pb^k is the step-midpoint potential (phi^k + phi^{k+1})/2 and
(r_phi, r_eta, r_w) are the running-cost partials.  D is the
monodomain operator or the reduced bidomain operator
A_h = K_i - K_i K_ie^+ K_i.  In the bidomain case the p1 equation
carries the eta-tracking lift dt K_i psi_eta^k, with
K_ie psi_eta^k = Mass r_eta^k, and the zero-mean elliptic multiplier

    K_ie p2^k = -K_i p1^k - Mass r_eta^k        (zero-mean gauge)

is stored per frame (r_eta shifted to weighted zero mean throughout).
The shift's term Mass mean cancels in an eta load Mass r_bar (wholly,
for a constant r_eta), so each load is judged against the norm
|mean| ||Mass|| of that term as its ``scale`` (``assembly.solve_neumann``).
Both come from one solve of the forward step's coupled block system
(``assembly.solve_coupled_step``) with the load [rhs; -dt Mass r_eta]:
its Schur complement on p1 is the lifted p1 equation, and its second
block is p2.  psi_eta itself is still solved for, because the control
gradient reads it; it depends on the data only, so the loads of all
frames are formed before the sweep and solved in place, in blocks of
frames (``assembly.solve_neumann_frames``).

``run_adjoint`` steps over the series it returns: step k reads frame
k + 1 and writes frame k, in place, with the cost partials of frame k;
a zero weight or an absent target costs nothing.  The slope
s'(pb^{k-1}) that step k evaluates is the s'(pb^k) of step k - 1,
which reuses it; a linear source (fhn, rm) has the float slope kappa
and forms no midpoint.  Step 0 uses s'(pb^0) in place of s'(pb^{-1}).

With the running cost integrated by the left-rectangle rule in time,
this backward sweep is the exact discrete transpose of the forward
scheme, which is what makes the finite-difference gradient checks in
``verify`` agree to solver precision.

A sweep may stop above frame 0 (``lowest_frame``), as the reduced
gradient, which reads frames 1..n_steps, lets it.  Such a truncated
sweep reads no trajectory frame above n_steps - 1, the frames of a
truncated forward run (``forward.run_forward``): the terms of step
n_steps - 1 that multiply p3^n = 0 drop (the ``ap`` slope s'(pb^{n-1})
reads phi^n), and p2^n = -psi_eta^n is not formed, because the
gradient takes p2^n + psi_eta^n = 0 as such: the eta load of frame
n_steps, which reads phi_e^n, is left a zero row of the psi_eta block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .assembly import solve_coupled_step, solve_neumann_frames
from .grid import FieldSeries
from .ionic import d_i_ion, midpoint_source_slope
from .linalg import cg_solve


@dataclass
class CostConfig:
    """Tracking cost
    J = int_0^T int_Omega [ w_phi/2 (phi - phi_des)^2
                            + w_eta/2 (phi_e - eta_des)^2
                            + w_gate/2 w^2 ] dx dt
        + mu/2 ||I_e||^2 over the control window Omega_con x (0,T).

    Absent targets mean zero targets; ``mask`` is the nodal indicator
    of Omega_con (None = everywhere).  The eta term applies to
    bidomain runs only.  Time integrals use the left-rectangle rule
    over the frames (weight dt on frames 0..n_steps-1), so the final
    frame of the control is inert: it neither drives the dynamics nor
    enters the cost.
    """

    mu: float = 1e-2
    w_phi: float = 1.0
    w_eta: float = 0.0
    w_gate: float = 0.0
    phi_des: FieldSeries | None = None
    eta_des: FieldSeries | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        for name in ("mu", "w_phi", "w_eta", "w_gate"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=float).ravel()

    def mask_values(self, grid):
        if self.mask is None:
            return np.ones(grid.n_nodes)
        if self.mask.size != grid.n_nodes:
            raise ValueError("mask does not match grid")
        return self.mask


@dataclass
class AdjointResult:
    p1: FieldSeries
    p3: FieldSeries
    report: dict
    p2: FieldSeries | None = None
    psi_eta: FieldSeries | None = None


def _partial(weight, series, target, k):
    """weight (series - target) at frames k (an index, a slice or Ellipsis), in a fresh array."""
    if target is None:
        return weight * series.data[k]
    r = series.data[k] - target.data[k]
    r *= weight
    return r


def run_adjoint(config, traj, cost, *, report=True, lowest_frame=0):
    """Integrate the adjoint system backward from zero terminal data.

    Returns the multiplier trajectories with n_steps + 1 frames each;
    the terminal frames of p1 and p3 are identically zero.  Step k
    reads frame k + 1 of the returned series and writes frame k, down
    to frame ``lowest_frame``.  A sweep that stops above frame 0 is
    truncated: p1, p3 and p2 are NaN below ``lowest_frame``, p2 and
    psi_eta are NaN at frame n_steps, and it reads no frame of ``traj``
    above n_steps - 1 (module docstring); it has no norm report, so
    ``report=True`` rejects it (ValueError).  The sweep reads single
    trajectories: a batched config or trajectory raises ValueError.
    p1, p3 and p2 are allocated unfilled, and every frame is written.
    """
    for series in (config.I_i, config.I_e, traj.phi_tr):
        series.require_unbatched("run_adjoint")
    if cost.w_eta != 0.0 and config.kind != "bidomain":
        raise ValueError("tracking the extracellular potential needs a bidomain run")
    g = config.grid
    n, dt, ops = g.n_steps, g.dt, config.ops
    if not 0 <= lowest_frame <= n:
        raise ValueError(f"run_adjoint stops at a frame from 0 to {n}, not {lowest_frame}")
    truncated = lowest_frame > 0
    if report and truncated:
        raise ValueError(f"run_adjoint(report=True) sweeps down to frame 0, not {lowest_frame}")
    bidomain = config.kind == "bidomain"
    reaction = not config.no_reaction
    alpha = float(np.exp(-config.ionic.eps * dt)) if reaction else 1.0
    phi, w = traj.phi_tr.data, traj.w.data

    def slope(k):
        """(1 - alpha)/2 s'(pb^k) at the midpoint of step k."""
        return 0.5 * (1.0 - alpha) * midpoint_source_slope(config.ionic, phi[k], phi[k + 1])

    mass_norm = np.linalg.norm(ops.mass)

    def mass_zero_mean(r):
        """Mass r_bar of each row of ``r``, shifted to weighted zero mean in place.

        Returns ``r`` and the norm |mean| ||Mass|| of the shift's term,
        which cancels in it, of each row (module docstring).
        """
        mean = (r @ g.weights)[..., None] / g.measure
        r -= mean
        r *= ops.mass
        return r, np.abs(mean) * mass_norm

    def eta_load(k, weight):
        """weight Mass r_bar^k of the zero-mean eta-tracking partial of frame k, and its scale."""
        return mass_zero_mean(_partial(weight * cost.w_eta, traj.phi_e, cost.eta_des, k))

    p2 = psi_eta = None
    track_eta = bidomain and cost.w_eta != 0.0
    if bidomain:
        # psi_eta reads the data only: solved for every frame before the
        # sweep, and before the other multipliers exist, to keep the peak low
        if track_eta:
            # a truncated sweep leaves frame n a zero load: the block keeps
            # its n + 1 rows, whose BLAS products round every row as in the
            # full sweep (a block of n rows rounds them differently)
            psi_eta = FieldSeries.empty(g)
            top = n if truncated else n + 1
            psi_eta.data[:top] = _partial(cost.w_eta, traj.phi_e, cost.eta_des, slice(0, top))
            psi_eta.data[top:] = 0.0
            loads, scale = mass_zero_mean(psi_eta.data)
            solve_neumann_frames(ops, loads, tol=config.inner_tol, scale=scale)
        else:
            psi_eta = FieldSeries.zeros(g)
        no_eta_load = np.zeros(g.n_nodes)
    # unfilled: the sweep writes frames lowest_frame..n - 1, and the
    # terminal frame and the frames below the sweep are written here
    p1 = FieldSeries.empty(g)
    p3 = FieldSeries.empty(g)
    p1.data[n] = p3.data[n] = 0.0
    if bidomain:
        p2 = FieldSeries.empty(g)
        # Terminal elliptic multiplier from the terminal cost partials
        # (p1(T) = 0, so only the eta term can contribute); the reduced
        # gradient reads p2^n + psi_eta^n = 0, so a truncated sweep forms neither
        if truncated:
            p2.data[n] = psi_eta.data[n] = np.nan
        else:
            p2.data[n] = -psi_eta.data[n]
    for series in (p1, p3, p2) if bidomain else (p1, p3):
        series.data[:lowest_frame] = np.nan  # below the sweep

    # s'_k of step k is s'_{k-1} of step k + 1; s'_{-1} is taken as s'_0.
    # s'_{n-1} multiplies p3^n = 0: a truncated sweep, which never reuses
    # it at step 0, takes it as 0 and so reads no phi^n
    sp_k = slope(n - 1) if reaction and not truncated else 0.0
    for k in range(n - 1, lowest_frame - 1, -1):
        p1_next, p3_next, p3_k = p1.data[k + 1], p3.data[k + 1], p3.data[k]
        # p3^k = alpha p3^{k+1} - dt r_w^k - dt (di_ion/dw)^k p1^{k+1}
        np.multiply(p3_next, alpha, out=p3_k)
        if cost.w_gate != 0.0:
            p3_k -= _partial(dt * cost.w_gate, traj.w, None, k)
        # the p1 load, accumulated in the array of di_ion/dphi
        if reaction:
            F, f_w = d_i_ion(config.ionic, phi[k], w[k])
            term = f_w * p1_next
            term *= dt
            p3_k -= term
            sp_prev = slope(k - 1) if k else sp_k
            rhs = F
            rhs *= -dt
            rhs += 1.0
            rhs *= p1_next
            rhs += sp_k * p3_next
            rhs += sp_prev * p3_k
            sp_k = sp_prev
        else:
            rhs = p1_next.copy()
        if cost.w_phi != 0.0:
            rhs -= _partial(dt * cost.w_phi, traj.phi_tr, cost.phi_des, k)
        rhs *= ops.mass
        if bidomain:
            eta, scale = eta_load(k, -dt) if track_eta else (no_eta_load, 0.0)
            p1.data[k], p2.data[k] = solve_coupled_step(
                ops, rhs, eta, tol=config.cg_tol, scale=scale
            )
        else:
            A, precond = ops.step_system
            p1.data[k] = cg_solve(A, rhs, tol=config.cg_tol, precond=precond, x0=p1_next)

    rep = adjoint_report(p1, p3, p2, cost, traj) if report else {}
    return AdjointResult(p1=p1, p3=p3, report=rep, p2=p2, psi_eta=psi_eta)


def adjoint_report(p1, p3, p2, cost, traj):
    """Norm bundle for the adjoint energy estimate, as ``{name: float}``.

    The running-cost partials of the trajectory ``traj`` are formed and
    normed one block of frames at a time (``grid.frame_blocks``); a
    zero weight or an absent series gives 0.
    """
    h1_p1 = gridmod.h1_frame_norms(p1)
    rep = {
        "C0_L2_p1": gridmod.bochner_norm(p1, np.inf, "L2"),
        "L2_H1_p1": gridmod.time_norm(p1.grid, h1_p1, 2),
        "L4_H1_p1": gridmod.time_norm(p1.grid, h1_p1, 4),
        "C0_L2_p3": gridmod.bochner_norm(p3, np.inf, "L2"),
    }
    if p2 is not None:
        rep["L2_H1_p2"] = gridmod.bochner_norm(p2, 2, "H1")
    terms = (
        ("r_phi", cost.w_phi, traj.phi_tr, cost.phi_des),
        ("r_eta", cost.w_eta, traj.phi_e, cost.eta_des),
        ("r_w", cost.w_gate, traj.w, None),
    )
    for name, weight, series, target in terms:
        rep[f"L2_L2_{name}"] = (
            0.0 if weight == 0.0 or series is None else _partial_norm(weight, series, target)
        )
    return gridmod.checked_norms(rep)


def _partial_norm(weight, series, target):
    """L2(0,T;L2) norm of the partial weight (series - target), trapezoid in time."""

    def l2(s):
        r = _partial(weight, series, target, s)
        r *= r
        return np.sqrt(r @ series.grid.weights)

    return gridmod.time_norm(series.grid, gridmod.block_norms(series, l2), 2)
