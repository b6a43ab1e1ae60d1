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
(r_phi, r_eta, r_w) are the running-cost partials, evaluated for all
frames at once.  D is the monodomain operator or the reduced bidomain
operator A_h = K_i - K_i K_ie^+ K_i.  In the bidomain case the p1 equation
carries the eta-tracking lift dt K_i psi_eta^k, with
K_ie psi_eta^k = Mass r_eta^k, and the zero-mean elliptic multiplier

    K_ie p2^k = -K_i p1^k - Mass r_eta^k        (zero-mean gauge)

is stored per frame (r_eta shifted to weighted zero mean throughout).
Both come from one solve of the forward step's coupled block system
(``assembly.solve_coupled_step``) with the load [rhs; -dt Mass r_eta]:
its Schur complement on p1 is the lifted p1 equation, and its second
block is p2.  psi_eta itself is still solved for, because the control
gradient reads it; it depends on the data only, so all its frames are
solved before the sweep, in blocks of frames
(``assembly.solve_neumann_frames``).

``run_adjoint`` steps over the series it returns: step k reads frame
k + 1 and writes frame k.  The slope s'(pb^{k-1}) that step k
evaluates is the s'(pb^k) of step k - 1, which reuses it, so each
midpoint slope is evaluated once per sweep.  Step 0 uses s'(pb^0) in
place of s'(pb^{-1}).

With the running cost integrated by the left-rectangle rule in time,
this backward sweep is the exact discrete transpose of the forward
scheme, which is what makes the finite-difference gradient checks in
``verify`` agree to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .assembly import solve_coupled_step, solve_neumann_frames
from .grid import FieldSeries, NormReport
from .ionic import d_i_ion, gating_source_slope
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
        if self.mu < 0 or self.w_phi < 0 or self.w_eta < 0 or self.w_gate < 0:
            raise ValueError("cost weights must be nonnegative")
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
    report: NormReport
    p2: FieldSeries | None = None
    psi_eta: FieldSeries | None = None


def cost_partials(cost, traj):
    """Running-cost partials (r_phi, r_eta, r_w), each for every frame."""
    phi = traj.phi_tr.data
    r_phi = cost.w_phi * (phi - (cost.phi_des.data if cost.phi_des is not None else 0.0))
    if cost.w_eta > 0 and traj.phi_e is not None:
        r_eta = cost.w_eta * (
            traj.phi_e.data - (cost.eta_des.data if cost.eta_des is not None else 0.0)
        )
    else:
        r_eta = np.zeros_like(phi)
    r_w = cost.w_gate * traj.w.data
    return r_phi, r_eta, r_w


def run_adjoint(config, traj, cost, *, report=True):
    """Integrate the adjoint system backward from zero terminal data.

    Returns the multiplier trajectories with n_steps + 1 frames each;
    the terminal frames of p1 and p3 are identically zero.  Step k
    reads frame k + 1 of the returned series and writes frame k.  The
    sweep reads single trajectories: a batched config or trajectory
    raises ValueError.
    """
    for series in (config.I_i, config.I_e, traj.phi_tr):
        series.require_unbatched("run_adjoint")
    if cost.w_eta != 0.0 and config.kind != "bidomain":
        raise ValueError("tracking the extracellular potential needs a bidomain run")
    g = config.grid
    n, dt, ops = g.n_steps, g.dt, config.ops
    bidomain = config.kind == "bidomain"
    alpha = 1.0 if config.no_reaction else float(np.exp(-config.ionic.eps * dt))
    system = config.step_system()
    phi, w = traj.phi_tr.data, traj.w.data
    partials = cost_partials(cost, traj)
    r_phi, r_eta, r_w = partials
    zero = np.zeros(g.n_nodes)

    def slope(k):
        """s'(pb^k) at the midpoint of step k (zero without reaction)."""
        if config.no_reaction:
            return zero
        return gating_source_slope(config.ionic, 0.5 * (phi[k] + phi[k + 1]))

    def eta_load(k):
        """Mass r_bar^k of the weighted-zero-mean eta-tracking partial.

        ``k`` is one frame, or an index of frames (one load per row).
        """
        r = r_eta[k]
        return ops.mass * (r - (r @ g.weights)[..., None] / g.measure)

    p2 = psi_eta = None
    if bidomain:
        # psi_eta reads the data only: solved for every frame before the
        # sweep, and before the other multipliers exist, to keep the peak low
        psi_eta = FieldSeries.zeros(g)
        solve_neumann_frames(ops, eta_load, psi_eta.data, tol=config.inner_tol)
    p1 = FieldSeries.zeros(g)
    p3 = FieldSeries.zeros(g)
    if bidomain:
        p2 = FieldSeries.zeros(g)
        # Terminal elliptic multiplier from the terminal cost partials
        # (p1(T) = 0, so only the eta term can contribute).
        p2.data[n] = -psi_eta.data[n]

    # s'_k of step k is s'_{k-1} of step k + 1; s'_{-1} is taken as s'_0
    sp_k = slope(n - 1)
    for k in range(n - 1, -1, -1):
        sp_prev = slope(k - 1) if k else sp_k
        if config.no_reaction:
            F = f_w = zero
        else:
            F, f_w = d_i_ion(config.ionic, phi[k], w[k])
        p1_next, p3_next = p1.data[k + 1], p3.data[k + 1]
        p3.data[k] = alpha * p3_next - dt * f_w * p1_next - dt * r_w[k]
        rhs = ops.mass * (
            (1.0 - dt * F) * p1_next
            + 0.5 * (1.0 - alpha) * (sp_k * p3_next + sp_prev * p3.data[k])
            - dt * r_phi[k]
        )
        if bidomain:
            p1.data[k], p2.data[k] = solve_coupled_step(
                ops, system, rhs, -dt * eta_load(k), tol=config.cg_tol
            )
        else:
            A, precond = system
            p1.data[k] = cg_solve(A, rhs, tol=config.cg_tol, precond=precond, x0=p1_next)
        sp_k = sp_prev

    rep = adjoint_report(config, p1, p3, p2, partials) if report else NormReport()
    return AdjointResult(p1=p1, p3=p3, report=rep, p2=p2, psi_eta=psi_eta)


def adjoint_report(config, p1, p3, p2, partials):
    """Norm bundle for the adjoint energy estimate."""
    rep = NormReport()
    rep["C0_L2_p1"] = gridmod.bochner_norm(p1, np.inf, "L2")
    h1_p1 = gridmod.h1_frame_norms(p1)
    rep["L2_H1_p1"] = gridmod.time_norm(p1.grid, h1_p1, 2)
    rep["L4_H1_p1"] = gridmod.time_norm(p1.grid, h1_p1, 4)
    rep["C0_L2_p3"] = gridmod.bochner_norm(p3, np.inf, "L2")
    if p2 is not None:
        rep["L2_H1_p2"] = gridmod.bochner_norm(p2, 2, "H1")
    for name, r in zip(("r_phi", "r_eta", "r_w"), partials):
        rep[f"L2_L2_{name}"] = gridmod.bochner_norm(FieldSeries(p1.grid, r), 2, "L2")
    return rep.check()
