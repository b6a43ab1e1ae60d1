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
(r_phi, r_eta, r_w) are the running-cost partials, evaluated once per
frame.  D is the monodomain operator or the reduced bidomain operator
A_h = K_i - K_i K_ie^+ K_i.  In the bidomain case the p1 equation
carries the eta-tracking lift dt K_i psi_eta^k, with
K_ie psi_eta^k = Mass r_eta^k, and the zero-mean elliptic multiplier

    K_ie p2^k = -K_i p1^k - Mass r_eta^k        (zero-mean gauge)

is stored per frame (r_eta shifted to weighted zero mean throughout).
Both come from one solve of the forward step's coupled block system
(``assembly.solve_coupled_step``) with the load [rhs; -dt Mass r_eta]:
its Schur complement on p1 is the lifted p1 equation, and its second
block is p2.  psi_eta itself is still solved for, because the control
gradient reads it.

With the running cost integrated by the left-rectangle rule in time,
this backward sweep is the exact discrete transpose of the forward
scheme, which is what makes the finite-difference gradient checks in
``verify`` agree to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .assembly import reduced_operator, solve_coupled_step, solve_neumann
from .forward import ForwardResult, ProblemConfig
from .grid import FieldSeries, NormReport, ScalarField
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
class AdjointState:
    """Adjoint fields at one time level (p2 only for bidomain runs)."""

    p1: np.ndarray
    p3: np.ndarray
    t: float
    p2: np.ndarray | None = None


@dataclass
class AdjointResult:
    p1: FieldSeries
    p3: FieldSeries
    report: NormReport
    p2: FieldSeries | None = None
    psi_eta: FieldSeries | None = None


def cost_partials(cost, traj, k):
    """Running-cost partials (r_phi, r_eta, r_w) at frame k."""
    phi = traj.phi_tr.data[k]
    r_phi = cost.w_phi * (
        phi - (cost.phi_des.data[k] if cost.phi_des is not None else 0.0)
    )
    if cost.w_eta > 0 and traj.phi_e is not None:
        eta = traj.phi_e.data[k]
        r_eta = cost.w_eta * (
            eta - (cost.eta_des.data[k] if cost.eta_des is not None else 0.0)
        )
    else:
        r_eta = np.zeros_like(phi)
    r_w = cost.w_gate * traj.w.data[k]
    return r_phi, r_eta, r_w


class _BackwardSweep:
    """Shared machinery for the monodomain/bidomain backward steps."""

    def __init__(self, config, traj, cost):
        self.config = config
        self.traj = traj
        self.cost = cost
        g = config.grid
        self.dt = g.dt
        self.mass = config.ops.mass
        if config.no_reaction:
            self.alpha = 1.0
        else:
            self.alpha = float(np.exp(-config.ionic.eps * self.dt))
        self.bidomain = config.kind == "bidomain"
        if self.bidomain:
            self.system = reduced_operator(config.ops, self.dt)
        else:
            self.system = config.monodomain_system()

    def reaction_coeffs(self, k):
        """(F, f_w, s'_k, s'_{k-1}) frozen at the forward snapshot."""
        cfg = self.config
        if cfg.no_reaction:
            z = np.zeros(cfg.grid.n_nodes)
            return z, z, z, z
        phi = self.traj.phi_tr.data
        w = self.traj.w.data
        F, f_w = d_i_ion(cfg.ionic, phi[k], w[k])
        mid = 0.5 * (phi[k] + phi[k + 1])
        sp_k = gating_source_slope(cfg.ionic, mid)
        if k >= 1:
            mid_prev = 0.5 * (phi[k - 1] + phi[k])
            sp_prev = gating_source_slope(cfg.ionic, mid_prev)
        else:
            sp_prev = sp_k
        return F, f_w, sp_k, sp_prev

    def eta_load(self, r_eta):
        """Mass r_bar of the weighted-zero-mean eta-tracking partial (bidomain)."""
        g = self.config.grid
        return self.mass * (r_eta - (g.weights @ r_eta) / g.measure)

    def eta_lift(self, load):
        """Zero-mean lift psi_eta, K_ie psi_eta = ``load`` (bidomain)."""
        return solve_neumann(self.config.ops, load, tol=self.config.inner_tol)

    def step(self, adj, k, partials):
        """One backward step, from level k+1 data in ``adj`` to level k.

        ``partials`` are the running-cost partials (r_phi, r_eta, r_w)
        at frame k.
        """
        dt, alpha, mass = self.dt, self.alpha, self.mass
        r_phi, r_eta, r_w = partials
        F, f_w, sp_k, sp_prev = self.reaction_coeffs(k)

        p3 = alpha * adj.p3 - dt * f_w * adj.p1 - dt * r_w
        rhs_nodal = (
            (1.0 - dt * F) * adj.p1
            + 0.5 * (1.0 - alpha) * (sp_k * adj.p3 + sp_prev * p3)
            - dt * r_phi
        )
        rhs = mass * rhs_nodal

        if not self.bidomain:
            A, precond = self.system
            p1 = cg_solve(A, rhs, tol=self.config.cg_tol, precond=precond, x0=adj.p1)
            return AdjointState(p1=p1, p3=p3, t=k * dt), None
        load = self.eta_load(r_eta)
        p1, p2 = solve_coupled_step(
            self.config.ops, self.system, rhs, -dt * load, tol=self.config.cg_tol
        )
        return AdjointState(p1=p1, p3=p3, t=k * dt, p2=p2), self.eta_lift(load)


def run_adjoint(config, traj, cost, *, report=True):
    """Integrate the adjoint system backward from zero terminal data.

    Returns the multiplier trajectories with n_steps + 1 frames each;
    the terminal frames of p1 and p3 are identically zero.
    """
    if cost.w_eta != 0.0 and config.kind != "bidomain":
        raise ValueError("tracking the extracellular potential needs a bidomain run")
    g = config.grid
    n = g.n_steps
    sweep = _BackwardSweep(config, traj, cost)

    p1 = FieldSeries.zeros(g)
    p3 = FieldSeries.zeros(g)
    p2 = FieldSeries.zeros(g) if sweep.bidomain else None
    psi_eta = FieldSeries.zeros(g) if sweep.bidomain else None
    names = ("r_phi", "r_eta", "r_w")
    r_series = {name: FieldSeries.zeros(g) for name in names}
    for k in range(n + 1):
        for name, r in zip(names, cost_partials(cost, traj, k)):
            r_series[name].data[k] = r

    if sweep.bidomain:
        # Terminal elliptic multiplier from the terminal cost partials
        # (p1(T) = 0, so only the eta term can contribute).
        psi_eta.data[n] = sweep.eta_lift(sweep.eta_load(r_series["r_eta"].data[n]))
        p2.data[n] = -psi_eta.data[n]

    state = AdjointState(p1=p1.data[n].copy(), p3=p3.data[n].copy(), t=g.T)
    for k in range(n - 1, -1, -1):
        partials = tuple(r_series[name].data[k] for name in names)
        state, lift = sweep.step(state, k, partials)
        p1.data[k] = state.p1
        p3.data[k] = state.p3
        if sweep.bidomain:
            p2.data[k] = state.p2
            psi_eta.data[k] = lift

    rep = adjoint_report(config, p1, p3, p2, r_series) if report else NormReport()
    return AdjointResult(p1=p1, p3=p3, report=rep, p2=p2, psi_eta=psi_eta)


def adjoint_report(config, p1, p3, p2, r_series):
    """Norm bundle for the adjoint energy estimate."""
    rep = NormReport()
    rep["C0_L2_p1"] = gridmod.bochner_norm(p1, np.inf, "L2")
    h1_p1 = gridmod.h1_frame_norms(p1)
    rep["L2_H1_p1"] = gridmod.time_norm(p1.grid, h1_p1, 2)
    rep["L4_H1_p1"] = gridmod.time_norm(p1.grid, h1_p1, 4)
    rep["C0_L2_p3"] = gridmod.bochner_norm(p3, np.inf, "L2")
    if p2 is not None:
        rep["L2_H1_p2"] = gridmod.bochner_norm(p2, 2, "H1")
    for name, series in r_series.items():
        rep[f"L2_L2_{name}"] = gridmod.bochner_norm(series, 2, "L2")
    return rep.check()
