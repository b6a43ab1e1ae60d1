"""Forward time integration of the monodomain and bidomain systems.

One step treats diffusion implicitly, the ionic reaction explicitly at
the step's left endpoint, and the recovery variable by its exact
exponential relaxation with the source at the step midpoint:

    (Mass + dt D) phi^{k+1} = Mass (phi^k - dt i_ion^k) + dt F^k
    w^{k+1} = e^{-eps dt} w^k + (1 - e^{-eps dt}) s((phi^k + phi^{k+1})/2)

For the monodomain system D = (lam/(1+lam)) K_i and the forcing is
F^k = Mass (lam I_i^k - I_e^k)/(1+lam).  For the bidomain system D is
the reduced Schur operator A_h (matrix-free, nested elliptic solve) and
F^k is the reduced forcing from ``assembly.reduced_rhs_S``; the
extracellular potential is recovered at every stored frame from
K_ie phi_e = Mass (I_i + I_e) - K_i phi_tr with zero-mean gauge.

Zero-flux boundary conditions are built into the assembled operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .assembly import SystemOperators, bidomain_elliptic_solve, reduced_operator, reduced_rhs_S
from .grid import FieldSeries, Grid, NormReport, ScalarField
from .ionic import IonicParams, gating_exact_update, i_ion
from .linalg import cg_solve

KINDS = ("monodomain", "bidomain")


class DivergenceError(RuntimeError):
    """A forward step produced non-finite values."""


@dataclass
class SystemState:
    """Fields at one time level."""

    phi_tr: np.ndarray
    w: np.ndarray
    t: float
    phi_e: np.ndarray | None = None


@dataclass
class ProblemConfig:
    """Everything a forward run needs.

    I_i and I_e are data/control series with n_steps + 1 frames; the
    dynamics read frames 0..n_steps-1 (each acts over one step).  For
    bidomain runs the compatibility of I_i + I_e is enforced framewise
    unless ``enforce_compatibility`` is switched off, in which case
    incompatible data raises CompatibilityError in the elliptic solves.
    ``no_reaction`` freezes the ionic current and recovery variable
    (pure diffusion), used by the convergence harness.
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
    enforce_compatibility: bool = True
    no_reaction: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind == "bidomain" and self.ops.K_ie is None:
            raise ValueError("bidomain run needs operators with an extracellular tensor")
        for name in ("I_i", "I_e"):
            series = getattr(self, name)
            if series.grid != self.grid:
                raise ValueError(f"{name} lives on a different grid")

    def monodomain_system(self):
        """Implicit matrix Mass + dt (lam/(1+lam)) K_i and its spectral preconditioner."""
        return self.ops.step_system(self.grid.dt * self.ops.lam / (1.0 + self.ops.lam))


@dataclass
class ForwardResult:
    phi_tr: FieldSeries
    w: FieldSeries
    report: NormReport
    phi_e: FieldSeries | None = None
    I_e_used: FieldSeries | None = None


def compatibility_enforce(grid, I_i, I_e):
    """Shift each I_e frame by a constant so int(I_i + I_e) dx = 0."""
    shift = (I_i.data + I_e.data) @ grid.weights / grid.measure
    return FieldSeries(grid, I_e.data - shift[:, None])


def _reaction(config, phi, w):
    if config.no_reaction:
        return 0.0
    return i_ion(config.ionic, phi, w)


def step_monodomain(state, config, k, *, system=None):
    """Advance one monodomain step from frame k to k+1."""
    if system is None:
        system = config.monodomain_system()
    A, precond = system
    g = config.grid
    dt, lam, mass = g.dt, config.ops.lam, config.ops.mass
    forcing = (lam * config.I_i.data[k] - config.I_e.data[k]) / (1.0 + lam)
    rhs = mass * (state.phi_tr - dt * _reaction(config, state.phi_tr, state.w) + dt * forcing)
    phi_new = cg_solve(A, rhs, tol=config.cg_tol, precond=precond, x0=state.phi_tr)
    if config.no_reaction:
        w_new = state.w.copy()
    else:
        w_new = gating_exact_update(config.ionic, state.w, state.phi_tr, phi_new, dt)
    return SystemState(phi_tr=phi_new, w=w_new, t=state.t + dt)


def recover_phi_e(config, phi_tr, k, *, x0=None):
    """Extracellular potential at frame k (zero-mean gauge)."""
    ops = config.ops
    load = ops.mass * (config.I_i.data[k] + config.I_e.data[k]) - ops.K_i @ phi_tr
    return bidomain_elliptic_solve(ops, load, nodal=False, tol=config.inner_tol, x0=x0)


def step_bidomain(state, config, k, *, system=None, caches=None):
    """Advance one bidomain step from frame k to k+1 (reduced form)."""
    if system is None:
        system = reduced_operator(config.ops, config.grid.dt, tol=config.inner_tol)
    apply_op, precond = system
    g = config.grid
    dt, mass = g.dt, config.ops.mass
    caches = caches if caches is not None else {}
    S = reduced_rhs_S(
        config.ops,
        config.I_i.data[k],
        config.I_e.data[k],
        tol=config.inner_tol,
        cache=caches.setdefault("forcing", {}),
    )
    rhs = mass * (state.phi_tr - dt * _reaction(config, state.phi_tr, state.w)) + dt * S
    phi_new = cg_solve(apply_op, rhs, tol=config.cg_tol, precond=precond, x0=state.phi_tr)
    if config.no_reaction:
        w_new = state.w.copy()
    else:
        w_new = gating_exact_update(config.ionic, state.w, state.phi_tr, phi_new, dt)
    phi_e = recover_phi_e(config, phi_new, k + 1, x0=caches.get("phi_e"))
    caches["phi_e"] = phi_e
    return SystemState(phi_tr=phi_new, w=w_new, t=state.t + dt, phi_e=phi_e)


def run_forward(config, *, report=True):
    """Integrate the system over all steps and report trajectory norms."""
    g = config.grid
    n = g.n_steps
    bidomain = config.kind == "bidomain"

    if bidomain and config.enforce_compatibility:
        config = ProblemConfig(
            **{
                **config.__dict__,
                "I_e": compatibility_enforce(g, config.I_i, config.I_e),
            }
        )

    phi = FieldSeries.zeros(g)
    w = FieldSeries.zeros(g)
    phi.data[0] = config.phi0.values
    w.data[0] = config.w0.values

    phi_e = None
    caches = {}
    if bidomain:
        phi_e = FieldSeries.zeros(g)
        phi_e.data[0] = recover_phi_e(config, phi.data[0], 0)
        caches["phi_e"] = phi_e.data[0]
        system = reduced_operator(config.ops, g.dt, tol=config.inner_tol)
        stepper = lambda st, k: step_bidomain(st, config, k, system=system, caches=caches)
    else:
        system = config.monodomain_system()
        stepper = lambda st, k: step_monodomain(st, config, k, system=system)

    state = SystemState(
        phi_tr=phi.data[0].copy(),
        w=w.data[0].copy(),
        t=0.0,
        phi_e=phi_e.data[0].copy() if bidomain else None,
    )
    for k in range(n):
        state = stepper(state, k)
        if not np.all(np.isfinite(state.phi_tr)):
            raise DivergenceError(f"non-finite transmembrane potential at step {k + 1}")
        phi.data[k + 1] = state.phi_tr
        w.data[k + 1] = state.w
        if bidomain:
            phi_e.data[k + 1] = state.phi_e

    rep = forward_report(config, phi, w, phi_e) if report else NormReport()
    return ForwardResult(phi_tr=phi, w=w, report=rep, phi_e=phi_e, I_e_used=config.I_e)


def forward_report(config, phi, w, phi_e=None):
    """Trajectory norm bundle for the energy estimates.

    Includes the C0-in-time L2 norms, the L2-in-time H1 norm, the
    space-time L4 norm, the L4-in-time H1 monitor, and dual-norm rates
    of change of phi (L^{4/3} in time) and w (L^2 in time).

    The H1 and dual norms come from one batched DCT-I per series
    (``Grid.coefficients``).  The coefficients are linear in the frames,
    so a rate's coefficients are the differences of the frames'
    coefficients divided by dt.
    """
    g = config.grid
    dt = g.dt
    c_phi = g.coefficients(phi.data)
    c_w = g.coefficients(w.data)
    h1_phi = gridmod.coefficient_norms(c_phi, g.h1_weights)
    dphi = gridmod.coefficient_norms(np.diff(c_phi, axis=0) / dt, g.dual_weights)
    dw = gridmod.coefficient_norms(np.diff(c_w, axis=0) / dt, g.dual_weights)
    rep = NormReport()
    rep["C0_L2_phi"] = gridmod.bochner_norm(phi, np.inf, "L2")
    rep["L2_H1_phi"] = gridmod.time_norm(g, h1_phi, 2)
    rep["L4_OmegaT_phi"] = gridmod.bochner_norm(phi, 4, "L4")
    rep["L4_H1_phi"] = gridmod.time_norm(g, h1_phi, 4)
    rep["C0_L2_w"] = gridmod.bochner_norm(w, np.inf, "L2")
    rep["L43_dual_dphi_dt"] = float((dt * np.sum(dphi ** (4.0 / 3.0))) ** 0.75)
    rep["L2_dual_dw_dt"] = float(np.sqrt(dt * np.sum(dw**2)))
    if phi_e is not None:
        rep["L2_H1_phie"] = gridmod.bochner_norm(phi_e, 2, "H1")
    return rep.check()
