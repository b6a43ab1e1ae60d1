"""Verification harness: does the computed dynamics honor the estimates?

Each experiment realizes one analytical statement as a desk-scale
numerical check:

* ``stability_experiment``   difference of two runs vs. difference of
  their data, in the energy norms (squared bundle against squared dual
  norms of the control difference); the fitted constant should be flat
  across perturbation scales.
* ``monodomain_limit_check`` with M_e = lam M_i the reduced bidomain
  dynamics collapses to the monodomain dynamics; the two trajectories
  should agree to solver precision.
* ``regularity_monitor``     the L4-in-time H1 norm of phi should stay
  bounded under refinement.
* ``apriori_check``          energy bundle of a run against its data
  norms (forward) or cost-partial norms (adjoint); the ratio is the
  fitted constant of the estimate.
* ``convergence_study``      second order in space (pure-diffusion
  mode against an exact solution), first order in time
  (self-convergence on a smooth excitation problem).
* ``gradient_check``         finite differences of the reduced cost
  against the adjoint gradient, with a plateau rule for the step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import grid as gridmod
from .adjoint import AdjointResult
from .assembly import build_operators
from .control import (
    compute_gradient,
    control_inner,
    project_admissible,
    random_admissible_direction,
    simulate,
)
from .forward import (
    ProblemConfig,
    compatibility_enforce,
    run_forward,
)
from .grid import (
    FieldSeries,
    Grid,
    ScalarField,
    TensorField,
    l2_norm,
    refined,
)
from .ionic import IonicParams

# Largest max/median spread of the stability ratios that counts as stable.
STABILITY_SPREAD_BOUND = 2.0
# Solver tolerances of ``monodomain_limit_check`` (see its docstring).
LIMIT_CG_TOL = 1e-12
LIMIT_INNER_TOL = 1e-13
# Grids the regularity monitor visits, and the largest growth per refinement.
REGULARITY_LEVELS = 2
REGULARITY_BOUND = 1.1
# Convergence study: base grid, steps and horizon of the spatial study
# (exact solution) and of the temporal study (self-convergence), whose
# TEMPORAL_LEVELS step sizes give TEMPORAL_LEVELS - 2 orders.
SPATIAL_BASE_NODES = 17
SPATIAL_BASE_STEPS = 8
SPATIAL_T = 0.1
# Each spatial level holds about 8 times the values of the one before:
# the series of the last of 6 levels take about 0.14 GB, of 7 about 1.1 GB.
SPATIAL_MAX_LEVELS = 6
TEMPORAL_NODES = 33
TEMPORAL_BASE_STEPS = 25
TEMPORAL_T = 1.0
TEMPORAL_LEVELS = 4


# ---------------------------------------------------------------------------
# norm bundles


def _series_dual_l2_sq(series):
    """Squared L2-in-time dual norm of a data series (trapezoid in time)."""
    return gridmod.time_norm(series.grid, gridmod.dual_frame_norms(series), 2) ** 2


def _w12_l2_sq(series):
    """Squared W^{1,2}(0,T;L2) norm via backward differences in time, by blocks of frames."""
    g = series.grid
    l2_sq = gridmod.bochner_norm(series, 2, "L2") ** 2
    rate_sq = 0.0
    for s in gridmod.frame_blocks(series.n_frames, g.n_nodes, gridmod.NORM_BLOCK_VALUES):
        # the rates into the block's frames, from the frame before it on
        rates = np.diff(series.data[max(s.start - 1, 0) : s.stop], axis=0)
        rates /= g.dt
        rates *= rates
        rate_sq += float(np.sum(rates @ g.weights))
    return l2_sq + g.dt * rate_sq


def difference_bundle(base, pert):
    """Squared energy bundle of the difference of two trajectories; bidomain ones add phi_e's."""
    g = base.phi_tr.grid
    dphi = FieldSeries(g, pert.phi_tr.data - base.phi_tr.data)
    dw = FieldSeries(g, pert.w.data - base.w.data)
    lhs = (
        gridmod.bochner_norm(dphi, np.inf, "L2") ** 2
        + gridmod.bochner_norm(dphi, 2, "H1") ** 2
        + gridmod.bochner_norm(dw, np.inf, "L2") ** 2
        + _w12_l2_sq(dw)
    )
    if base.phi_e is not None:
        dphie = FieldSeries(g, pert.phi_e.data - base.phi_e.data)
        lhs += gridmod.bochner_norm(dphie, 2, "H1") ** 2
    return lhs


# ---------------------------------------------------------------------------
# stability


@dataclass
class StabilityReport:
    scales: list
    lhs: list
    rhs: list
    ratios: list
    fitted_constant: float
    spread: float
    stable: bool

    def rows(self):
        return list(zip(self.scales, self.lhs, self.rhs, self.ratios))


def stability_experiment(config, direction, scales):
    """Perturb the data by s * direction and compare energy vs. data norms.

    ``direction``, a pair of FieldSeries (dI_i, dI_e), must be finite and
    nonzero, and ``scales`` finite, positive and at least one (ValueError
    otherwise).  The base run and the perturbed runs are one batched ``run_forward``.
    """
    dIi, dIe = direction
    finite = np.isfinite(dIi.data).all() and np.isfinite(dIe.data).all()
    if not finite or not (np.any(dIi.data) or np.any(dIe.data)):
        raise ValueError("perturbation direction must be finite and not identically zero")
    scales = [float(s) for s in scales]
    if not scales or not all(0.0 < s < np.inf for s in scales):
        raise ValueError(f"perturbation scales must be finite and positive, not {scales}")

    g = config.grid
    # the base run (scale 0) and every perturbed run, as one batch
    factors = np.array([0.0] + scales)[:, None, None]
    runs = run_forward(
        replace(
            config,
            I_i=FieldSeries(g, config.I_i.data + factors * dIi.data),
            I_e=FieldSeries(g, config.I_e.data + factors * dIe.data),
        ),
        report=False,
    )
    base = runs.member(0)
    lhs_list, rhs_list, ratios = [], [], []
    for i, s in enumerate(scales, 1):
        pert = runs.member(i)
        lhs = difference_bundle(base, pert)
        d_ii = FieldSeries(g, s * dIi.data)
        d_ie = FieldSeries(g, pert.I_e_used.data - base.I_e_used.data)
        rhs = _series_dual_l2_sq(d_ii) + _series_dual_l2_sq(d_ie)
        lhs_list.append(lhs)
        rhs_list.append(rhs)
        ratios.append(lhs / rhs if rhs > 0 else np.inf)

    arr = np.asarray(ratios)
    fitted = float(np.max(arr))
    spread = float(np.max(arr) / np.median(arr)) if np.all(np.isfinite(arr)) else np.inf
    return StabilityReport(
        scales=scales,
        lhs=lhs_list,
        rhs=rhs_list,
        ratios=ratios,
        fitted_constant=fitted,
        spread=spread,
        stable=bool(np.isfinite(spread) and spread <= STABILITY_SPREAD_BOUND),
    )


# ---------------------------------------------------------------------------
# monodomain limit


@dataclass
class LimitReport:
    discrepancy: float
    lam: float


def monodomain_limit_check(config):
    """Run the bidomain twin with M_e = lam M_i and compare trajectories.

    Returns the relative C0-in-time L2 discrepancy of the transmembrane
    potentials.  Tolerances are tightened beyond the run defaults
    (``LIMIT_CG_TOL``, ``LIMIT_INNER_TOL``) because the comparison
    isolates pure solver error.  The stimulus pair is compatibilized up
    front so both systems integrate the same data (the equivalence only
    makes sense for admissible stimuli).
    """
    if config.kind != "monodomain":
        raise ValueError("limit check starts from a monodomain configuration")
    lam = config.ops.lam
    g = config.grid
    ops_bi = build_operators(g, config.ops.mi, config.ops.mi * lam, lam=lam)
    I_e = compatibility_enforce(config.I_i, config.I_e)
    cfg_mono = replace(config, cg_tol=LIMIT_CG_TOL, I_e=I_e)
    cfg_bi = replace(
        config,
        ops=ops_bi,
        kind="bidomain",
        cg_tol=LIMIT_CG_TOL,
        inner_tol=LIMIT_INNER_TOL,
        I_e=I_e,
    )
    mono = run_forward(cfg_mono, report=False)
    bi = run_forward(cfg_bi, report=False)
    dphi = FieldSeries(g, bi.phi_tr.data - mono.phi_tr.data)
    mono_norm = gridmod.bochner_norm(mono.phi_tr, np.inf, "L2")
    disc = gridmod.bochner_norm(dphi, np.inf, "L2") / max(mono_norm, 1e-300)
    return LimitReport(discrepancy=float(disc), lam=lam)


# ---------------------------------------------------------------------------
# regularity monitor


@dataclass
class RegularityReport:
    values: list
    ratios: list
    bounded: bool


def regularity_monitor(base_grid, make_config):
    """Track the L4-in-time H1 norm of phi under grid/time refinement.

    ``make_config(grid)`` builds the problem at each of
    ``REGULARITY_LEVELS`` levels from analytic data.  The monitor passes
    if each refinement grows the norm by at most ``REGULARITY_BOUND``.
    """
    values = []
    g = base_grid
    for _ in range(REGULARITY_LEVELS):
        res = run_forward(make_config(g), report=False)
        values.append(gridmod.bochner_norm(res.phi_tr, 4, "H1"))
        g = refined(g)
    ratios = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    return RegularityReport(
        values=values,
        ratios=ratios,
        bounded=bool(all(r <= REGULARITY_BOUND for r in ratios)),
    )


# ---------------------------------------------------------------------------
# a-priori estimates


@dataclass
class AprioriReport:
    lhs: float
    rhs: float

    @property
    def ratio(self):
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else np.inf
        return self.lhs / self.rhs


def apriori_check(result, config):
    """Energy bundle over data bundle for a forward or adjoint result.

    Forward: C0L2(phi)^2 + L2H1(phi)^2 + L4(Q)^4 + dual-rate(phi)^{4/3}
    + C0L2(w)^2 + dual-rate(w)^2 [+ L2H1(phi_e)^2] against
    1 + ||phi0||^2 + ||w0||^2 + dual-L2-in-time^2 of I_i and I_e.

    Adjoint: C0L2(p1)^2 + L2H1(p1)^2 [+ L2H1(p2)^2] + C0L2(p3)^2
    against the squared L2(Q) norms of the cost partials.
    """
    if isinstance(result, AdjointResult):
        rep = result.report
        lhs = rep["C0_L2_p1"] ** 2 + rep["L2_H1_p1"] ** 2 + rep["C0_L2_p3"] ** 2
        if "L2_H1_p2" in rep:
            lhs += rep["L2_H1_p2"] ** 2
        rhs = (
            rep["L2_L2_r_phi"] ** 2
            + rep["L2_L2_r_eta"] ** 2
            + rep["L2_L2_r_w"] ** 2
        )
        return AprioriReport(lhs=float(lhs), rhs=float(rhs))

    rep = result.report
    lhs = (
        rep["C0_L2_phi"] ** 2
        + rep["L2_H1_phi"] ** 2
        + rep["L4_OmegaT_phi"] ** 4
        + rep["L43_dual_dphi_dt"] ** (4.0 / 3.0)
        + rep["C0_L2_w"] ** 2
        + rep["L2_dual_dw_dt"] ** 2
    )
    if "L2_H1_phie" in rep:
        lhs += rep["L2_H1_phie"] ** 2
    I_e = result.I_e_used if result.I_e_used is not None else config.I_e
    rhs = (
        1.0
        + l2_norm(config.phi0) ** 2
        + l2_norm(config.w0) ** 2
        + _series_dual_l2_sq(config.I_i)
        + _series_dual_l2_sq(I_e)
    )
    return AprioriReport(lhs=float(lhs), rhs=float(rhs))


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceReport:
    spatial_errors: list
    spatial_orders: list
    temporal_errors: list
    temporal_orders: list
    spatial_ok: bool
    temporal_ok: bool

    @property
    def conclusive(self):
        mono_s = all(
            e2 < e1 for e1, e2 in zip(self.spatial_errors, self.spatial_errors[1:])
        )
        mono_t = all(
            e2 < e1 for e1, e2 in zip(self.temporal_errors, self.temporal_errors[1:])
        )
        return mono_s and mono_t


def _line_problem(g, conductivity, phi0, I_e, no_reaction=False):
    """A 1-D monodomain problem of the convergence studies.

    ``phi0`` and ``I_e`` (constant in time) are functions of the node
    coordinates, which on the 1-D grid ``g`` are its axis.
    """
    x = g.axis_coords[0]
    return ProblemConfig(
        grid=g,
        ops=build_operators(g, TensorField.isotropic(g, conductivity), lam=1.0),
        ionic=IonicParams("rm"),
        kind="monodomain",
        phi0=ScalarField(g, phi0(x)),
        w0=ScalarField.zeros(g),
        I_i=FieldSeries.zeros(g),
        I_e=FieldSeries.constant(ScalarField(g, I_e(x))),
        no_reaction=no_reaction,
    )


def _spatial_study(levels):
    """Pure-diffusion mode against phi(x,t) = e^{-t} cos(pi x)."""
    errors = []
    for lvl in range(levels):
        nodes = (SPATIAL_BASE_NODES - 1) * 2**lvl + 1
        steps = SPATIAL_BASE_STEPS * 4**lvl
        g = Grid(nodes, 1.0, SPATIAL_T, steps)
        cfg = _line_problem(g, 2.0 / np.pi**2, lambda x: np.cos(np.pi * x), np.zeros_like,
                            no_reaction=True)
        res = run_forward(cfg, report=False)
        exact = np.exp(-SPATIAL_T) * np.cos(np.pi * g.axis_coords[0])
        err = l2_norm(ScalarField(g, res.phi_tr.data[-1] - exact))
        errors.append(err)
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    return errors, orders


def _temporal_study():
    """Self-convergence of a smooth excitation under time-step halving."""
    finals = []
    the_grid = None
    for lvl in range(TEMPORAL_LEVELS):
        g = Grid(TEMPORAL_NODES, 1.0, TEMPORAL_T, TEMPORAL_BASE_STEPS * 2**lvl)
        the_grid = g
        cfg = _line_problem(g, 1.0, lambda x: np.exp(-(((x - 0.3) / 0.12) ** 2)),
                            lambda x: -2.0 * np.exp(-(((x - 0.7) / 0.15) ** 2)))
        res = run_forward(cfg, report=False)
        finals.append(res.phi_tr.data[-1])
    errors = [
        l2_norm(ScalarField(the_grid, finals[i] - finals[i + 1]))
        for i in range(len(finals) - 1)
    ]
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    return errors, orders


def convergence_study(*, spatial_levels=3):
    """Observed orders: ~2 in space (exact solution), ~1 in time (self)."""
    # 2 is the fewest levels that give one order
    if not 2 <= spatial_levels <= SPATIAL_MAX_LEVELS:
        raise ValueError(
            f"convergence_study needs spatial_levels from 2 to {SPATIAL_MAX_LEVELS},"
            f" not {spatial_levels}"
        )
    s_err, s_ord = _spatial_study(spatial_levels)
    t_err, t_ord = _temporal_study()
    return ConvergenceReport(
        spatial_errors=s_err,
        spatial_orders=s_ord,
        temporal_errors=t_err,
        temporal_orders=t_ord,
        spatial_ok=bool(all(1.7 <= o <= 2.3 for o in s_ord)),
        temporal_ok=bool(all(0.8 <= o <= 1.3 for o in t_ord)),
    )


# ---------------------------------------------------------------------------
# gradient check


@dataclass
class GradcheckReport:
    rel_errors: list
    deltas: list
    inner_products: list
    fd_values: list
    max_rel_error: float


def gradient_check(problem, *, n_directions=5, seed=0, deltas=None):
    """Compare <g, d> with centered finite differences of the reduced cost.

    For each seeded unit direction in the control subspace the FD step
    is chosen by a three-point plateau rule: among a geometric ladder
    of at least two finite positive steps (ValueError otherwise), take
    the one whose FD value moves least relative to its neighbors.
    Reports the worst relative error over all directions.

    The whole ladder of a direction, the controls base +- delta d for
    every delta, is one batched ``simulate``: one forward sweep whose
    solves take all 2 len(deltas) controls as rows.  The first
    direction's batch also carries the base control, as member 0, whose
    trajectory is copied out for the one adjoint sweep of the gradient;
    so a check makes n_directions forward sweeps in all.  A sweep holds
    2 len(deltas) (+ 1) trajectories (phi, w and, for bidomain runs,
    phi_e, each (n_steps + 1) x n_nodes doubles) at once, where a
    sequential ladder held one.
    """
    if deltas is None:
        deltas = [1e-2 * 0.5**j for j in range(6)]
    if n_directions < 1:
        raise ValueError(f"gradient_check needs n_directions >= 1, not {n_directions}")
    if len(deltas) < 2 or not all(0.0 < d < np.inf for d in deltas):
        raise ValueError(
            f"gradient_check needs at least two finite positive deltas, not {list(deltas)}"
        )
    rng = np.random.default_rng(seed)
    base = project_admissible(problem.config.I_e, problem)
    # +delta and -delta of each step, side by side in the batch
    steps = np.outer(deltas, [1.0, -1.0]).ravel()

    rel_errors, chosen, gds, fds = [], [], [], []
    for i in range(n_directions):
        d = random_admissible_direction(problem, rng)
        # the first ladder also carries the base control, as member 0
        ladder = np.concatenate(([0.0], steps)) if i == 0 else steps
        controls = FieldSeries(base.grid, base.data + ladder[:, None, None] * d.data)
        J, batch = simulate(problem, controls)
        if i == 0:
            base_traj = batch.member(0)
            J, batch = J[1:], None  # frees the batch before the adjoint sweep
            grad = compute_gradient(problem, base, base_traj)
        gd = control_inner(grad, d)
        J_plus, J_minus = J.reshape(-1, 2).T
        fd_ladder = (J_plus - J_minus) / (2.0 * np.asarray(deltas))
        scale = max(abs(gd), max(abs(f) for f in fd_ladder), 1e-300)
        best_j, best_disp = 0, np.inf
        for j in range(len(deltas)):
            neigh = [fd_ladder[i] for i in (j - 1, j + 1) if 0 <= i < len(deltas)]
            disp = max(abs(fd_ladder[j] - v) for v in neigh) / scale
            if disp < best_disp:
                best_j, best_disp = j, disp
        fd = fd_ladder[best_j]
        rel = abs(fd - gd) / max(abs(gd), 1e-300)
        rel_errors.append(float(rel))
        chosen.append(deltas[best_j])
        gds.append(float(gd))
        fds.append(float(fd))
    return GradcheckReport(
        rel_errors=rel_errors,
        deltas=chosen,
        inner_products=gds,
        fd_values=fds,
        max_rel_error=float(max(rel_errors)),
    )
