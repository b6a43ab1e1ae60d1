"""The benchmark workloads: problem construction, headline call and gate.

Each workload builds its problem from a seed (``build``), makes one
headline call on it (``run``) and checks an output against its gate
(``check``) with the tolerances and per-seed references of
``reference.json``; workloads whose gate compares against recorded
figures also reduce an output to them (``summary``).  Package functions are called through their modules
(``forward.run_forward``, ...) so that the tracing wrappers, which
replace module attributes, see every call.

The seed draws a ``stimuli.seeded_smooth_series`` perturbation of I_e
(and, for the gradient check, the FD direction); everything else is
fixed, so one seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

from cardioct import adjoint, assembly, control, forward, grid, ionic, stimuli, verify

CG_TOL = 1e-10
INNER_TOL = 1e-11

# Number of strided nodes of the final phi_tr frame kept in the reference.
FRAME_SAMPLES = 64


def _rel_diff(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def _perturbed_pulse(g, seed, center, amplitude, perturbation):
    """Smooth I_e pulse over the first half of the run plus a seeded perturbation."""
    bump = stimuli.gaussian_bump(g, center, 0.15, amplitude)
    pulse = stimuli.pulse_series(g, bump, 0.0, 0.5 * g.T, "smooth")
    noise = stimuli.seeded_smooth_series(g, np.random.default_rng(seed), perturbation)
    return grid.FieldSeries(g, pulse.data + noise.data)


class Mono3dForward:
    """3-D monodomain forward run with the default norm report."""

    name = "mono3d_forward"

    def __init__(self, nodes=25, n_steps=6):
        self.nodes = nodes
        self.n_steps = n_steps

    def build(self, seed):
        g = grid.Grid((self.nodes,) * 3, (1.0, 1.0, 1.0), 1.0, self.n_steps)
        mi = grid.TensorField.diagonal(g, (1.0, 0.5, 0.25))
        ops = assembly.build_operators(g, mi, lam=1.0)
        return forward.ProblemConfig(
            grid=g,
            ops=ops,
            ionic=ionic.IonicParams("ap"),
            kind="monodomain",
            phi0=stimuli.gaussian_bump(g, (0.3, 0.3, 0.3), 0.15, 0.8),
            w0=grid.ScalarField.zeros(g),
            I_i=grid.FieldSeries.zeros(g),
            I_e=_perturbed_pulse(g, seed, (0.7, 0.7, 0.7), 0.2, 0.05),
            cg_tol=CG_TOL,
            inner_tol=INNER_TOL,
        )

    def run(self, cfg):
        return forward.run_forward(cfg)

    def summary(self, cfg, res):
        final = res.phi_tr.data[-1]
        stride = max(1, final.size // FRAME_SAMPLES)
        return {
            "norms": dict(res.report.items()),
            "final_frame_samples": final[::stride][:FRAME_SAMPLES].tolist(),
            "final_frame_l2": float(np.linalg.norm(final)),
        }

    def check(self, cfg, res, gate, ref):
        """Finite report, last step solves its system, and match to the reference."""
        failures = []
        norms = dict(res.report.items())
        if not norms or not all(np.isfinite(v) for v in norms.values()):
            failures.append("norm report has a non-finite entry")
        failures += _last_step_residual(cfg, res, gate["last_step_residual"])
        tol = gate["rel_tol"]
        if ref is not None:
            got = self.summary(cfg, res)
            if set(got["norms"]) != set(ref["norms"]):
                failures.append("norm report names differ from the reference")
            else:
                for key, value in ref["norms"].items():
                    err = _rel_diff(got["norms"][key], value)
                    if err > tol:
                        failures.append(f"norm {key} off by {err:.2e} > {tol:g}")
            err = _rel_diff(got["final_frame_samples"], ref["final_frame_samples"])
            if err > tol:
                failures.append(f"final phi_tr frame off by {err:.2e} > {tol:g}")
        return failures


def _last_step_residual(cfg, res, tol):
    """Check the last monodomain step against its linear system, independently of CG.

    (Mass + dt lam/(1+lam) K_i) phi^n = Mass (phi^{n-1} - dt i_ion^{n-1} + dt F^{n-1})
    """
    g, ops = cfg.grid, cfg.ops
    n, dt, lam = g.n_steps, g.dt, ops.lam
    phi_prev, w_prev = res.phi_tr.data[n - 1], res.w.data[n - 1]
    phi = res.phi_tr.data[n]
    forcing = (lam * cfg.I_i.data[n - 1] - cfg.I_e.data[n - 1]) / (1.0 + lam)
    rhs = ops.mass * (phi_prev - dt * ionic.i_ion(cfg.ionic, phi_prev, w_prev) + dt * forcing)
    lhs = ops.mass * phi + dt * lam / (1.0 + lam) * (ops.K_i @ phi)
    rel = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    if not rel <= tol:
        return [f"last step residual {rel:.2e} > {tol:g}"]
    return []


class Mono2dControl:
    """2-D monodomain optimal control of I_e on a box window, fixed budget."""

    name = "mono2d_control"

    def __init__(self, nodes=65, n_steps=5, budget=12):
        self.nodes = nodes
        self.n_steps = n_steps
        self.budget = budget

    def build(self, seed):
        g = grid.Grid((self.nodes,) * 2, (1.0, 1.0), 1.0, self.n_steps)
        mi = grid.TensorField.diagonal(g, (1.0, 0.5))
        ops = assembly.build_operators(g, mi, lam=1.0)
        cfg = forward.ProblemConfig(
            grid=g,
            ops=ops,
            ionic=ionic.IonicParams("rm"),
            kind="monodomain",
            phi0=stimuli.gaussian_bump(g, (0.3, 0.3), 0.15, 0.8),
            w0=grid.ScalarField.zeros(g),
            I_i=grid.FieldSeries.zeros(g),
            I_e=_perturbed_pulse(g, seed, (0.7, 0.7), 0.5, 0.05),
            cg_tol=CG_TOL,
            inner_tol=INNER_TOL,
        )
        cost = adjoint.CostConfig(
            mu=1e-3, w_phi=1.0, mask=stimuli.box_mask(g, (0.5, 0.5), (1.0, 1.0))
        )
        return control.ControlProblem(config=cfg, cost=cost, radius=0.3, budget=self.budget)

    def run(self, problem):
        return control.projected_gradient_descent(problem)

    def summary(self, problem, opt):
        return {"J": float(opt.J), "J0": float(opt.history[0]["J"]), "status": opt.status}

    def check(self, problem, opt, gate, ref):
        """J never increases, and ends no higher than the reference J."""
        tol = gate["J_rel_tol"]
        failures = []
        Js = [h["J"] for h in opt.history] + [opt.J]
        if not all(np.isfinite(Js)):
            failures.append("J history has a non-finite entry")
        elif any(b > a for a, b in zip(Js, Js[1:])):
            failures.append("J history increases")
        elif not Js[-1] < Js[0]:
            failures.append("optimizer made no progress")
        if ref is not None and not opt.J <= ref["J"] * (1.0 + tol):
            failures.append(f"final J {opt.J:.12e} above reference {ref['J']:.12e} (tol {tol:g})")
        return failures


class Bido2dGradcheck:
    """2-D bidomain finite-difference check of the adjoint gradient."""

    name = "bido2d_gradcheck"

    # A short step ladder: three steps is the fewest the plateau rule can
    # compare against two neighbours.
    DELTAS = (4e-3, 2e-3, 1e-3)

    def __init__(self, nodes=17, n_steps=3):
        self.nodes = nodes
        self.n_steps = n_steps

    def build(self, seed):
        g = grid.Grid((self.nodes,) * 2, (1.0, 1.0), 0.3, self.n_steps)
        mi = grid.TensorField.diagonal(g, (1.0, 0.4))
        me = grid.TensorField.diagonal(g, (0.6, 1.2))
        ops = assembly.build_operators(g, mi, me, lam=1.0)
        cfg = forward.ProblemConfig(
            grid=g,
            ops=ops,
            ionic=ionic.IonicParams("fhn"),
            kind="bidomain",
            phi0=stimuli.gaussian_bump(g, (0.3, 0.3), 0.15, 0.8),
            w0=grid.ScalarField.zeros(g),
            I_i=grid.FieldSeries.zeros(g),
            I_e=_perturbed_pulse(g, seed, (0.7, 0.7), 0.2, 0.05),
            cg_tol=CG_TOL,
            inner_tol=INNER_TOL,
        )
        cost = adjoint.CostConfig(mu=1e-2, w_phi=1.0, w_eta=0.5, w_gate=0.5)
        return control.ControlProblem(config=cfg, cost=cost), seed

    def run(self, inputs):
        problem, seed = inputs
        return verify.gradient_check(
            problem, n_directions=1, seed=seed, deltas=list(self.DELTAS)
        )

    def check(self, inputs, rep, gate, ref):
        """FD and adjoint gradients agree to the bidomain bound; any seed."""
        bound = gate["max_rel_error"]
        if not rep.max_rel_error <= bound:
            return [f"max_rel_error {rep.max_rel_error:.2e} > {bound:g}"]
        return []


WORKLOADS = {w.name: w for w in (Mono3dForward, Mono2dControl, Bido2dGradcheck)}
