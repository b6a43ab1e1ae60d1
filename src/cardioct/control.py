"""Reduced-gradient optimal control of the extracellular stimulus.

The control variable is the I_e series restricted to the control
window Omega_con: frames are masked there and, for bidomain runs, kept
at zero mean over Omega_con so they stay compatible with the zero-flux
elliptic constraint.  The admissible set is that subspace intersected
with a framewise L2 ball of radius R; projection onto it is the mask /
mean-removal map followed by a radial clip, which commute.

The reduced gradient pairs with the same left-rectangle time quadrature
as the cost, so for frame k < n_steps

    monodomain:  g^k = Q[ mu I_e^k + p1^{k+1} / (1 + lam) ]
    bidomain:    g^k = Q[ mu I_e^k - (p2^{k+1} + psi_eta^{k+1} - psi_eta^k) ]

and the final frame is zero (it is inert: the dynamics read frames
0..n_steps-1 and the rectangle rule gives frame n_steps no weight).
The one-level offset between p and I_e is what the discrete transpose
of the forward scheme produces; the finite-difference checks in
``verify`` hold at solver precision because of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import AdjointResult, CostConfig, run_adjoint
from .forward import ProblemConfig, run_forward
from .grid import FieldSeries


class LineSearchStagnation(RuntimeError):
    """Armijo backtracking exhausted its halving budget."""


@dataclass
class ControlProblem:
    """A tracking problem plus optimizer knobs.

    ``config.I_e`` serves as the initial control unless the optimizer
    is handed one explicitly.  ``radius`` bounds each frame's L2 norm
    (None = unconstrained).
    """

    config: ProblemConfig
    cost: CostConfig
    radius: float | None = None
    budget: int = 50
    gtol: float = 1e-6
    armijo_c: float = 1e-4
    max_halvings: int = 40
    rel_decrease_tol: float = 1e-10


@dataclass
class OptimizeResult:
    control: FieldSeries
    J: float
    grad_norm: float
    history: list = field(default_factory=list)
    status: str = ""
    trajectory: object = None

    @property
    def n_iter(self):
        return len(self.history)


def rectangle_weights(grid):
    """Left-rectangle time weights: dt on frames 0..n_steps-1, 0 at the end."""
    w = np.full(grid.n_steps + 1, grid.dt)
    w[-1] = 0.0
    return w


def control_inner(a, b):
    """L2(Omega x (0,T)) inner product with rectangle time weights."""
    g = a.grid
    tw = rectangle_weights(g)
    return float(tw @ ((a.data * b.data) @ g.weights))


def control_norm(a):
    return float(np.sqrt(max(control_inner(a, a), 0.0)))


def apply_Q(series, cost, kind):
    """Project a series onto the control subspace.

    Masks every frame to Omega_con; for bidomain problems also removes
    the Omega_con-mean framewise so masked frames stay compatible.
    """
    g = series.grid
    chi = cost.mask_values(g)
    data = series.data * chi
    if kind == "bidomain":
        wchi = g.weights * chi
        vol = float(wchi.sum())
        means = data @ wchi / vol
        data = (data - means[:, None]) * chi
    return FieldSeries(g, data)


def project_admissible(series, problem):
    """apply_Q followed by a framewise radial clip to the L2 ball."""
    out = apply_Q(series, problem.cost, problem.config.kind)
    if problem.radius is not None:
        g = out.grid
        norms = np.sqrt(np.maximum((out.data**2) @ g.weights, 0.0))
        over = norms > problem.radius
        if np.any(over):
            out.data[over] *= (problem.radius / norms[over])[:, None]
    return out


def evaluate_cost(traj, control, cost):
    """Tracking terms plus Tikhonov regularization of the control.

    Returns a float, or one J per member of a batched control and its
    trajectory (``FieldSeries`` batch axes).
    """
    g = control.grid
    tw = rectangle_weights(g)
    chi = cost.mask_values(g)
    total = 0.0

    def track(series, target, weight):
        if weight == 0.0:
            return 0.0
        if series is None:
            raise ValueError("cost tracks a quantity the trajectory does not carry")
        dev = series.data - (target.data if target is not None else 0.0)
        return 0.5 * weight * (((dev * dev) @ g.weights) @ tw)

    total += track(traj.phi_tr, cost.phi_des, cost.w_phi)
    total += track(traj.phi_e, cost.eta_des, cost.w_eta)
    total += track(traj.w, None, cost.w_gate)
    reg = control.data * chi
    total += 0.5 * cost.mu * (((reg * reg) @ g.weights) @ tw)
    return float(total) if np.ndim(total) == 0 else total


def simulate(problem, control):
    """Forward run with the given control; returns (J, trajectory).

    A batched control runs every member in one forward sweep
    (``run_forward``) and gives an array of J and a batched trajectory.
    """
    cfg = replace(problem.config, I_e=control)
    traj = run_forward(cfg, report=False)
    return evaluate_cost(traj, control, problem.cost), traj


def reduced_gradient(adj, control, config, cost):
    """Gradient of the reduced cost with respect to the control series."""
    g = control.grid
    n = g.n_steps
    out = FieldSeries.zeros(g)
    if config.kind == "monodomain":
        track = adj.p1.data[1 : n + 1] / (1.0 + config.ops.lam)
    else:
        track = -(
            adj.p2.data[1 : n + 1] + adj.psi_eta.data[1 : n + 1] - adj.psi_eta.data[:n]
        )
    out.data[:n] = cost.mu * control.data[:n] + track
    return apply_Q(out, cost, config.kind)


def compute_gradient(problem, control, traj):
    """Adjoint solve plus reduced gradient for the given trajectory."""
    control.require_unbatched("compute_gradient")
    cfg = replace(problem.config, I_e=control)
    adj = run_adjoint(cfg, traj, problem.cost, report=False)
    return reduced_gradient(adj, control, cfg, problem.cost), adj


def random_admissible_direction(problem, rng):
    """Seeded unit-norm perturbation in the control subspace (inert final frame)."""
    g = problem.config.grid
    data = rng.standard_normal((g.n_steps + 1, g.n_nodes))
    data[-1] = 0.0
    d = apply_Q(FieldSeries(g, data), problem.cost, problem.config.kind)
    nrm = control_norm(d)
    if nrm == 0.0:
        raise ValueError("control mask admits no perturbation")
    d.data /= nrm
    return d


def projected_gradient_descent(problem, I0=None, *, verbose=False):
    """Spectral projected gradient descent on the reduced cost.

    Starts from ``I0`` (default: the problem's I_e) projected onto the
    admissible set.  Each iteration's backtracking starts at the
    Barzilai-Borwein step <s,s>/<s,y> (1.0 on the first pass, clamped
    to [1e-8, 1e8]) and halves until the Armijo condition with slope c
    holds; running out of halvings raises LineSearchStagnation.  Stops
    on the relative decrease test, the gradient test
    ||g|| <= gtol (1 + ||g0||), or the iteration budget.  The recorded
    J history is non-increasing.
    """
    I0 = I0 if I0 is not None else problem.config.I_e
    I0.require_unbatched("projected_gradient_descent")
    I = project_admissible(I0, problem)
    J, traj = simulate(problem, I)
    history = []
    g0_norm = None
    g_norm = None
    status = "budget"
    last_step = 0.0
    prev_I = None
    prev_grad = None

    for it in range(problem.budget):
        grad, _ = compute_gradient(problem, I, traj)
        g_norm = control_norm(grad)
        if g0_norm is None:
            g0_norm = g_norm
        history.append({"iter": it, "J": J, "grad_norm": g_norm, "step": last_step})
        if verbose:
            print(f"[{it:3d}] J = {J:.9e}  |g| = {g_norm:.3e}  step = {last_step:g}")
        if g_norm <= problem.gtol * (1.0 + g0_norm):
            status = "gradient"
            break

        alpha = 1.0
        if prev_grad is not None:
            s = FieldSeries(I.grid, I.data - prev_I)
            y = FieldSeries(I.grid, grad.data - prev_grad)
            sy = control_inner(s, y)
            alpha = control_inner(s, s) / sy if sy > 0.0 else 1e8
            alpha = min(max(alpha, 1e-8), 1e8)
        prev_I = I.data.copy()
        prev_grad = grad.data.copy()
        accepted = False
        for _ in range(problem.max_halvings + 1):
            trial = FieldSeries(I.grid, I.data - alpha * grad.data)
            trial = project_admissible(trial, problem)
            slope = control_inner(grad, FieldSeries(I.grid, trial.data - I.data))
            J_trial, traj_trial = simulate(problem, trial)
            if J_trial <= J + problem.armijo_c * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise LineSearchStagnation(
                f"no Armijo step after {problem.max_halvings} halvings at iteration {it}"
            )

        rel_drop = (J - J_trial) / max(abs(J), 1e-300)
        I, J, traj = trial, J_trial, traj_trial
        last_step = alpha
        if rel_drop < problem.rel_decrease_tol:
            status = "decrease"
            break

    if g_norm is None or status in ("decrease", "budget"):
        grad, _ = compute_gradient(problem, I, traj)
        g_norm = control_norm(grad)
    return OptimizeResult(
        control=I,
        J=J,
        grad_norm=g_norm,
        history=history,
        status=status,
        trajectory=traj,
    )
