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

So J reads the states of frames 0..n_steps-1 and the gradient the
multipliers of frames 1..n_steps, with p1^n = 0 and, for bidomain
runs, p2^n + psi_eta^n = 0 from the terminal condition.  The last
forward step writes frame n_steps only, which J weighs by 0, and the
adjoint step to frame 0 writes multipliers that no gradient frame
pairs with: both are inert.  ``simulate`` stops after step
n_steps - 1 and ``compute_gradient`` at frame 1 (``run_forward``
``steps``, ``run_adjoint`` ``lowest_frame``), so the line search,
the optimizer and ``verify.gradient_check`` skip them; their J and
gradients are bitwise those of full sweeps.  The runs that report
norms (the CLI's ``simulate`` and ``adjoint``, ``verify``) keep full
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import CostConfig, run_adjoint
from .forward import ProblemConfig, run_forward
from .grid import FieldSeries


# Armijo slope, halving budget of one line search, and the relative
# decrease below which the descent stops.
ARMIJO_C = 1e-4
MAX_HALVINGS = 40
REL_DECREASE_TOL = 1e-10


class LineSearchStagnation(RuntimeError):
    """Armijo backtracking exhausted its halving budget."""


@dataclass
class ControlProblem:
    """A tracking problem plus optimizer knobs.

    ``config.I_e`` is the initial control of the optimizer.  ``radius``
    bounds each frame's L2 norm (None = unconstrained).  A radius that
    is not positive, a negative budget, a negative or NaN ``gtol``, an
    eta-tracking cost on a monodomain run and a mask that does not fit
    the grid or leaves no control raise ValueError.
    """

    config: ProblemConfig
    cost: CostConfig
    radius: float | None = None
    budget: int = 50
    gtol: float = 1e-6

    def __post_init__(self):
        if self.radius is not None and not self.radius > 0:
            raise ValueError(f"radius must be positive, not {self.radius}")
        if self.budget < 0:
            raise ValueError(f"budget must be nonnegative, not {self.budget}")
        if not self.gtol >= 0:
            raise ValueError(f"gtol must be nonnegative, not {self.gtol}")
        if self.cost.w_eta != 0.0 and self.config.kind != "bidomain":
            raise ValueError("cost.w_eta tracks phi_e, which only a bidomain run has")
        mask = self.cost.mask
        if mask is not None:
            if mask.size != self.config.grid.n_nodes:
                raise ValueError(f"cost.mask has {mask.size} values, not one per node")
            # a bidomain control has zero mean over the mask: one node leaves it nothing
            least = 2 if self.config.kind == "bidomain" else 1
            if np.count_nonzero(mask) < least:
                raise ValueError(f"cost.mask leaves no control ({least} or more nodes needed)")


@dataclass
class OptimizeResult:
    control: FieldSeries
    J: float
    grad_norm: float
    history: list = field(default_factory=list)
    status: str = ""

    @property
    def n_iter(self):
        return len(self.history)


def control_inner(a, b):
    """L2(Omega x (0,T)) inner product with rectangle time weights.

    The left-rectangle rule weighs frames 0..n_steps-1 by dt and the
    final frame by 0, so only the weighed frames are read.
    """
    g = a.grid
    n = g.n_steps
    return float(g.dt * np.sum((a.data[:n] * b.data[:n]) @ g.weights))


def control_norm(a):
    return float(np.sqrt(max(control_inner(a, a), 0.0)))


def apply_Q(series, cost, kind):
    """Project a series onto the control subspace.

    Masks every frame to Omega_con; for bidomain problems also removes
    the Omega_con-mean framewise so masked frames stay compatible.
    Returns a new series.
    """
    out = series.copy()
    _apply_Q_in_place(out, cost, kind)
    return out


def _apply_Q_in_place(series, cost, kind):
    """``apply_Q`` over the frames of ``series`` itself; without a mask nothing is multiplied."""
    g, data = series.grid, series.data
    window = g.weights
    if cost.mask is not None:
        chi = cost.mask_values(g)
        data *= chi
        window = window * chi
    if kind == "bidomain":
        means = data @ window / float(window.sum())
        data -= means[:, None]
        if cost.mask is not None:
            data *= chi


def project_admissible(series, problem):
    """apply_Q followed by a framewise radial clip to the L2 ball; a new series."""
    out = series.copy()
    _project_in_place(out, problem)
    return out


def _project_in_place(series, problem):
    """``project_admissible`` over the frames of ``series`` itself."""
    _apply_Q_in_place(series, problem.cost, problem.config.kind)
    if problem.radius is not None:
        data = series.data
        norms = np.sqrt(np.maximum((data * data) @ series.grid.weights, 0.0))
        over = norms > problem.radius
        if np.any(over):
            # rows within the ball are scaled by 1, which leaves them as they are
            data *= np.divide(problem.radius, norms, out=np.ones_like(norms), where=over)[:, None]


def evaluate_cost(traj, control, cost):
    """Tracking terms plus Tikhonov regularization of the control.

    Returns a float, or one J per member of a batched control and its
    trajectory (``FieldSeries`` batch axes).  Only the frames the
    rectangle rule weighs are read.
    """
    g = control.grid
    n = g.n_steps

    def integral(values, weights):
        """dt sum_k sum_i weights_i values_ik^2."""
        return g.dt * np.sum((values * values) @ weights, axis=-1)

    def track(series, target, weight):
        if weight == 0.0:
            return 0.0
        if series is None:
            raise ValueError("cost tracks a quantity the trajectory does not carry")
        dev = series.data[..., :n, :]
        if target is not None:
            dev = dev - target.data[..., :n, :]
        return 0.5 * weight * integral(dev, g.weights)

    total = track(traj.phi_tr, cost.phi_des, cost.w_phi)
    total += track(traj.phi_e, cost.eta_des, cost.w_eta)
    total += track(traj.w, None, cost.w_gate)
    if cost.mu != 0.0:
        window = g.weights
        if cost.mask is not None:
            chi = cost.mask_values(g)
            window = window * (chi * chi)
        total += 0.5 * cost.mu * integral(control.data[..., :n, :], window)
    return float(total) if np.ndim(total) == 0 else total


def simulate(problem, control):
    """Forward run with the given control; returns (J, trajectory).

    The run stops after step n_steps - 1 (``run_forward(steps=...)``):
    J reads frames 0..n_steps-1 only, so the trajectory's frame n_steps
    is NaN, and a frame J reads that is not finite raises
    ``DivergenceError``.  A batched control runs every member in one
    forward sweep and gives an array of J and a batched trajectory.
    """
    cfg = replace(problem.config, I_e=control)
    traj = run_forward(cfg, report=False, steps=cfg.grid.n_steps - 1)
    return evaluate_cost(traj, control, problem.cost), traj


def reduced_gradient(adj, control, config, cost):
    """Gradient of the reduced cost with respect to the control series."""
    g = control.grid
    n = g.n_steps
    out = np.empty_like(control.data)
    out[n] = 0.0
    grad = out[:n]
    if config.kind == "monodomain":
        np.divide(adj.p1.data[1 : n + 1], 1.0 + config.ops.lam, out=grad)
        grad += cost.mu * control.data[:n]
    else:
        np.multiply(control.data[:n], cost.mu, out=grad)
        # p2^n + psi_eta^n = 0, the terminal condition, is not read
        track = np.zeros_like(grad)
        np.add(adj.p2.data[1:n], adj.psi_eta.data[1:n], out=track[:-1])
        track -= adj.psi_eta.data[:n]
        grad -= track
    out = FieldSeries(g, out)
    _apply_Q_in_place(out, cost, config.kind)
    return out


def compute_gradient(problem, control, traj):
    """The reduced gradient at ``control``, whose trajectory is ``traj``.

    The adjoint sweep stops at frame 1 (``run_adjoint(lowest_frame=1)``),
    the lowest the gradient reads, and reads no frame of ``traj`` above
    n_steps - 1, so the trajectory of ``simulate`` serves.
    """
    control.require_unbatched("compute_gradient")
    cfg = replace(problem.config, I_e=control)
    adj = run_adjoint(cfg, traj, problem.cost, report=False, lowest_frame=1)
    return reduced_gradient(adj, control, cfg, problem.cost)


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


def projected_gradient_descent(problem):
    """Spectral projected gradient descent on the reduced cost.

    Starts from the problem's I_e projected onto the admissible set.
    Each iteration's backtracking starts at the Barzilai-Borwein step
    <s,s>/<s,y> (1.0 on the first pass, clamped to [1e-8, 1e8]) and
    halves until the Armijo condition with slope c holds; running out
    of halvings raises LineSearchStagnation.  s is the last accepted
    step and y the change of the gradient over it.  Stops on the
    relative decrease test, the gradient test ||g|| <= gtol (1 + ||g0||),
    or the iteration budget.  The recorded J history is non-increasing.
    The problem's I_e is left as it is.
    """
    problem.config.I_e.require_unbatched("projected_gradient_descent")
    I = project_admissible(problem.config.I_e, problem)
    J, traj = simulate(problem, I)
    history = []
    g0_norm = None
    g_norm = None
    status = "budget"
    last_step = 0.0
    step = prev_grad = None

    for it in range(problem.budget):
        grad = compute_gradient(problem, I, traj)
        g_norm = control_norm(grad)
        if g0_norm is None:
            g0_norm = g_norm
        history.append({"iter": it, "J": J, "grad_norm": g_norm, "step": last_step})
        if g_norm <= problem.gtol * (1.0 + g0_norm):
            status = "gradient"
            break

        alpha = 1.0
        if prev_grad is not None:
            y = FieldSeries(I.grid, grad.data - prev_grad.data)
            sy = control_inner(step, y)
            alpha = control_inner(step, step) / sy if sy > 0.0 else 1e8
            alpha = min(max(alpha, 1e-8), 1e8)
        prev_grad = grad
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            trial = FieldSeries(I.grid, np.multiply(grad.data, -alpha))
            trial.data += I.data
            _project_in_place(trial, problem)
            step = FieldSeries(I.grid, trial.data - I.data)
            slope = control_inner(grad, step)
            J_trial, traj_trial = simulate(problem, trial)
            if J_trial <= J + ARMIJO_C * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise LineSearchStagnation(
                f"no Armijo step after {MAX_HALVINGS} halvings at iteration {it}"
            )

        rel_drop = (J - J_trial) / max(abs(J), 1e-300)
        I, J, traj = trial, J_trial, traj_trial
        last_step = alpha
        if rel_drop < REL_DECREASE_TOL:
            status = "decrease"
            break

    if g_norm is None or status in ("decrease", "budget"):
        grad = compute_gradient(problem, I, traj)
        g_norm = control_norm(grad)
    return OptimizeResult(
        control=I,
        J=J,
        grad_norm=g_norm,
        history=history,
        status=status,
    )
