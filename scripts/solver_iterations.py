#!/usr/bin/env python3
"""Compare Jacobi and DCT-I spectral preconditioned CG on the grid systems.

For each grid it solves, from a cold start to a relative residual of
1e-10, the implicit step system Mass + K and the pure-Neumann
stiffness K (its load projected to zero sum, so that the singular
system is consistent), for an isotropic and a rotating-fibre tensor
(10:1 anisotropy), and prints the operator applications and wall time of
each solver.  The spectral counts should be flat under refinement and
equal to one where the tensor is constant.  Jacobi is a baseline local
to this script (the package solves with the spectral inverses only):
the same PCG with ``r -> r / diag(A)``.

A second table solves one bidomain step (dt = 1, M_e = 0.6 I + 0.5 M_i)
two ways and prints the stiffness products (K_i, K_ie and K_e) and the
best wall time of three runs of each: the nested Schur form, an outer CG on Mass + dt A_h whose
every application runs an inner K_ie CG (to 1e-11), plus the
forcing lift solve; and the coupled block PCG of
``assembly.solve_coupled_step``.

A third table shows when ``cg_solve`` keeps a warm start.  It runs a
10-step forward run (dt = 0.02) with the monodomain steps and, for the
bidomain run, the K_ie solves of phi_e: the current lifts of all
frames, in blocks of frames, and the K_ie^+ K_i phi^0 term of frame 0,
both started cold.  It prints the CG calls and the operator applications of those
solves, one per vector (a product with a block of k rows counts k),
three ways: PCG with every warm start kept, PCG with every warm start
dropped, and as the package chooses (where the spectral preconditioner
is exact, x = P b, whose residual is tested with one application on the
first solve and at tolerances below 100 times the preconditioner's
residual estimate; warm PCG otherwise).
"""

import argparse
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from cardioct import assembly, forward
from cardioct.assembly import (
    assemble_stiffness,
    build_operators,
    solve_coupled_step,
    solve_neumann,
)
from cardioct.forward import ProblemConfig, run_forward
from cardioct.grid import FieldSeries, Grid, ScalarField, TensorField
from cardioct.ionic import IonicParams
from cardioct.linalg import cg_solve
from cardioct.stimuli import gaussian_bump, pulse_series


def solve_counted(A, b, **kwargs):
    """(operator applications, seconds) of one cold-start CG solve."""
    count = [0]

    def matvec(v):
        count[0] += 1
        return A @ v

    start = time.perf_counter()
    cg_solve(matvec, b, tol=1e-10, **kwargs)
    return count[0], time.perf_counter() - start


def fibres(g):
    """Fibres in the x-y plane at the angle pi/2 (x + y [+ z]) of each cell
    centre, conductivity 1 along and 0.1 across them."""
    centres = np.meshgrid(*(0.5 * (c[1:] + c[:-1]) for c in g.axis_coords), indexing="ij")
    a = 0.5 * np.pi * sum(centres).ravel()
    f = np.zeros((g.n_cells, g.dim))
    f[:, 0], f[:, 1] = np.cos(a), np.sin(a)
    return TensorField(g, 0.1 * np.eye(g.dim) + 0.9 * f[:, :, None] * f[:, None, :])


def tensors(g):
    return {"isotropic": TensorField.isotropic(g, 1.0), "fibres": fibres(g)}


def systems(g, tensor, b):
    """name -> (matrix, spectral eigenvalues, load) for one tensor's stiffness K and load b."""
    K = assemble_stiffness(tensor)
    lam = g.spectral.stiffness_eigenvalues(tensor.mean_diagonal)
    return {
        "step": (sp.diags(g.weights) + K, 1.0 + lam, b),
        "neumann": (K, lam, b - b.mean()),
    }


class Counted:
    """An operator whose products are counted, one per vector (row of a block).

    ``A`` is a matrix or a callable ``v -> A @ v``.
    """

    def __init__(self, A, count):
        self.A, self.count = A, count

    def __matmul__(self, v):
        self.count[0] += len(v) if v.ndim == 2 else 1
        return self.A(v) if callable(self.A) else self.A @ v


def nested_step(ops, dt, f, I_i, I_e):
    """phi of the step in the nested Schur form (the coupled form's oracle).

    The forcing is lifted through the extracellular solve,
    ``Mass I_i - K_i K_ie^+ Mass (I_i + I_e)``, which equals the
    monodomain forcing ``Mass (lam I_i - I_e) / (1 + lam)`` when
    ``M_e = lam M_i``.
    """
    K_i, mass = ops.K_i, ops.mass
    K_ie, precond_ie = ops.neumann_system

    def apply(v):
        Kv = K_i @ v
        psi = cg_solve(K_ie, Kv, tol=1e-11, precond=precond_ie)
        return mass * v + dt * (Kv - K_i @ psi)

    lam_i, lam_ie = ops.spectrum_i, ops.spectrum_ie
    schur = lam_i - np.divide(lam_i**2, lam_ie, out=np.zeros_like(lam_i), where=lam_ie > 0)
    lift = mass * I_i - K_i @ solve_neumann(ops, mass * (I_i + I_e), tol=1e-11)
    rhs = f - dt * mass * I_i + dt * lift
    return cg_solve(apply, rhs, tol=1e-10, precond=ops.grid.spectral.inverse(1.0 + dt * schur))


def coupled_step(ops, dt, f, I_i, I_e):
    """phi of the step as the coupled block PCG solves it; ``ops.grid.dt`` is ``dt``."""
    load = dt * ops.mass * (I_i + I_e)
    return solve_coupled_step(ops, f, load, tol=1e-10)[0]


def bidomain_rows(g, label):
    """One row per tensor: K-products and seconds of the nested and coupled steps."""
    rng = np.random.default_rng(0)
    phi0, I_i, I_e = rng.standard_normal((3, g.n_nodes))
    I_e -= (g.weights @ (I_i + I_e)) / g.measure  # compatible currents
    f = g.weights * (phi0 + g.dt * I_i)
    for tname, mi in tensors(g).items():
        ops = build_operators(g, mi, TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries))
        count = [0]
        for name in ("K_i", "K_ie", "K_e"):  # before the systems that apply them
            setattr(ops, name, Counted(getattr(ops, name), count))
        row = []
        for solve in (nested_step, coupled_step):
            seconds = []
            for _ in range(3):  # best of three
                count[0] = 0
                start = time.perf_counter()
                solve(ops, g.dt, f, I_i, I_e)
                seconds.append(time.perf_counter() - start)
            row += [count[0], min(seconds)]
        print(f"{label:<10}{tname:<11}"
              f"{row[0]:>10}{1e3 * row[1]:>9.1f}{row[2]:>11}{1e3 * row[3]:>9.1f}")


@contextmanager
def counted_solves(mode, n_nodes, calls, applications):
    """Count the CG solves on n_nodes unknowns and their operator applications.

    Those are the monodomain steps and the K_ie solves; the coupled
    bidomain step solves for 2 n_nodes unknowns and is not counted.
    ``mode`` "warm" and "cold" hide the preconditioner's ``exact`` mark,
    so that every solve runs PCG; "warm" keeps every warm start and
    "cold" drops every ``x0``.  "chosen" leaves both as they are.
    """

    def solve(A, b, **kwargs):
        if mode != "chosen":
            precond = kwargs["precond"]
            kwargs["precond"] = lambda r: precond(r)
        if mode == "cold":
            kwargs.pop("x0", None)
        if b.shape[-1] == n_nodes:
            calls[0] += 1
            A = Counted(A, applications).__matmul__
        return cg_solve(A, b, **kwargs)

    saved = forward.cg_solve, assembly.cg_solve
    forward.cg_solve = assembly.cg_solve = solve
    try:
        yield
    finally:
        forward.cg_solve, assembly.cg_solve = saved


def forward_problem(g, kind, mi):
    """10-step run from a bump at 0.3 with an intracellular pulse at 0.7."""
    me = TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries) if kind == "bidomain" else None
    stimulus = gaussian_bump(g, (0.7,) * g.dim, 0.15, 1.0)
    return ProblemConfig(
        grid=g,
        ops=build_operators(g, mi, me),
        ionic=IonicParams("rm"),
        kind=kind,
        phi0=gaussian_bump(g, (0.3,) * g.dim, 0.15, 1.0),
        w0=ScalarField.zeros(g),
        I_i=pulse_series(g, stimulus, 0.0, g.T / 2),
        I_e=FieldSeries.zeros(g),
    )


def warm_start_rows(g, label):
    """One row per run and tensor: CG calls and applications per warm-start mode."""
    for kind, solves in (("monodomain", "steps"), ("bidomain", "phi_e")):
        for tname, mi in tensors(g).items():
            row = []
            for mode in ("warm", "cold", "chosen"):
                calls, applications = [0], [0]
                with counted_solves(mode, g.n_nodes, calls, applications):
                    run_forward(forward_problem(g, kind, mi), report=False)
                row.append(applications[0])
            print(f"{label:<10}{solves:<8}{tname:<11}{calls[0]:>6}"
                  f"{row[0]:>8}{row[1]:>8}{row[2]:>8}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", default="65,129", help="nodes per axis, one grid each")
    ap.add_argument("--dim", type=int, default=2, choices=(2, 3))
    args = ap.parse_args()

    print(f"{'grid':<10}{'system':<9}{'tensor':<11}"
          f"{'jacobi it':>10}{'s':>9}{'spectral it':>13}{'s':>9}")
    for n in (int(v) for v in args.nodes.split(",")):
        g = Grid((n,) * args.dim, (1.0,) * args.dim, 1.0, 1)
        label = "x".join([str(n)] * args.dim)
        b = g.weights * np.random.default_rng(0).standard_normal(g.n_nodes)
        rows = []
        for tname, tensor in tensors(g).items():
            for sname, (A, eig, load) in systems(g, tensor, b).items():
                rows.append((sname, tname, A, g.spectral.inverse(eig), load))
        for sname, tname, A, precond, load in rows:
            jac = solve_counted(A, load, precond=lambda r, d=1.0 / A.diagonal(): d * r)
            spec = solve_counted(A, load, precond=precond)
            print(f"{label:<10}{sname:<9}{tname:<11}"
                  f"{jac[0]:>10}{jac[1]:>9.4f}{spec[0]:>13}{spec[1]:>9.4f}")

    print(f"\nbidomain step\n{'grid':<10}{'tensor':<11}"
          f"{'nested K':>10}{'ms':>9}{'coupled K':>11}{'ms':>9}")
    for n in (int(v) for v in args.nodes.split(",")):
        g = Grid((n,) * args.dim, (1.0,) * args.dim, 1.0, 1)
        bidomain_rows(g, "x".join([str(n)] * args.dim))

    print(f"\nwarm starts, 10-step forward run: operator applications\n"
          f"{'grid':<10}{'solves':<8}{'tensor':<11}{'calls':>6}"
          f"{'warm':>8}{'cold':>8}{'chosen':>8}")
    for n in (int(v) for v in args.nodes.split(",")):
        g = Grid((n,) * args.dim, (1.0,) * args.dim, 0.2, 10)
        warm_start_rows(g, "x".join([str(n)] * args.dim))


if __name__ == "__main__":
    main()
