#!/usr/bin/env python3
"""Compare Jacobi and DCT-I spectral preconditioned CG on the grid systems.

For each grid it solves, from a cold start to a relative residual of
1e-10, the implicit step system Mass + K and the pure-Neumann
stiffness K (deflated), for an isotropic and a rotating-fibre tensor (10:1
anisotropy), and prints the operator applications and wall time of
each solver.  The spectral counts should be flat under refinement and
equal to one where the tensor is constant.

A second table solves one bidomain step (dt = 1, M_e = 0.6 I + 0.5 M_i)
two ways and prints the stiffness products (K_i, K_ie and K_e) and the
best wall time of three runs of each: the nested Schur form, an outer CG on Mass + dt A_h whose
every application runs an inner deflated K_ie CG (to 1e-11), plus the
forcing lift solve; and the coupled block PCG of
``assembly.solve_coupled_step``.
"""

import argparse
import time

import numpy as np
import scipy.sparse as sp

from cardioct.assembly import (
    assemble_stiffness,
    build_operators,
    reduced_operator,
    reduced_rhs_S,
    solve_coupled_step,
)
from cardioct.grid import Grid, TensorField
from cardioct.linalg import cg_solve
from cardioct.spectral import reference_coefficients


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


def systems(g, K):
    """name -> (matrix, spectral eigenvalues, deflate) for one stiffness K."""
    lam = g.spectral.stiffness_eigenvalues(reference_coefficients(K, g))
    return {
        "step": ((sp.diags(g.weights) + K).tocsr(), 1.0 + lam, False),
        "neumann": (K, lam, True),
    }


class Counted:
    """A sparse matrix whose products with vectors are counted."""

    def __init__(self, A, count):
        self.A, self.count = A, count

    def __matmul__(self, v):
        self.count[0] += 1
        return self.A @ v


def nested_step(ops, dt, f, I_i, I_e):
    """phi of the step in the nested Schur form (the coupled form's oracle)."""
    K_i, mass = ops.K_i, ops.mass

    def apply(v):
        Kv = K_i @ v
        psi = cg_solve(ops.K_ie, Kv, tol=1e-11, precond=ops.kie_precond, deflate=True)
        return mass * v + dt * (Kv - K_i @ psi)

    lam_i, lam_ie = ops.spectrum_i, ops.spectrum_ie
    schur = lam_i - np.divide(lam_i**2, lam_ie, out=np.zeros_like(lam_i), where=lam_ie > 0)
    rhs = f - dt * mass * I_i + dt * reduced_rhs_S(ops, I_i, I_e)
    return cg_solve(apply, rhs, tol=1e-10, precond=ops.grid.spectral.inverse(1.0 + dt * schur))


def coupled_step(ops, dt, f, I_i, I_e):
    system = reduced_operator(ops, dt)
    return solve_coupled_step(ops, system, f, dt * ops.mass * (I_i + I_e), tol=1e-10)[0]


def bidomain_rows(g, label):
    """One row per tensor: K-products and seconds of the nested and coupled steps."""
    rng = np.random.default_rng(0)
    phi0, I_i, I_e = rng.standard_normal((3, g.n_nodes))
    I_e -= (g.weights @ (I_i + I_e)) / g.measure  # compatible currents
    f = g.weights * (phi0 + g.dt * I_i)
    for tname, mi in tensors(g).items():
        ops = build_operators(g, mi, TensorField(g, 0.6 * np.eye(g.dim) + 0.5 * mi.entries))
        ops.K_e, ops.spectrum_i, ops.spectrum_ie, ops.kie_precond  # built before counting
        count = [0]
        for name in ("K_i", "K_ie", "K_e"):
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
            K = assemble_stiffness(g, tensor)
            for sname, (A, eig, deflate) in systems(g, K).items():
                rows.append((sname, tname, A, g.spectral.inverse(eig), deflate))
        for sname, tname, A, precond, deflate in rows:
            jac = solve_counted(A, b, diag=A.diagonal(), deflate=deflate)
            spec = solve_counted(A, b, precond=precond, deflate=deflate)
            print(f"{label:<10}{sname:<9}{tname:<11}"
                  f"{jac[0]:>10}{jac[1]:>9.4f}{spec[0]:>13}{spec[1]:>9.4f}")

    print(f"\nbidomain step\n{'grid':<10}{'tensor':<11}"
          f"{'nested K':>10}{'ms':>9}{'coupled K':>11}{'ms':>9}")
    for n in (int(v) for v in args.nodes.split(",")):
        g = Grid((n,) * args.dim, (1.0,) * args.dim, 1.0, 1)
        bidomain_rows(g, "x".join([str(n)] * args.dim))


if __name__ == "__main__":
    main()
