#!/usr/bin/env python3
"""Compare Jacobi and DCT-I spectral preconditioned CG on the grid systems.

For each grid it solves, from a cold start to a relative residual of
1e-10, the implicit step system Mass + K and the pure-Neumann
stiffness K (deflated), for an isotropic and a rotating-fibre tensor (10:1
anisotropy), and prints the operator applications and wall time of
each solver.  The spectral counts should be flat under refinement and
equal to one where the tensor is constant.
"""

import argparse
import time

import numpy as np
import scipy.sparse as sp

from cardioct.assembly import assemble_stiffness
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


if __name__ == "__main__":
    main()
