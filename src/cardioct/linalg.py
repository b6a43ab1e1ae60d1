"""Preconditioned conjugate gradients.

One solver is used for every linear system in the package: the
lumped-mass monodomain steps, the pure-Neumann elliptic solves and
the matrix-free coupled block system of a bidomain step.  The last
two are singular with constants in their kernel; they need no
deflation, because their loads sum to zero and their preconditioners
are positive definite on that subspace, and on such a consistent
system PCG converges to a solution (Kaasschieter, J. Comput. Appl.
Math. 24, 1988).  The package's callers pass the DCT-I spectral
preconditioners of ``spectral``; a caller that passes only a matrix
gets Jacobi.

A spectral preconditioner built for a constant diagonal tensor is the
exact inverse of its system and says so (``precond.exact``).  Started
cold, CG then stops after one operator application; a warm start would
spend a second one on the residual b - A x0 and save nothing, so
``cg_solve`` ignores ``x0`` for such a preconditioner.  For every other
preconditioner (variable tensors: fibres, scar) it keeps the warm
start, which saves iterations.  Callers therefore always pass their
best ``x0`` and leave the choice here.
"""

from __future__ import annotations

import numpy as np


class SolverError(RuntimeError):
    """Raised when CG does not reach the requested tolerance.

    Carries the final relative residual and the iteration count so
    callers can report how close the solve got.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def cg_solve(A, b, *, tol=1e-10, maxiter=None, diag=None, precond=None, x0=None):
    """Solve ``A x = b`` for symmetric positive (semi)definite ``A``.

    A singular ``A`` needs a consistent ``b`` (in the range of ``A``)
    and a preconditioner that is positive definite on that range.

    Parameters
    ----------
    A : scipy sparse matrix, or callable ``v -> A @ v``
        Operator.  A callable must be accompanied by ``precond`` or
        ``diag``.
    b : array
        Right-hand side.
    tol : float
        Relative residual target ``||b - A x|| <= tol * ||b||``.
    maxiter : int, optional
        Iteration cap; defaults to ``10 * n``.
    diag : array, optional
        Diagonal of ``A`` for the Jacobi preconditioner, used when no
        ``precond`` is given.  Taken from ``A.diagonal()`` when omitted.
    precond : callable, optional
        Symmetric positive (semi)definite ``r -> z`` approximating
        ``A^{-1} r``, such as ``SpectralBasis.inverse``.  Takes
        precedence over ``diag``.  A true ``precond.exact`` attribute
        states that it is the exact (pseudo-)inverse of ``A``.
    x0 : array, optional
        Warm-start iterate.  Ignored when ``precond.exact`` is true:
        with an exact preconditioner the cold start costs one operator
        application and a warm start two (its residual plus the one
        step).  The residual test still decides convergence, so a wrong
        ``exact`` flag costs iterations, never accuracy.

    Returns
    -------
    array
        The solution; for a singular ``A``, one solution, in no fixed
        gauge.

    Raises
    ------
    SolverError
        If the tolerance is not reached within ``maxiter`` iterations,
        or if a direction of nonpositive curvature shows up.
    """
    matvec = A if callable(A) else A.__matmul__
    if precond is None:
        if diag is None:
            if callable(A):
                raise ValueError("matrix-free cg_solve needs precond or diag")
            diag = A.diagonal()
        diag = np.asarray(diag, dtype=float)
        if np.any(diag <= 0.0):
            raise ValueError("Jacobi preconditioner needs a positive diagonal")
        inv_diag = 1.0 / diag
        precond = inv_diag.__mul__

    b = np.asarray(b, dtype=float)
    n = b.size
    if maxiter is None:
        maxiter = 10 * n

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)
    target = tol * b_norm

    if x0 is None or getattr(precond, "exact", False):
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - matvec(x)
        if float(np.linalg.norm(r)) > b_norm:
            # the warm start is worse than a cold one (this happens when
            # the load collapses between calls); discard it so that the
            # iteration stays scale invariant
            x = np.zeros(n)
            r = b.copy()

    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r))

    it = 0
    while res > target and it < maxiter:
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError(
                f"cg_solve hit nonpositive curvature at iteration {it}",
                residual=res / b_norm,
                iterations=it,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        if res <= target:
            it += 1
            break
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1

    if res > target:
        raise SolverError(
            f"cg_solve stalled after {it} iterations "
            f"(relative residual {res / b_norm:.3e}, target {tol:.3e})",
            residual=res / b_norm,
            iterations=it,
        )
    return x
