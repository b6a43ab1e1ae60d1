"""Preconditioned conjugate gradients.

One solver is used for every linear system in the package: the
lumped-mass monodomain steps, the pure-Neumann elliptic solves and
the matrix-free coupled block system of a bidomain step.  The last
two are singular with constants in their kernel; they need no
deflation, because their loads sum to zero and their preconditioners
are positive definite on that subspace, and on such a consistent
system PCG converges to a solution (Kaasschieter, J. Comput. Appl.
Math. 24, 1988).  Every system comes as an ``(apply, precond)`` pair
of ``assembly.SystemOperators``; the preconditioner is required.

A spectral preconditioner built for a constant diagonal tensor is the
exact inverse of its system and says so (``precond.exact``).  Every
solve of such a system starts from x = P b, the first iterate of a
cold PCG (whose step length is 1 for an exact P), and the caller's
``x0`` plays no part.  The residual test of P b, one operator
application, is made on the first solve with each preconditioner: a
relative residual rho above 1e-6 raises ``SolverError`` (the ``exact``
mark is wrong), and otherwise the estimate

    precond.residual = max(rho, eps * max(precond.condition, 100))

is stored.  rho is that of one load only; eps times the condition
number of the operator's spectrum (``precond.condition``, set by
``spectral``) is the order of the residual on its worst load, the
softest mode, whose solution is the largest; 100 eps is the order of
the roundoff of a residual itself, from the stencil sums and the
transforms.  Every later solve with ``tol >= 100 precond.residual``
returns P b directly, with no operator application, and checks only
that it is finite.  A tighter tolerance, at the roundoff level of the
system, keeps the residual test, and PCG iterates on from P b when the
test fails.  So whenever P b meets ``tol`` it is the result, whichever
solve of the system it is.  For every other preconditioner (variable
tensors: fibres, scar) the iteration keeps the caller's warm start,
which saves iterations.  Callers therefore always pass their best
``x0`` and leave the choice here.

Several right-hand sides of one system are solved together as the rows
of an (m, n) block, as the package stores its states and series.  Each
row is its own PCG, with its own step lengths, residual test,
warm-start choice and iteration cap; the block only shares the operator
and preconditioner calls, which then act on (k, n) blocks of the k rows
still iterating.  A row that converges is retired: it is stored and
dropped from the block, so no arithmetic is spent on it afterwards.  A
single right-hand side is the case m = 1 kept one-dimensional, with
scalar inner products and no row bookkeeping, as cheap as a one-vector PCG.
"""

from __future__ import annotations

import numpy as np


class SolverError(RuntimeError):
    """Raised when CG does not reach the requested tolerance.

    Carries the final relative residual (of the worst row, for a
    block of right-hand sides) and the iteration count so callers can
    report how close the solve got.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def row_product(A, x):
    """A @ x for one vector, or for each row of a (k, n) block.

    A matrix multiplies columns, so a row block is transposed here and
    nowhere else; its rows come back contiguous, for ``_row_dots``.
    """
    return np.ascontiguousarray((A @ x.T).T)


def _row_dots(u, v):
    """Inner products of the matching rows of two (k, n) blocks, as a (k, 1) column.

    A stack of (1, n) @ (n, 1) products: each row's product is the BLAS
    dot that ``np.dot`` takes for one vector, so a row's inner
    products are bit-identical to those of its single solve.
    """
    return (u[:, None, :] @ v[:, :, None])[:, 0]


def cg_solve(A, b, *, precond, tol=1e-10, x0=None):
    """Solve ``A x = b`` for symmetric positive (semi)definite ``A``.

    A singular ``A`` needs a consistent ``b`` (in the range of ``A``)
    and a preconditioner that is positive definite on that range.

    Parameters
    ----------
    A : callable ``v -> A @ v``
        Operator.  For a block ``b`` it receives (k, n) blocks, one row
        per unconverged right-hand side, and maps them row by row (a
        matrix is wrapped as ``partial(row_product, matrix)``).
    b : array, shape (n,) or (m, n)
        Right-hand side, or m right-hand sides as rows, each solved as
        its own PCG (see the module docstring).  A zero row gives a zero
        row.
    precond : callable
        Symmetric positive (semi)definite ``r -> z`` approximating
        ``A^{-1} r``, such as ``SpectralBasis.inverse``; like ``A`` it
        maps (k, n) blocks row by row.  A true ``precond.exact``
        marks it the exact (pseudo-)inverse of ``A``; the solve is then
        direct, guarded by ``precond.residual`` (see the module
        docstring).
    tol : float
        Relative residual target ``||b - A x|| <= tol * ||b||``, per
        row.
    x0 : array, optional
        Warm-start iterate, shaped like ``b``.  Ignored when
        ``precond.exact`` is true: the solve then starts from
        ``precond(b)``.  A row whose warm start has a larger residual
        than the cold start is started cold.

    Returns
    -------
    array, shaped like ``b``
        The solution; for a singular ``A``, one solution, in no fixed
        gauge.

    Raises
    ------
    SolverError
        If a row does not reach the tolerance within 10 n iterations,
        or if a direction of nonpositive curvature shows up; it reports
        the row with the largest relative residual.  Also
        if the first solve with a preconditioner marked exact leaves a
        relative residual above 1e-6, and on a non-finite load (the
        direct solve tests its result, every other solve the load's
        norm).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2):
        raise ValueError(f"cg_solve takes b of shape (n,) or (m, n), not {b.shape}")
    unmeasured = None  # an exact preconditioner on its first solve
    if getattr(precond, "exact", False):
        x0 = precond(b)
        if tol >= 100.0 * getattr(precond, "residual", np.inf):
            if not np.isfinite(x0.sum()):
                raise SolverError("cg_solve got a non-finite load")
            return x0
        if not hasattr(precond, "residual"):
            unmeasured = precond
    block = b.ndim == 2

    rows = None
    if block:
        # the per-row scalars are (k, 1) arrays that broadcast over the rows
        dot = _row_dots
        b = np.ascontiguousarray(b)
        out = np.zeros(b.shape)
        b_norm = np.sqrt(dot(b, b))
        _require_finite(b_norm)
        rows = np.flatnonzero(b_norm)  # zero rows stay zero
        if rows.size == 0:
            return out
        if rows.size < len(b):
            b, b_norm = b[rows], b_norm[rows]
            x0 = None if x0 is None else np.asarray(x0, dtype=float)[rows]
    else:
        dot = np.dot
        b_norm = np.sqrt(dot(b, b))
        _require_finite(b_norm)
        if b_norm == 0.0:
            return np.zeros(b.shape)
    target = tol * b_norm

    if x0 is None:
        x = np.zeros(b.shape)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A(x)
        if unmeasured is not None:
            _store_residual(unmeasured, np.sqrt(dot(r, r)) / b_norm)
        # a warm start worse than a cold one (this happens when the load
        # collapses between calls) is discarded, so that the iteration
        # stays scale invariant
        worse = np.sqrt(dot(r, r)) > b_norm
        if worse.any():
            x = np.where(worse, 0.0, x)
            r = np.where(worse, b, r)

    res = np.sqrt(dot(r, r))
    p = rz = None
    it = 0
    while True:
        done = res <= target
        if not block:
            if done:
                return x
        elif done.any():
            done = done[:, 0]
            if rows.size == len(out) and done.all():
                return x  # every row converged together
            out[rows[done]] = x[done]
            keep = ~done
            if not keep.any():
                return out
            x, r, res, target, b_norm, rows = (
                a[keep] for a in (x, r, res, target, b_norm, rows)
            )
            if p is not None:
                p, rz = p[keep], rz[keep]
        if it >= 10 * b.shape[-1]:
            raise _stalled(res / b_norm, it, tol, rows)
        z = precond(r)
        rz_new = dot(r, z)
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A(p)
        pAp = dot(p, Ap)
        if (pAp <= 0.0).any():
            raise SolverError(
                f"cg_solve hit nonpositive curvature at iteration {it}",
                residual=float(np.max(res / b_norm)),
                iterations=it,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = np.sqrt(dot(r, r))
        it += 1


def _require_finite(b_norm):
    """Raise SolverError unless every load norm is finite.

    An infinite norm would make the target tol * ||b|| infinite, which
    any iterate meets, and a NaN one a target that none meets.
    """
    if not np.isfinite(b_norm).all():
        raise SolverError("cg_solve got a non-finite load")


def _store_residual(precond, rel):
    """Store ``precond.residual`` from the first solve of a system marked exact.

    ``rel`` holds the relative residuals of x = P b, one per row;
    see the module docstring for the estimate.  A non-finite residual
    of a finite load (an overflow) stores nothing.
    """
    rho = float(np.max(rel))
    if not np.isfinite(rho):
        return
    if rho > 1e-6:
        raise SolverError(
            f"a preconditioner marked exact leaves the relative residual {rho:.3e} "
            "(above 1e-6) on its first solve",
            residual=rho,
            iterations=0,
        )
    condition = getattr(precond, "condition", 1.0)
    precond.residual = max(rho, np.finfo(float).eps * max(condition, 100.0))


def _stalled(rel, iterations, tol, rows):
    """SolverError for the unconverged row with the largest relative residual.

    ``rows`` maps the iterating rows to the rows of b (None for a 1-D b).
    """
    worst = int(np.argmax(rel))
    where = "" if rows is None else f" in row {rows[worst]}"
    rel = float(np.max(rel))
    return SolverError(
        f"cg_solve stalled after {iterations} iterations{where} "
        f"(relative residual {rel:.3e}, target {tol:.3e})",
        residual=rel,
        iterations=iterations,
    )
