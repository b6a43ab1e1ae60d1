"""Finite-element operators on the structured grid.

Stiffness matrices come from bilinear/trilinear elements on the box
cells with a cellwise-constant symmetric conductivity tensor and
2-point Gauss quadrature per axis (exact for these integrands).  On
the structured grid every element entry Ke[a, b] couples a node to
the node at the fixed offset corner_b - corner_a in {-1, 0, 1}^dim,
so the matrix is a 3^dim-point stencil with node-dependent weights.
The entries with a nonnegative flat offset are summed into one
stencil array per offset, one slice-add over the cells per corner
pair; the weights of each negative offset are a shifted copy of its
mirror (K[i, i + d] = K[i + d, i]), so K is exactly symmetric with no
symmetrization pass.  Rows are the nodes in C order and the offsets
ascend in flat order, so dropping the out-of-grid and exactly-zero
entries leaves CSR arrays with sorted columns, written directly (no
COO triplets, no index sort, no transpose).  The mass matrix is
lumped to the tensor-trapezoid weights, which is the row-sum lumping
of the consistent element mass and keeps the operator algebra
consistent with ``grid.integrate``.

The reduced bidomain operator is a Schur complement: applying A_h to u
solves the intra+extra stiffness system K_ie psi = K_i u and returns
K_i u - K_i psi, which collapses to (lam/(1+lam)) K_i u whenever the
extracellular tensor is lam times the intracellular one.

Every solve is CG preconditioned in the grid's DCT-I eigenbasis
(``spectral``), with eigenvalues taken from the per-axis cell means of
each tensor's diagonal: exact for constant diagonal tensors, spectrally
equivalent (mesh-independent iteration counts) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp

from .grid import Grid, ScalarField, TensorField
from .linalg import SolverError, cg_solve
from .spectral import reference_coefficients

__all__ = [
    "EllipticityError",
    "CompatibilityError",
    "SolverError",
    "SystemOperators",
    "ellipticity_check",
    "assemble_stiffness",
    "assemble_mass",
    "check_operator",
    "build_operators",
    "cg_solve",
    "solve_neumann",
    "bidomain_elliptic_solve",
    "reduced_rhs_S",
    "reduced_operator",
]


class EllipticityError(ValueError):
    """Conductivity tensor is not symmetric positive definite on some cell."""


class CompatibilityError(ValueError):
    """A pure-Neumann load does not integrate to zero."""


def ellipticity_check(tensor):
    """Validate a tensor field and return (mu1, mu2) eigenvalue bounds.

    mu1 is the smallest eigenvalue over all cells, mu2 the largest;
    both are cached on the tensor.  Cells whose off-diagonal entries
    are all zero are read off their diagonal; only the others go
    through ``eigvalsh``.  Raises EllipticityError for non-finite,
    non-symmetric or non-positive-definite cells.
    """
    e = tensor.entries
    if not np.isfinite(e).all():
        raise EllipticityError("tensor has a non-finite entry")
    scale = float(np.max(np.abs(e))) or 1.0
    i, j = np.triu_indices(e.shape[1], 1)
    upper, lower = e[:, i, j], e[:, j, i]
    if float(np.abs(upper - lower).max(initial=0.0)) > 1e-12 * scale:
        raise EllipticityError("tensor has a non-symmetric cell")
    diag = np.diagonal(e, axis1=1, axis2=2).T.copy()  # (dim, n_cells): fast axis-0 reductions
    lo, hi = diag.min(axis=0), diag.max(axis=0)
    full = (lower != 0.0).any(axis=1)  # eigvalsh reads the lower triangle
    if full.any():
        eigs = np.linalg.eigvalsh(e[full])
        lo[full], hi[full] = eigs[:, 0], eigs[:, -1]
    mu1 = float(lo.min())
    mu2 = float(hi.max())
    if mu1 <= 0.0:
        raise EllipticityError(f"tensor is not uniformly elliptic (min eigenvalue {mu1:g})")
    tensor.mu1, tensor.mu2 = mu1, mu2
    return mu1, mu2


def _reference_gradients(dim):
    """Shape-function gradients at the tensor-product Gauss points.

    Returns (G, w) with G of shape (n_gauss, 2**dim, dim) on the unit
    reference cell and w the Gauss weights (sum 1).
    """
    offset = 0.5 / np.sqrt(3.0)
    pts_1d = (0.5 - offset, 0.5 + offset)
    corners = list(product((0, 1), repeat=dim))
    gauss = list(product(pts_1d, repeat=dim))
    G = np.empty((len(gauss), len(corners), dim))
    for gi, xi in enumerate(gauss):
        for ci, bits in enumerate(corners):
            for k in range(dim):
                val = 1.0
                for j in range(dim):
                    if j == k:
                        continue
                    val *= xi[j] if bits[j] else 1.0 - xi[j]
                G[gi, ci, k] = val if bits[k] else -val
    w = np.full(len(gauss), 1.0 / len(gauss))
    return G, w


def assemble_stiffness(grid, tensor):
    """Assemble the CSR stiffness matrix for int grad(u)^T M grad(v) dx.

    Built as a 3^dim-point stencil (see the module docstring); the
    result is exactly symmetric with sorted columns.
    """
    if tensor.mu1 is None:
        ellipticity_check(tensor)
    dim, nodes = grid.dim, grid.nodes_per_axis
    G, w = _reference_gradients(dim)
    Gp = G / np.asarray(grid.h)  # physical gradients
    Ke = grid.cell_volume * np.einsum(
        "g,gak,ckm,gbm->cab", w, Gp, tensor.entries, Gp, optimize=True
    )
    Ke = Ke.reshape(tuple(n - 1 for n in nodes) + Ke.shape[1:])

    n_offsets = 3**dim
    strides = np.cumprod((1,) + nodes[:0:-1])[::-1]
    deltas = np.array(list(product((-1, 0, 1), repeat=dim)))
    offsets = deltas @ strides  # ascending: C order of deltas
    corners = list(product((0, 1), repeat=dim))
    stencil = np.zeros((n_offsets,) + nodes)
    for a, alpha in enumerate(corners):
        rows = tuple(slice(c, c + n - 1) for c, n in zip(alpha, nodes))
        for b, beta in enumerate(corners):
            s = np.ravel_multi_index(np.subtract(beta, alpha) + 1, (3,) * dim)
            if offsets[s] >= 0:
                stencil[(s,) + rows] += Ke[..., a, b]
    for s in range(n_offsets // 2):
        # K[i, i + delta] = K[i + delta, i], stored under the mirror offset
        dst = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(deltas[s], nodes))
        src = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(deltas[s], nodes))
        stencil[(s,) + dst] = stencil[(n_offsets - 1 - s,) + src]

    # out-of-grid entries were never written, so they are zero like true zeros
    stencil = stencil.reshape(n_offsets, -1).T
    keep = stencil != 0.0
    n = grid.n_nodes
    index = np.int32 if n_offsets * n < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    cols = np.arange(n, dtype=index)[:, None] + offsets.astype(index)
    return sp.csr_matrix((stencil[keep], cols[keep], indptr), shape=(n, n))


def assemble_mass(grid):
    """Lumped mass diagonal (equals the quadrature weights)."""
    return grid.weights.copy()


def check_operator(K):
    """Validate that an assembled operator is square and symmetric."""
    n, m = K.shape
    if n != m:
        raise ValueError(f"operator is not square: {K.shape}")
    defect = sp.csr_matrix(K - K.T)
    scale = float(np.max(np.abs(K.data))) if K.nnz else 1.0
    if defect.nnz and float(np.max(np.abs(defect.data))) > 1e-12 * scale:
        raise ValueError("operator is not symmetric")
    return K


@dataclass
class SystemOperators:
    """Assembled operators for one conductivity configuration.

    K_i is the intracellular stiffness, K_ie the combined
    intra+extracellular stiffness (None for monodomain-only use), mass
    the lumped diagonal, and lam the extra/intra conductivity ratio used
    by the monodomain reduction.  The spectral eigenvalues and
    preconditioners, and the monodomain step matrices, are built on
    first use.  The dual norms need no operator: ``grid`` reads them
    off the DCT-I coefficients.
    """

    grid: Grid
    mass: np.ndarray
    K_i: sp.csr_matrix
    lam: float
    K_ie: sp.csr_matrix | None = None
    mi: TensorField | None = None
    me: TensorField | None = None
    _step_systems: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def spectrum_i(self):
        """DCT-I eigenvalues of the stiffness of K_i's cell-mean diagonal tensor."""
        return self.grid.spectral.stiffness_eigenvalues(
            reference_coefficients(self.K_i, self.grid)
        )

    @cached_property
    def spectrum_ie(self):
        """DCT-I eigenvalues of the stiffness of K_ie's cell-mean diagonal tensor."""
        if self.K_ie is None:
            raise ValueError("operators were built without an extracellular tensor")
        return self.grid.spectral.stiffness_eigenvalues(
            reference_coefficients(self.K_ie, self.grid)
        )

    @cached_property
    def kie_precond(self):
        """Spectral pseudo-inverse of K_ie for the deflated elliptic solves."""
        return self.grid.spectral.inverse(self.spectrum_ie)

    def step_system(self, coef):
        """Matrix Mass + coef * K_i and its spectral inverse, built once per coef."""
        if coef not in self._step_systems:
            A = (sp.diags(self.mass) + coef * self.K_i).tocsr()
            precond = self.grid.spectral.inverse(1.0 + coef * self.spectrum_i)
            self._step_systems[coef] = (A, precond)
        return self._step_systems[coef]


def build_operators(grid, mi, me=None, lam=1.0):
    """Assemble SystemOperators from intra (and optional extra) tensors."""
    ellipticity_check(mi)
    K_i = assemble_stiffness(grid, mi)
    K_ie = None
    if me is not None:
        ellipticity_check(me)
        K_ie = assemble_stiffness(grid, mi + me)
    return SystemOperators(
        grid=grid,
        mass=assemble_mass(grid),
        K_i=K_i,
        lam=float(lam),
        K_ie=K_ie,
        mi=mi,
        me=me,
    )


def _values(u):
    return u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)


def solve_neumann(K, load_vec, *, weights, measure, precond=None, tol=1e-11, x0=None):
    """Solve the singular pure-Neumann system K x = load, weighted zero-mean gauge.

    The load is compatibilized exactly (its Euclidean mean is removed,
    a roundoff-level correction for admissible loads), CG runs with
    constant deflation and ``precond`` (Jacobi when omitted), and the
    returned field integrates to zero.
    """
    load_vec = load_vec - load_vec.sum() / load_vec.size
    x = cg_solve(K, load_vec, tol=tol, precond=precond, deflate=True, x0=x0)
    return x - (weights @ x) / measure


def bidomain_elliptic_solve(ops, load, *, nodal=True, tol=1e-11, x0=None):
    """Solve K_ie phi_e = load with zero-flux boundaries and zero-mean gauge.

    ``load`` is a nodal field (functional values; paired through the
    lumped weights) unless ``nodal=False``, in which case it is already
    an assembled load vector.  Loads whose total exceeds 1e-8 times
    their norm are rejected as incompatible.
    """
    if ops.K_ie is None:
        raise ValueError("operators were built without an extracellular tensor")
    is_field = isinstance(load, ScalarField)
    lv = _values(load)
    if nodal:
        lv = ops.mass * lv
    norm = float(np.linalg.norm(lv))
    if norm == 0.0:
        out = np.zeros(ops.grid.n_nodes)
        return ScalarField(ops.grid, out) if is_field else out
    total = float(lv.sum())
    if abs(total) > 1e-8 * norm:
        raise CompatibilityError(
            f"elliptic load integrates to {total:.3e} (norm {norm:.3e}); "
            "enforce compatibility first"
        )
    x = solve_neumann(
        ops.K_ie,
        lv,
        weights=ops.grid.weights,
        measure=ops.grid.measure,
        precond=ops.kie_precond,
        tol=tol,
        x0=x0,
    )
    return ScalarField(ops.grid, x) if is_field else x


def reduced_rhs_S(ops, I_i, I_e, *, tol=1e-11, cache=None):
    """Forcing load of the reduced transmembrane system.

    Lifts the total current I_i + I_e through the extracellular solve
    (psi_e, zero-mean) and returns the load vector Mass I_i - K_i psi_e.
    With M_e = lam M_i this equals Mass (lam I_i - I_e)/(1+lam), the
    monodomain forcing.
    """
    ii, ie = _values(I_i), _values(I_e)
    x0 = cache.get("psibar") if cache is not None else None
    psibar = bidomain_elliptic_solve(ops, ii + ie, nodal=True, tol=tol, x0=x0)
    if cache is not None:
        cache["psibar"] = psibar
    return ops.mass * ii - ops.K_i @ psibar


def reduced_operator(ops, dt, *, tol=1e-11):
    """Matrix-free application of Mass + dt * A_h plus its preconditioner.

    A_h is the Schur complement K_i - K_i K_ie^+ K_i; each application
    performs one deflated inner CG solve with K_ie.  The preconditioner
    is the spectral inverse of the Schur complement of the reference
    tensors, eigenvalues 1 + dt (lam_i - lam_i^2 / lam_ie) (the kernel
    mode gets 1), exact when both tensors are constant and diagonal.
    """
    K_i, mass = ops.K_i, ops.mass
    inner = ops.kie_precond

    def apply(v):
        Kv = K_i @ v
        psi = cg_solve(ops.K_ie, Kv, tol=tol, precond=inner, deflate=True)
        return mass * v + dt * (Kv - K_i @ psi)

    lam_i, lam_ie = ops.spectrum_i, ops.spectrum_ie
    schur = lam_i - np.divide(lam_i**2, lam_ie, out=np.zeros_like(lam_i), where=lam_ie > 0)
    return apply, ops.grid.spectral.inverse(1.0 + dt * schur)
