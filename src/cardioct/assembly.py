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

One bidomain step is the coupled block system

    [[Mass + dt K_i, dt K_i], [dt K_i, dt K_ie]] [phi; psi] = [f; g]

(``reduced_operator``, ``solve_coupled_step``).  It is symmetric
positive semidefinite with kernel (0, constants), and its Schur
complement on phi is Mass + dt A_h with the reduced bidomain operator
A_h = K_i - K_i K_ie^+ K_i, which collapses to (lam/(1+lam)) K_i
whenever the extracellular tensor is lam times the intracellular one.
Solving the block system with one flat PCG avoids the inner K_ie
solve that every application of the Schur complement would need.

Every solve is CG preconditioned in the grid's DCT-I eigenbasis
(``spectral``), with eigenvalues taken from the per-axis cell means of
each tensor's diagonal: exact for constant diagonal tensors, spectrally
equivalent (mesh-independent iteration counts) otherwise.  The step and
K_ie inverses are marked ``exact`` in the first case, so that
``cg_solve`` drops a warm start it does not need.  The block
system gets one 2x2 inverse per mode.  The pure-Neumann K_ie solve
(``solve_neumann``) and the psi row of the block system take loads
that sum to zero, on which these singular systems are consistent, so
no solve deflates the constants.

The solves take one load, or a block of loads as the columns of an
(n, m) array (``linalg.cg_solve``); the lumped mass then scales every
column, and the compatibility test and the zero-mean gauge act per
column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp

from .grid import Grid, ScalarField, TensorField
from .linalg import cg_solve
from .spectral import reference_coefficients

__all__ = [
    "EllipticityError",
    "CompatibilityError",
    "SystemOperators",
    "ellipticity_check",
    "assemble_stiffness",
    "assemble_mass",
    "build_operators",
    "solve_neumann",
    "bidomain_elliptic_solve",
    "reduced_rhs_S",
    "reduced_operator",
    "solve_coupled_step",
]


class EllipticityError(ValueError):
    """Conductivity tensor is not symmetric positive definite on some cell."""


class CompatibilityError(ValueError):
    """A pure-Neumann load does not integrate to zero."""


def ellipticity_check(tensor):
    """Validate a tensor field and return (mu1, mu2) eigenvalue bounds.

    mu1 is the smallest eigenvalue over all cells, mu2 the largest.
    Cells whose off-diagonal entries are all zero are read off their
    diagonal; only the others go through ``eigvalsh``.  Raises
    EllipticityError for non-finite, non-symmetric or
    non-positive-definite cells.
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
    return mu1, mu2


@cache
def _reference_gradients(dim):
    """Shape-function gradients at the tensor-product Gauss points.

    Returns (G, w) with G of shape (n_gauss, 2**dim, dim) on the unit
    reference cell and w the Gauss weights (sum 1).  Built once per dim;
    both arrays are read-only.
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
    G.flags.writeable = w.flags.writeable = False
    return G, w


def assemble_stiffness(grid, tensor):
    """Assemble the CSR stiffness matrix for int grad(u)^T M grad(v) dx.

    The tensor goes through ``ellipticity_check`` first.  Built as a
    3^dim-point stencil (see the module docstring); the result is
    exactly symmetric with sorted columns.
    """
    ellipticity_check(tensor)
    dim, nodes = grid.dim, grid.nodes_per_axis
    G, w = _reference_gradients(dim)
    Gp = G / np.asarray(grid.h)  # physical gradients
    # Ke[a, b, c] = |cell| sum_km T[k, m, a, b] M_c[k, m], one matmul over the cells,
    # with T[k, m, a, b] = sum_g w_g Gp[g, a, k] Gp[g, b, m] summed by BLAS over g; in
    # this order the entries that vanish on constant diagonal tensors come out exactly
    # zero.  The cells are the fast axis, so each Ke[a, b] below is a contiguous read.
    T = np.tensordot(w[:, None, None] * Gp, Gp, axes=(0, 0)).transpose(1, 3, 0, 2)
    n_corners = 2**dim
    Ke = T.reshape(dim * dim, n_corners**2).T @ tensor.entries.reshape(-1, dim * dim).T
    Ke = grid.cell_volume * Ke.reshape((n_corners, n_corners) + tuple(n - 1 for n in nodes))

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
                stencil[(s,) + rows] += Ke[a, b]
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


def _constant_diagonal(tensor):
    """True when every cell of ``tensor`` holds the same diagonal matrix.

    The DCT-I inverse built from such a tensor's stiffness is exact
    (``spectral``).  A missing tensor (None) gives False.
    """
    if tensor is None:
        return False
    e = tensor.entries
    return bool((e == e[0]).all()) and not (e[0] - np.diag(np.diag(e[0]))).any()


def assemble_mass(grid):
    """Lumped mass diagonal (equals the quadrature weights)."""
    return grid.weights.copy()


@dataclass
class SystemOperators:
    """Assembled operators for one conductivity configuration.

    K_i is the intracellular stiffness, K_e the extracellular one and
    K_ie = K_i + K_e (both None for monodomain-only use), mass the
    lumped diagonal, and lam the extra/intra conductivity ratio used by
    the monodomain reduction.  The spectral eigenvalues and
    preconditioners and the monodomain and coupled bidomain step
    systems are built on first use.  The dual norms need no operator:
    ``grid`` reads them off the DCT-I coefficients.
    """

    grid: Grid
    mass: np.ndarray
    K_i: sp.csr_matrix
    lam: float
    K_e: sp.csr_matrix | None = None
    K_ie: sp.csr_matrix | None = None
    mi: TensorField | None = None
    me: TensorField | None = None
    _step_systems: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _coupled_systems: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Spectral pseudo-inverse of K_ie for ``solve_neumann``.

        It maps the weights (hence the constant mode) to zero and is
        positive definite on the zero-sum vectors, the range of K_ie.
        It is marked exact when ``mi`` and ``me`` are both constant and
        diagonal, and then ``cg_solve`` ignores a warm start.
        """
        exact = _constant_diagonal(self.mi) and _constant_diagonal(self.me)
        return self.grid.spectral.inverse(self.spectrum_ie, exact=exact)

    def step_system(self, coef):
        """Matrix Mass + coef * K_i and its spectral inverse, built once per coef.

        The inverse is marked exact when ``mi`` is constant and diagonal
        (every cell equal, no off-diagonal entry), and then ``cg_solve``
        ignores a warm start; otherwise the warm start is kept.
        """
        if coef not in self._step_systems:
            A = (sp.diags(self.mass) + coef * self.K_i).tocsr()
            precond = self.grid.spectral.inverse(
                1.0 + coef * self.spectrum_i, exact=_constant_diagonal(self.mi)
            )
            self._step_systems[coef] = (A, precond)
        return self._step_systems[coef]

    def coupled_system(self, dt):
        """Coupled bidomain step operator and its block inverse, built once per dt.

        See ``reduced_operator``; ``apply`` costs two sparse products,
        K_i (phi + psi) and K_e psi, on a stacked vector or on each
        column of a (2 N, k) block.
        """
        if dt not in self._coupled_systems:
            K_i, K_e, mass, n = self.K_i, self.K_e, self.mass, self.grid.n_nodes

            def apply(x):
                phi, psi = x[:n], x[n:]
                k_sum = K_i @ (phi + psi)
                return np.concatenate(((mass * phi.T).T + dt * k_sum, dt * (k_sum + K_e @ psi)))

            lam_i, lam_ie = self.spectrum_i, self.spectrum_ie
            precond = self.grid.spectral.block_inverse(1.0 + dt * lam_i, dt * lam_i, dt * lam_ie)
            self._coupled_systems[dt] = (apply, precond)
        return self._coupled_systems[dt]


def build_operators(grid, mi, me=None, lam=1.0):
    """Assemble SystemOperators from intra (and optional extra) tensors.

    Each tensor is checked and assembled once; K_ie is the sum of the
    two stiffness matrices, which is the stiffness of mi + me.
    """
    K_i = assemble_stiffness(grid, mi)
    K_e = K_ie = None
    if me is not None:
        K_e = assemble_stiffness(grid, me)
        K_ie = K_i + K_e
    return SystemOperators(
        grid=grid,
        mass=assemble_mass(grid),
        K_i=K_i,
        lam=float(lam),
        K_e=K_e,
        K_ie=K_ie,
        mi=mi,
        me=me,
    )


def _values(u):
    return u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)


def _neumann_load(load):
    """A pure-Neumann load with its roundoff-level Euclidean mean removed.

    ``load`` is one load vector or an (n, m) block of them as columns.
    Raises CompatibilityError when a load's total exceeds 1e-8 times
    its norm.
    """
    total = load.sum(axis=0)
    norm = np.sqrt((load * load).sum(axis=0))
    excess = np.abs(total) - 1e-8 * norm
    if (excess > 0.0).any():
        j = np.argmax(excess)
        where = f"column {j} of the " if load.ndim == 2 else ""
        raise CompatibilityError(
            f"{where}elliptic load integrates to {total.flat[j]:.3e} "
            f"(norm {norm.flat[j]:.3e}); enforce compatibility first"
        )
    return load - total / load.shape[0]


def _zero_mean(grid, x):
    """Shift x (or each column of x) by a constant to the weighted zero-mean gauge."""
    return x - (grid.weights @ x) / grid.measure


def solve_neumann(ops, load, *, tol, x0=None):
    """Solve the pure-Neumann system K_ie x = load, weighted zero-mean gauge.

    ``load`` is an assembled load vector, or an (n, m) block of them
    solved column by column; a zero load gives zero.  The load must
    sum to zero (``_neumann_load``), which puts it in the
    range of K_ie, and CG with the spectral pseudo-inverse
    ``ops.kie_precond``, positive definite on that range, needs no
    deflation.  The returned field integrates to zero.
    """
    if not load.any():
        return np.zeros(load.shape)
    x = cg_solve(ops.K_ie, _neumann_load(load), tol=tol, precond=ops.kie_precond, x0=x0)
    return _zero_mean(ops.grid, x)


def bidomain_elliptic_solve(ops, load, *, nodal=True, tol=1e-11, x0=None):
    """Solve K_ie phi_e = load with zero-flux boundaries and zero-mean gauge.

    ``load`` is a nodal field (functional values; paired through the
    lumped weights) unless ``nodal=False``, in which case it is already
    an assembled load vector.  An array load may be an (n, m) block of
    loads as columns.  See ``solve_neumann``.
    """
    lv = _values(load)
    if nodal:
        lv = (ops.mass * lv.T).T
    x = solve_neumann(ops, lv, tol=tol, x0=x0)
    return ScalarField(ops.grid, x) if isinstance(load, ScalarField) else x


def reduced_rhs_S(ops, I_i, I_e, *, tol=1e-11):
    """Forcing load of the reduced (Schur) transmembrane system.

    Lifts the total current I_i + I_e through the extracellular solve
    (psi_e, zero-mean) and returns the load vector Mass I_i - K_i psi_e.
    With M_e = lam M_i this equals Mass (lam I_i - I_e)/(1+lam), the
    monodomain forcing.  The coupled step does not need it: its second
    block row carries the lift.
    """
    ii, ie = _values(I_i), _values(I_e)
    psibar = bidomain_elliptic_solve(ops, ii + ie, nodal=True, tol=tol)
    return ops.mass * ii - ops.K_i @ psibar


def reduced_operator(ops, dt):
    """Coupled block operator of one bidomain step and its preconditioner.

    Returns ``(apply, precond)`` on stacked vectors [phi; psi] of length
    2 N for the block matrix [[Mass + dt K_i, dt K_i], [dt K_i, dt K_ie]]
    of the module docstring, memoized per dt on ``ops``.  The
    preconditioner inverts, mode by mode, the DCT-I blocks
    [[1 + dt lam_i, dt lam_i], [dt lam_i, dt lam_ie]] of the reference
    tensors, with the pseudo-inverse [[1, 0], [0, 0]] on the constant
    mode (lam_ie = 0); it is exact when both tensors are constant and
    diagonal.

    The name is that of the reduced operator Mass + dt A_h, the block's
    Schur complement on phi.  It stays because ``perfbench/tracing.py``
    looks the function up by name and times the returned ``apply`` as
    ``assembly.reduced_apply``.
    """
    return ops.coupled_system(dt)


def solve_coupled_step(ops, system, f, g, *, tol):
    """Solve the coupled step system ``system = reduced_operator(ops, dt)``.

    ``g`` is the load of the psi row, which must sum to zero, as in
    ``solve_neumann``.  ``f`` and ``g`` may be (N, m) blocks of loads as
    columns, solved together.  The block PCG starts cold.  Returns
    (phi, psi) with psi in the weighted zero-mean gauge.
    """
    apply, precond = system
    n = f.shape[0]
    x = cg_solve(apply, np.concatenate((f, _neumann_load(g))), tol=tol, precond=precond)
    return x[:n], _zero_mean(ops.grid, x[n:])
