"""Finite-element operators on the structured grid.

Stiffness matrices come from bilinear/trilinear elements on the box
cells with a cellwise-constant symmetric conductivity tensor and
2-point Gauss quadrature per axis (exact for these integrands).  On
the structured grid every element entry Ke[a, b] couples a node to
the node at the fixed offset corner_b - corner_a in {-1, 0, 1}^dim,
so the matrix is a 3^dim-point stencil with node-dependent weights,
and it is kept as that stencil: a ``scipy.sparse.dia_matrix`` with
one diagonal per flat offset, data[r, j] = K[j - offsets[r], j].
The entries with a nonnegative flat offset are summed into their
diagonal, one slice-add over the cells per corner pair; which pairs
feed which delta depends on dim alone and is a table built once per
dim (``_stencil_pairs``).  A constant tensor (``TensorField.constant``)
is checked and contracted as one cell, whose element matrix each
slice-add broadcasts over the cells.  The weights of each negative
offset are a shifted copy of its mirror (K[j - d, j] = K[j, j - d]),
so K is exactly symmetric with no symmetrization pass.  The stencil is
zeroed by a write pass (``np.full``), not a calloc'd ``np.zeros``: the
untouched pages of the latter fault once when a slice-add reads them
and again when it writes them, while written first each page faults in
once and the adds and copies land on resident pages.  Out-of-grid
entries keep that zero.  A constant tensor's stencil is summed on its
class grid instead.  Along each axis an entry of such a stencil
depends only on whether its column node is the first, an inner or the
last node: where the delta is 0 the entry sums the cells on either
side of the node that exist, and where it is +-1 it comes from the one
cell between the two nodes, which exists unless the other node is off
the grid.  So the slice-adds and mirror copies run unchanged on
min(n, 3) nodes per axis (both nodes of a 2-node axis), in the grid's
stencil rows, and one ``np.repeat`` per axis of more than 3 nodes
widens that small stencil into the full one, which is written once,
with no zero-fill.  Each
entry sums the same terms in the same order as a grid-sized pass
would, so the two agree bit for bit.  The stiffness matrices stay DIA
(sums, scalings and products keep the format), and so does
K_ie = K_i + K_e, the sum of the two stencils, which share their
offsets.  The mass matrix is lumped to the tensor-trapezoid weights
(``Grid.weights``), which is the row-sum lumping of the consistent
element mass and keeps the operator algebra consistent with the grid's
quadrature.

One bidomain step is the coupled block system

    [[Mass + dt K_i, dt K_i], [dt K_i, dt K_ie]] [phi; psi] = [f; g]

(``coupled_system``, ``solve_coupled_step``).  It is symmetric
positive semidefinite with kernel (0, constants), and its Schur
complement on phi is Mass + dt A_h with the reduced bidomain operator
A_h = K_i - K_i K_ie^+ K_i, which collapses to (lam/(1+lam)) K_i
whenever the extracellular tensor is lam times the intracellular one.
Solving the block system with one flat PCG avoids the inner K_ie
solve that every application of the Schur complement would need.

Every linear system is one ``(apply, precond)`` pair, a property of
``SystemOperators`` built on first read from its own tensors, grid and
lam: the monodomain step Mass + dt (lam/(1+lam)) K_i
(``step_system``), the pure-Neumann K_ie (``neumann_system``) and the
coupled block (``coupled_system``), with dt the step of the grid.  A
solve reads its pair off the operator set, the coupled step
(``solve_coupled_step``) through ``reduced_operator`` on every call.
``apply`` multiplies through the DIA stencils; no system matrix is
formed.  ``precond`` is CG's preconditioner in the grid's DCT-I
eigenbasis (``spectral``), with eigenvalues taken from the per-axis
cell means of each tensor's diagonal (``TensorField.mean_diagonal``):
exact for constant diagonal tensors
(``TensorField.constant_diagonal``), spectrally equivalent
(mesh-independent iteration counts) otherwise.  The block system gets
one 2x2 inverse per mode.  The inverses are marked ``exact`` in the
first case, and ``cg_solve`` then solves their systems directly,
x = P b, once the first solve of each system has measured its residual
(``linalg``).  The pure-Neumann K_ie solve (``solve_neumann``) and the
psi row of the block system take loads that sum to zero, on which
these singular systems are consistent, so no solve deflates the
constants.  Each load is tested once: its total against 1e-8 times its
norm plus the ``scale`` its caller passes, the norm of the terms that
cancelled where the load was formed (``_neumann_load``).  The solves
return PCG's result as it is, in the weighted zero-mean gauge: the
pseudo-inverse maps the weights to zero, so every iterate of a cold PCG
lies in its range, the fields with zero weighted mean (Kaasschieter,
J. Comput. Appl. Math. 24, 1988).  A solve takes one load, or a block
of loads as the rows of an (m, n) array (``linalg.cg_solve``);
``apply``, the lumped mass and the compatibility test act on every row,
and ``linalg.row_product`` hands the DIA products their columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import product

import numpy as np
import scipy.sparse as sp

from .grid import Grid, TensorField, frame_blocks
from .linalg import cg_solve, row_product

__all__ = [
    "EllipticityError",
    "CompatibilityError",
    "SystemOperators",
    "ellipticity_check",
    "assemble_stiffness",
    "build_operators",
    "solve_neumann",
    "solve_neumann_frames",
    "bidomain_elliptic_solve",
    "reduced_rhs_S",
    "reduced_operator",
    "solve_coupled_step",
]


# Most values (frames x nodes) of one block of ``solve_neumann_frames``.
FRAME_BLOCK_VALUES = 2**16


class EllipticityError(ValueError):
    """Conductivity tensor is not symmetric positive definite on some cell."""


class CompatibilityError(ValueError):
    """A pure-Neumann load does not integrate to zero."""


@cache
def _upper_pairs(dim):
    """``np.triu_indices(dim, 1)``, built once per dim; both arrays are read-only."""
    i, j = np.triu_indices(dim, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def ellipticity_check(tensor):
    """Validate a tensor field: every cell finite, symmetric and positive definite.

    A constant tensor is checked on its one stored cell.  The smallest
    eigenvalue of a cell whose off-diagonal entries are all zero is read
    off its diagonal; only the others go through ``eigvalsh``.  Raises
    EllipticityError, naming the smallest eigenvalue over the cells when
    it is not positive.
    """
    e = tensor.cells
    if not np.isfinite(e).all():
        raise EllipticityError("tensor has a non-finite entry")
    scale = float(np.max(np.abs(e))) or 1.0
    i, j = _upper_pairs(e.shape[1])
    upper, lower = e[:, i, j], e[:, j, i]
    if float(np.abs(upper - lower).max(initial=0.0)) > 1e-12 * scale:
        raise EllipticityError("tensor has a non-symmetric cell")
    lo = np.diagonal(e, axis1=1, axis2=2).T.copy().min(axis=0)  # a fast contiguous reduction
    full = (lower != 0.0).any(axis=1)  # eigvalsh reads the lower triangle
    if full.any():
        lo[full] = np.linalg.eigvalsh(e[full])[:, 0]
    mu1 = float(lo.min())
    if mu1 <= 0.0:
        raise EllipticityError(f"tensor is not uniformly elliptic (min eigenvalue {mu1:g})")


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


@cache
def _stencil_pairs(dim):
    """The stencil deltas and the corner pairs that are summed into them, built once per dim.

    Returns (deltas, corners, pairs): the deltas {-1, 0, 1}^dim as a
    (3^dim, dim) array and the cell corners {0, 1}^dim, both in C order,
    and one (a, b, s) triple per pair of corners whose delta
    corners[b] - corners[a] = deltas[s] has a nonnegative flat offset.
    That offset has the sign of the delta's first nonzero entry (each
    axis stride exceeds the sum of the faster ones), so these are the
    pairs with s >= 3^dim // 2; the other deltas are their mirrors.
    """
    deltas = np.array(list(product((-1, 0, 1), repeat=dim)))
    deltas.flags.writeable = False
    corners = tuple(product((0, 1), repeat=dim))
    pairs = []
    for b, beta in enumerate(corners):
        for a, alpha in enumerate(corners):
            s = int(np.ravel_multi_index(np.subtract(beta, alpha) + 1, (3,) * dim))
            if s >= len(deltas) // 2:
                pairs.append((a, b, s))
    return deltas, corners, tuple(pairs)


def assemble_stiffness(tensor):
    """Assemble the stiffness matrix for int grad(u)^T M grad(v) dx on the tensor's grid.

    The tensor goes through ``ellipticity_check`` first.  Returns the
    3^dim-point stencil as a ``scipy.sparse.dia_matrix`` (see the
    module docstring): exactly symmetric, with zeros stored for the
    out-of-grid entries.  A constant tensor is contracted as one cell,
    whose element matrix every slice-add broadcasts over the cells of
    its class grid, min(n, 3) nodes per axis; the class-grid stencil is
    then widened to the grid's, which is written once.
    """
    ellipticity_check(tensor)
    grid = tensor.grid
    dim, nodes = grid.dim, grid.nodes_per_axis
    G, w = _reference_gradients(dim)
    Gp = G / np.asarray(grid.h)  # physical gradients
    # Ke[a, b, c] = |cell| sum_km T[k, m, a, b] M_c[k, m], one matmul over the cells,
    # with T[k, m, a, b] = sum_g w_g Gp[g, a, k] Gp[g, b, m] summed by BLAS over g; in
    # this order the entries that vanish on constant diagonal tensors come out exactly
    # zero.  The cells are the fast axis, so each Ke[a, b] below is a contiguous read;
    # a constant tensor gives one cell, of shape (1,) * dim, which broadcasts.
    T = np.tensordot(w[:, None, None] * Gp, Gp, axes=(0, 0)).transpose(1, 3, 0, 2)
    n_corners = 2**dim
    Ke = T.reshape(dim * dim, n_corners**2).T @ tensor.cells.reshape(-1, dim * dim).T
    cells_shape = (1,) * dim if tensor.constant else tuple(n - 1 for n in nodes)
    Ke = grid.cell_volume * Ke.reshape((n_corners, n_corners) + cells_shape)

    strides = np.cumprod((1,) + nodes[:0:-1])[::-1]
    deltas, corners, pairs = _stencil_pairs(dim)
    # deltas that differ across an axis of 2 nodes can share a flat offset; no node
    # pair has two deltas, so they share one stencil row without overlapping
    offsets, row = np.unique(deltas @ strides, return_inverse=True)
    # a constant tensor is summed on its class grid, in the grid's rows: the class
    # grid's strides could merge deltas that the grid's keep apart
    shape = tuple(min(n, 3) for n in nodes) if tensor.constant else nodes
    cols = [tuple(slice(c, c + n - 1) for c, n in zip(beta, shape)) for beta in corners]
    # DIA layout, indexed by the column node j: stencil[r, j] = K[j - offsets[r], j];
    # zeroed by a write pass, so the adds and copies below land on resident pages
    stencil = np.full((len(offsets),) + shape, 0.0)
    for a, b, s in pairs:
        stencil[(row[s],) + cols[b]] += Ke[a, b]
    for s in range(len(deltas) // 2):
        # K[j - delta, j] = K[j, j - delta], stored under the mirror delta -delta
        dst = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(deltas[s], shape))
        src = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(deltas[s], shape))
        stencil[(row[s],) + dst] = stencil[(row[-1 - s],) + src]
    if tensor.constant:
        # widen the inner node of each axis longer than 3 to its n - 2 nodes, the
        # longest axis last, so no temporary exceeds 3/max(nodes) of the stencil
        for k in sorted(range(dim), key=nodes.__getitem__):
            if nodes[k] > 3:
                stencil = np.repeat(stencil, [1, nodes[k] - 2, 1], axis=k + 1)
    n = grid.n_nodes
    return sp.dia_matrix((stencil.reshape(len(offsets), n), offsets), shape=(n, n))


@dataclass
class SystemOperators:
    """Assembled operators for one conductivity configuration.

    K_i is the intracellular stiffness of the tensor mi, K_e the
    extracellular one of me and K_ie = K_i + K_e (me, K_e and K_ie are
    None for monodomain-only use), all DIA stencils; the tensors give
    the spectral eigenvalues and decide which inverses are exact.  mass
    is the lumped diagonal, and lam the extra/intra conductivity ratio
    used by the monodomain reduction.  The eigenvalues, ``norm_K_i``
    and the ``(apply, precond)`` pair of each system are properties
    built on first read, the step systems with the time step of
    ``grid``.  The dual norms need no operator: ``grid`` reads them off
    the DCT-I coefficients.
    """

    grid: Grid
    mass: np.ndarray
    K_i: sp.dia_matrix
    lam: float
    mi: TensorField
    K_e: sp.dia_matrix | None = None
    K_ie: sp.dia_matrix | None = None
    me: TensorField | None = None

    @cached_property
    def spectrum_i(self):
        """DCT-I eigenvalues of the stiffness of mi's cell-mean diagonal tensor."""
        return self.grid.spectral.stiffness_eigenvalues(self.mi.mean_diagonal)

    @cached_property
    def norm_K_i(self):
        """||K_i||_1, the largest absolute column sum of the stencil."""
        return float(np.abs(self.K_i.data).sum(axis=0).max())

    @cached_property
    def spectrum_ie(self):
        """DCT-I eigenvalues of the stiffness of (mi + me)'s cell-mean diagonal tensor."""
        if self.me is None:
            raise ValueError("operators were built without an extracellular tensor")
        return self.grid.spectral.stiffness_eigenvalues(
            self.mi.mean_diagonal + self.me.mean_diagonal
        )

    @cached_property
    def step_system(self):
        """Monodomain step operator Mass + coef K_i and its spectral inverse.

        coef = dt lam/(1+lam), with dt the step of ``grid``, and
        ``apply(x) = mass * x + coef * (K_i @ x)``, per row of a (k, N)
        block.  The inverse is marked exact when ``mi`` is constant and
        diagonal; ``cg_solve`` then solves directly.
        """
        K_i, mass = self.K_i, self.mass
        coef = self.grid.dt * self.lam / (1.0 + self.lam)

        def apply(x):
            return mass * x + coef * row_product(K_i, x)

        precond = self.grid.spectral.inverse(
            1.0 + coef * self.spectrum_i, exact=self.mi.constant_diagonal
        )
        return apply, precond

    @cached_property
    def neumann_system(self):
        """Pure-Neumann operator K_ie and its spectral pseudo-inverse.

        The pseudo-inverse maps the weights (hence the constant mode) to
        zero and is positive definite on the zero-sum vectors, the range
        of K_ie.  It is marked exact when ``mi`` and ``me`` are both
        constant and diagonal; ``cg_solve`` then solves directly.
        """
        exact = self.mi.constant_diagonal and self.me.constant_diagonal
        precond = self.grid.spectral.inverse(self.spectrum_ie, exact=exact)
        return partial(row_product, self.K_ie), precond

    @cached_property
    def coupled_system(self):
        """Coupled bidomain step operator and its block inverse.

        ``apply`` maps stacked vectors [phi, psi] of length 2 N, or each
        row of a (k, 2 N) block, through the block matrix of the
        module docstring, with dt the step of ``grid``, at the cost of
        two stencil products, K_i (phi + psi) and K_e psi.  The inverse
        inverts, mode by mode, the DCT-I blocks [[1 + dt lam_i, dt lam_i],
        [dt lam_i, dt lam_ie]] of the reference tensors, with the
        pseudo-inverse [[1, 0], [0, 0]] on the constant mode (lam_ie = 0);
        it is marked exact under the rule of ``neumann_system``.
        """
        K_i, K_e, mass, n = self.K_i, self.K_e, self.mass, self.grid.n_nodes
        dt = self.grid.dt

        def apply(x):
            phi, psi = x[..., :n], x[..., n:]
            k_sum = row_product(K_i, phi + psi)
            k_e = row_product(K_e, psi)
            return np.concatenate((mass * phi + dt * k_sum, dt * (k_sum + k_e)), axis=-1)

        lam_i, lam_ie = self.spectrum_i, self.spectrum_ie
        exact = self.mi.constant_diagonal and self.me.constant_diagonal
        precond = self.grid.spectral.block_inverse(
            1.0 + dt * lam_i, dt * lam_i, dt * lam_ie, exact=exact
        )
        return apply, precond


def build_operators(grid, mi, me=None, lam=1.0):
    """Assemble SystemOperators from intra (and optional extra) tensors.

    Each tensor is checked and assembled once; K_ie is the sum of the
    two stiffness matrices, which is the stiffness of mi + me, formed as
    one add of their stencils, which share their offsets.  The lumped
    mass is a copy of the quadrature weights.  The conductivity ratio
    ``lam`` must be positive, and each tensor must live on ``grid``
    (ValueError).
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, not {lam}")
    for name, tensor in (("mi", mi), ("me", me)):
        if tensor is not None and tensor.grid is not grid and tensor.grid != grid:
            raise ValueError(f"{name} lives on a different grid")
    K_i = assemble_stiffness(mi)
    K_e = K_ie = None
    if me is not None:
        K_e = assemble_stiffness(me)
        K_ie = sp.dia_matrix((K_i.data + K_e.data, K_i.offsets), shape=K_i.shape)
    return SystemOperators(
        grid=grid,
        mass=grid.weights.copy(),
        K_i=K_i,
        lam=float(lam),
        mi=mi,
        K_e=K_e,
        K_ie=K_ie,
        me=me,
    )


def _neumann_load(load, scale):
    """A pure-Neumann load with its roundoff-level Euclidean mean removed.

    ``load`` is one load vector or an (m, n) block of them as rows, and
    ``scale`` the norm of the terms that cancelled in each (a number,
    or an (m, 1) column for a block).  Raises CompatibilityError when a
    load's total exceeds 1e-8 times its norm plus its ``scale``.
    """
    total = load.sum(axis=-1, keepdims=True)
    bound = np.sqrt((load * load).sum(axis=-1, keepdims=True))
    bound += scale
    excess = np.abs(total) - 1e-8 * bound
    if (excess > 0.0).any():
        j = np.argmax(excess)
        where = f"row {j} of the " if load.ndim == 2 else ""
        raise CompatibilityError(
            f"{where}elliptic load integrates to {total.flat[j]:.3e} "
            f"(norm plus cancelled terms {bound.flat[j]:.3e}); enforce compatibility first"
        )
    return load - total / load.shape[-1]


def solve_neumann(ops, load, *, tol, scale=0.0):
    """Solve the pure-Neumann system K_ie x = load, weighted zero-mean gauge.

    ``load`` is an assembled load vector, or an (m, n) block of them
    solved row by row; a zero load gives zero.  The load must sum to
    zero to within 1e-8 of its norm plus ``scale``, the norm of the
    terms that cancelled where it was formed (a number, or an (m, 1)
    column of them for a block; ``_neumann_load``).  That puts it in
    the range of K_ie, and CG with the spectral pseudo-inverse of
    ``ops.neumann_system``, positive definite on that range, needs no
    deflation.  The returned field is PCG's result as it is, and it
    integrates to zero: every iterate lies in the pseudo-inverse's range
    (module docstring).
    """
    apply, precond = ops.neumann_system
    return cg_solve(apply, _neumann_load(load, scale), tol=tol, precond=precond)


def solve_neumann_frames(ops, frames, *, tol, scale=0.0):
    """Solve K_ie x = load for every frame of a series, in place, in blocks of frames.

    ``frames`` is a C-contiguous (*batch, n_frames, N) array that holds
    the assembled loads, each summing to zero, on entry and their
    solutions on return; ``scale`` is the norm of the terms that
    cancelled in each load, a number or an array that broadcasts to
    ``frames[..., :1]`` (``solve_neumann``).  Its rows go through
    ``solve_neumann`` in blocks of at most ``FRAME_BLOCK_VALUES`` values
    (``grid.frame_blocks``), so the temporaries of a solve stay a
    fraction of one series however long it is.
    """
    if not frames.flags.c_contiguous:
        raise ValueError("solve_neumann_frames solves in place and needs a C-contiguous array")
    rows = frames.reshape(-1, frames.shape[-1])
    scales = np.broadcast_to(scale, frames.shape[:-1] + (1,)).reshape(-1, 1)
    for s in frame_blocks(len(rows), rows.shape[1], FRAME_BLOCK_VALUES):
        rows[s] = solve_neumann(ops, rows[s], tol=tol, scale=scales[s])


def bidomain_elliptic_solve(ops, load, *, tol, scale=0.0):
    """Solve K_ie phi_e = load with zero-flux boundaries and zero-mean gauge.

    ``load`` is an assembled load vector or an (m, n) block of loads as
    rows, and ``scale`` the norm of the terms that cancelled in each.
    See ``solve_neumann``.
    """
    return solve_neumann(ops, load, tol=tol, scale=scale)


def reduced_rhs_S(ops, I_i, I_e, *, tol=1e-11):
    """Forcing load of the reduced (Schur) transmembrane system.

    Lifts the total current I_i + I_e (nodal arrays) through the
    extracellular solve (psi_e, zero-mean) and returns the load vector
    Mass I_i - K_i psi_e.  With M_e = lam M_i this equals Mass (lam I_i - I_e)/(1+lam), the
    monodomain forcing.  The coupled step does not need it: its second
    block row carries the lift.
    """
    psibar = bidomain_elliptic_solve(ops, ops.mass * (I_i + I_e), tol=tol)
    return ops.mass * I_i - ops.K_i @ psibar


def reduced_operator(ops):
    """``ops.coupled_system``, named after the block's Schur complement Mass + dt A_h.

    ``solve_coupled_step`` reads the pair through it on every call, so
    ``perfbench/tracing.py``, which looks it up and times the returned
    ``apply`` as ``assembly.reduced_apply``, sees every application.
    """
    return ops.coupled_system


def solve_coupled_step(ops, f, g, *, tol, scale=0.0):
    """Solve the coupled step system ``ops.coupled_system`` (read through ``reduced_operator``).

    ``g`` is the load of the psi row, which must sum to zero to within
    1e-8 of its norm plus ``scale``, the norm of the terms that
    cancelled in it, as in ``solve_neumann``.  ``f`` and ``g`` may be
    (m, N) blocks of loads as rows, solved together, with ``scale`` an
    (m, 1) column.  An exact block inverse solves the step directly
    (``cg_solve``); otherwise the block PCG starts cold.  Returns
    (phi, psi), the two halves of the solver's result (views of one
    array), with psi in the weighted zero-mean gauge: the block inverse
    maps the constant mode of psi to zero (module docstring).
    """
    apply, precond = reduced_operator(ops)
    n = f.shape[-1]
    load = np.concatenate((f, _neumann_load(g, scale)), axis=-1)
    x = cg_solve(apply, load, tol=tol, precond=precond)
    return x[..., :n], x[..., n:]
