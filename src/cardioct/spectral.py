"""DCT-I spectral preconditioners for the structured-grid operators.

On a uniform tensor grid with trapezoid-lumped mass W, the separable
cosines v_k(j) = prod_a cos(k_a j_a pi / (n_a - 1)) are W-orthogonal and
are generalized eigenvectors of the 1-D element operators.  Along one
axis, with theta = k pi / (n - 1),

    stiffness:        K1 v = lam_K W1 v,   lam_K = (2 - 2 cos theta) / h^2
    consistent mass:  M1 v = lam_M W1 v,   lam_M = (2 + cos theta) / 3

and the bilinear/trilinear stiffness of a constant diagonal tensor
diag(c) is sum_a c_a K1_a (x) prod_{b != a} M1_b, so its eigenvalue is
sum_a c_a lam_K_a prod_{b != a} lam_M_b.  Every operator the package
solves with (lumped mass plus stiffness, the pure-Neumann stiffness)
is then diagonal in this basis, and ``SpectralBasis.inverse`` applies
its exact (pseudo-)inverse with two cosine transforms.  The coupled
bidomain step system is block diagonal in it, one 2x2 block per mode,
and ``SpectralBasis.block_inverse`` inverts those blocks between two
batched transforms of the stacked pair.  For variable tensors, such as
rotating fibres, the inverse built from the cell-mean diagonal
(``TensorField.mean_diagonal``) is spectrally equivalent to the
operator, so preconditioned CG needs a number of iterations that does
not grow under refinement.  Those means are the coefficients c_a of
the constant diagonal tensor with the same energy on each linear
function x_a: x_a^T K x_a = |Omega| c_a.

The norms of ``grid`` are diagonal in the same basis.  The H1
seminorm quadrature differences along axis a and averages the two
nodes of each cell edge along every other axis: with D the forward
difference and A the two-point average of one axis, it is
|cell| sum_a (D_a^T D_a / h_a^2) (x) prod_{b != a} A_b^T A_b.  In 1-D
D^T D v = h lam_K W1 v and A^T A = W1 / h - D^T D / 4, so

    h A^T A v = lam_A W1 v,   lam_A = 1 - h^2 lam_K / 4 = (1 + cos theta) / 2

and the seminorm has the eigenvalues mu = sum_a lam_K_a prod_{b != a}
lam_A_b: the stiffness formula with the midpoint factor lam_A in place
of lam_M.  With the coefficients c = V^T W x and N = diag(V^T W V),
||x||_H1^2 = sum c^2 (1 + mu) / N, and the squared dual norm through
the Riesz operator K(identity) + M, whose eigenvalues are 1 + lam with
lam the identity-tensor stiffness eigenvalues, is
sum c^2 / (N (1 + lam)).  The norms of a series go over blocks of
consecutive frames of at most ``grid.NORM_BLOCK_VALUES`` values (one
frame at 25^3 and 129^2), one batched transform per block, so the
temporaries of a transform stay in cache and are reused rather than
faulted in afresh.  For the H1 norm alone that is not always cheaper
than the direct differences, which cost O(1) flops per node against
the transform's O(n_a) per node and axis.  One BLAS thread, 2-core x86
host, H1 Bochner norm of 7 random frames, blocked transforms against
frame-by-frame differences (medians of 25 alternating rounds, two
runs): 0.19 against 0.46-0.50 ms at 65^2, 0.55-0.81 against 1.8-2.9 ms
at 25^3, 1.6-2.0 against 1.25 ms at 129^2 and 10.1-10.6 against 5.2 ms
at 257^2.  One transform of all 7 frames took 1.3-1.9, 2.6-3.0 and
14 ms at the last three sizes, with 380-1,700 page faults per call.  A
norm report shares each block's transform between its H1 and dual
norms, so the comparison does not arise there.

The basis is separable, V = Cos_0 (x) ... (x) Cos_{d-1} with the
symmetric per-axis matrices Cos_a[j, k] = cos(pi j k / (n_a - 1)), so a
transform is one dense matrix product per axis.  That costs O(n_a)
flops per node and axis against an FFT's O(log n_a), but runs in BLAS
with no reordering.  Single-threaded on a 2-core x86 host the products
beat ``numpy.fft.rfft`` of the even extension at every size measured:
7.8x at 17^2, 4.9x at 65^2, 1.8x at 129^2, 1.2x at 513^2, and 4.5-12x
from 17^3 to 65^3.  The margin shrinks as n_a grows, so an FFT path
would pay off only beyond about 500 nodes per axis.  The trapezoid
weights are separable too, W = W_0 (x) ... (x) W_{d-1}, so the
coefficients V^T W x of the norms are one transform with the per-axis
matrices Cos_a W_a, built once: the weighted cosines read the series
once, with no weighted copy of it.
"""

from __future__ import annotations

from functools import reduce

import numpy as np


class SpectralBasis:
    """The DCT-I eigenbasis of a grid's lumped-mass operators.

    ``lam_K``, ``lam_M`` and ``lam_A`` hold, per axis, the 1-D
    stiffness, consistent-mass and edge-midpoint-average eigenvalues
    relative to the trapezoid weights.  ``transform`` multiplies by the
    cosine matrices Cos_a, ``coefficients`` by the weighted cosines
    Cos_a W_a.
    """

    def __init__(self, nodes_per_axis, h):
        self.shape = tuple(int(n) for n in nodes_per_axis)
        self.size = int(np.prod(self.shape))
        self.lam_K, self.lam_M, self.lam_A, halves = [], [], [], []
        self._cos, self._cos_w = [], []
        for n, step in zip(self.shape, h):
            cos = np.cos(np.pi * np.arange(n) / (n - 1))
            self.lam_K.append((2.0 - 2.0 * cos) / step**2)
            self.lam_M.append((2.0 + cos) / 3.0)
            self.lam_A.append((1.0 + cos) / 2.0)
            # j k mod 2(n - 1) gives the same cosines from arguments below 2 pi
            jk = np.outer(np.arange(n), np.arange(n)) % (2 * (n - 1))
            table = np.cos(np.pi * jk / (n - 1))
            self._cos.append(table)
            weights = np.full(n, step)
            weights[0] = weights[-1] = 0.5 * step
            self._cos_w.append(table * weights)  # Cos_a W_a
            half = np.full(n, 0.5)
            half[0] = half[-1] = 1.0
            halves.append(half)
        # the last axis is multiplied from the right, by the transpose
        self._cos_w[-1] = np.ascontiguousarray(self._cos_w[-1].T)
        # V^T W V is diagonal with entries measure * half.
        measure = float(np.prod([(n - 1) * s for n, s in zip(self.shape, h)]))
        self._norms = measure * reduce(np.multiply.outer, halves)

    def _separable(self, coeffs, transverse):
        """sum_a coeffs_a lam_K_a prod_{b != a} transverse_b on the mode grid."""
        dim = len(self.shape)
        total = np.zeros(self.shape)
        for a, c in enumerate(coeffs):
            factors = [self.lam_K[b] if b == a else transverse[b] for b in range(dim)]
            total += float(c) * reduce(np.multiply.outer, factors)
        return total

    def stiffness_eigenvalues(self, coeffs):
        """Eigenvalues of the stiffness of the constant tensor diag(coeffs)."""
        return self._separable(coeffs, self.lam_M)

    def gradient_eigenvalues(self):
        """Eigenvalues of the cell-difference H1 seminorm quadrature."""
        return self._separable((1.0,) * len(self.shape), self.lam_A)

    def transform(self, x):
        """V x: the cosine synthesis sum_k cos(...) x_k along every axis.

        ``x`` holds one field or a batch of fields in its trailing
        axes (either the grid shape or one flat node axis); the result
        has the shape of ``x``.  V is symmetric, so this is also V^T x.
        """
        return self._product(x, self._cos)

    def coefficients(self, x):
        """V^T W x, the coefficients of the norms, with no weighted copy of ``x``.

        The trapezoid weights W = W_0 (x) ... (x) W_{d-1} are separable,
        so V^T W = (Cos_0 W_0) (x) ... (x) (Cos_{d-1} W_{d-1}): one
        transform with the weights folded into its per-axis matrices.
        ``x`` is shaped as for ``transform``.
        """
        return self._product(x, self._cos_w)

    def _product(self, x, mats):
        """(M_0 (x) ... (x) M_{d-1}) x over the trailing axes of ``x``.

        ``mats`` holds M_0 ... M_{d-2} and M_{d-1}^T.  Leading axes
        multiply M_a from the left on the (pre, n_a, post) view, the
        last axis from the right on the (rest, n_a) view, so every
        product is a contiguous matmul; in 2-D this is M_0 @ X @ M_1^T.
        """
        y = x
        pre, post = x.size // self.size, self.size
        for n, mat in zip(self.shape[:-1], mats[:-1]):
            post //= n
            y = mat @ y.reshape(pre, n, post)
            pre *= n
        return (y.reshape(-1, self.shape[-1]) @ mats[-1]).reshape(x.shape)

    def inverse(self, eigenvalues, *, exact=False):
        """Apply V diag(1/eigenvalues) (V^T W V)^{-1} V^T to a flat vector.

        The returned ``apply`` maps a vector of length ``size``, or each
        row of a (..., size) block, to the same shape.

        This is the inverse of the operator W V diag(eigenvalues) V^{-1};
        modes with a zero eigenvalue get the inverse 0, which for the
        pure-Neumann stiffness gives the pseudo-inverse whose result is
        W-orthogonal to constants (zero weighted mean).  The map is
        symmetric and positive semidefinite.

        ``exact`` states that the eigenvalues are those of the operator
        the map will precondition, so that it is that operator's exact
        (pseudo-)inverse; the returned callable carries it as
        ``apply.exact``, and the ratio of the largest to the smallest
        positive eigenvalue as ``apply.condition``.  ``linalg.cg_solve``
        solves with an exact map directly, x = apply(b), after its first
        solve has stored the map's residual (``apply.residual``).
        """
        eig = np.asarray(eigenvalues, dtype=float)
        positive = eig > 0.0
        condition = eig.max() / eig[positive].min()
        scale = np.zeros(self.shape)
        scale[positive] = 1.0 / (self._norms[positive] * eig[positive])
        shape = self.shape

        def apply(r):
            z = self.transform(scale * self.transform(r.reshape(r.shape[:-1] + shape)))
            return z.reshape(r.shape)

        apply.exact, apply.condition = exact, float(condition)
        return apply

    def block_inverse(self, a, b, c, *, exact=False):
        """Inverse of the 2x2 block operator with eigenvalue blocks [[a, b], [b, c]].

        ``a``, ``b`` and ``c`` hold one value per mode.  The operator maps
        stacked pairs [x; y] as ``inverse`` describes for one field, with
        the symmetric 2x2 matrix [[a, b], [b, c]] in place of each mode's
        eigenvalue; ``apply`` takes and returns a flat vector of length
        2 * size, or a (..., 2 * size) block of such rows, and
        transforms all the pairs in one batch each way.  Every
        mode's matrix must be positive definite or have b = c = 0; those
        modes get the pseudo-inverse [[1/a, 0], [0, 0]], so the y-part of
        the result is W-orthogonal to constants when c vanishes on the
        constant mode only.  The map is symmetric and positive
        semidefinite.  ``exact`` and ``condition`` are carried as in
        ``inverse``, from the eigenvalues of the 2x2 matrices (a alone
        on the singular modes).
        """
        a, b, c = (np.asarray(e, dtype=float) for e in (a, b, c))
        singular = c <= 0.0
        largest = (a + c) / 2.0 + np.hypot((a - c) / 2.0, b)
        smallest = np.where(singular, a, (a * c - b * b) / largest)
        det = np.where(singular, 1.0, a * c - b * b) * self._norms
        inv = np.stack([np.stack([c, -b]), np.stack([-b, a])]) / det
        inv[:, :, singular] = 0.0
        inv[0, 0, singular] = 1.0 / (a * self._norms)[singular]
        shape, pair_axis = (1, 2) + self.shape, -1 - len(self.shape)

        def apply(r):
            coef = self.transform(r.reshape(r.shape[:-1] + shape))
            z = self.transform((inv * coef).sum(axis=pair_axis))
            return z.reshape(r.shape)

        apply.exact, apply.condition = exact, float(largest.max() / smallest.min())
        return apply

