"""A fixed loop that measures how fast the host runs right now.

On a shared host the speed of a core changes by up to 1.7x for seconds
to minutes at a time, so raw times from two runs are not comparable.
``Calibration.measure`` times a fixed conjugate-gradient-like loop
(CSR products, dot products and vector updates, the operations the
package spends its time in) that uses no cardioct code.  ``run.py``
runs it before and after every group of timed calls and multiplies each
raw time by ``REFERENCE_S`` over the median loop time of the blocks
around it, which gives the time in seconds at a fixed reference speed.

The operator has the sparsity of trilinear elements on a 25^3 grid, so
each product streams about 5 MB.  Of the loops tried (this one, and the
same loop on 17^2 and 65^2 grids), it tracked the host's speed best for
every workload, the small-grid ones included.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# The calibration loop's time at the reference speed.  It sets the unit
# of the rescaled times and is about the loop's time on the 2-core x86
# host the benchmark was written on.
REFERENCE_S = 0.012

SHAPE = (25, 25, 25)
ITERATIONS = 25


def _tensor_operator(shape):
    """SPD operator with the sparsity of the package's bilinear/trilinear elements.

    The Kronecker product of 1-D tridiagonal matrices couples every node
    with its 3**dim neighbours, as the assembled stiffness matrices do.
    """
    op = None
    for n in shape:
        tri = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n))
        op = tri if op is None else sp.kron(op, tri)
    return op.tocsr()


class Calibration:
    """``ITERATIONS`` CG steps on the tensor-product operator of ``SHAPE``."""

    def __init__(self):
        self.A = _tensor_operator(SHAPE)
        self.b = np.random.default_rng(0).standard_normal(self.A.shape[0])

    def _run(self):
        A = self.A
        x = np.zeros_like(self.b)
        r = self.b.copy()
        p = r.copy()
        rr = float(r @ r)
        for _ in range(ITERATIONS):
            Ap = A @ p
            alpha = rr / float(p @ Ap)
            x += alpha * p
            r -= alpha * Ap
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new

    def measure(self, repeats=7):
        """Seconds of each of ``repeats`` back-to-back loops, the first dropped.

        The first loop refills the caches the measured code evicted.
        """
        times = []
        for _ in range(repeats + 1):
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        return times[1:]
