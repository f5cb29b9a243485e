"""Cyclic Jacobi diagonalization for complex Hermitian matrices.

Each rotation annihilates one off-diagonal pair with a complex Givens
rotation; sweeps repeat until every off-diagonal magnitude drops below
:data:`OFF_TOL`.  Convergence is quadratic, so a handful of sweeps is
enough at the matrix sizes used here (Gram matrices of unit-norm states,
dimension well under 100).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DimensionMismatch, NumericalFailure

# Off-diagonal magnitudes below this count as converged.  The threshold is
# absolute and assumes unit-scale input (trace ~ 1), which holds for the
# Gram matrices this package feeds in.
OFF_TOL = 1e-13
MAX_SWEEPS = 100


def hermitian_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a Hermitian matrix.

    Returns ``(eigenvalues, vectors)`` with eigenvalues in diagonal order
    (unsorted) and eigenvectors as the columns of ``vectors``.  The caller is
    responsible for Hermiticity of the input.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=np.complex128)
    # The matrix a over its eigenvector accumulator v, so one column update
    # rotates both.  Every view is built once: the stacked columns, the rows
    # of a, and the real and imaginary parts of a's diagonal.
    buf = np.concatenate([a, np.eye(n, dtype=np.complex128)])
    a = buf[:n]
    v = buf[n:]
    cols = list(buf.T)
    rows = list(a)
    flat = buf.view(np.float64).reshape(-1)
    diag_re = flat[0 : 2 * n * n : 2 * (n + 1)]
    diag_im = flat[1 : 2 * n * n : 2 * (n + 1)]
    for _ in range(MAX_SWEEPS):
        off = float(np.max(np.abs(a - np.diag(np.diag(a)))))
        if off < OFF_TOL:
            return diag_re.copy(), v.copy()
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                g = row_p[q]
                mag = abs(g)
                if mag >= OFF_TOL:
                    phase = cmath.exp(1j * cmath.phase(g))
                    theta = 0.5 * math.atan2(2.0 * mag, diag_re[p] - diag_re[q])
                    c = math.cos(theta)
                    s = math.sin(theta)
                    # R restricted to (p, q) is [[c, -s*phase], [s/phase, c]].
                    # Each update makes the same float operations, with the
                    # same operand order, as forming the rotated columns
                    # (a <- a R, v <- v R) and then rows (a <- R^dagger a)
                    # out of place; t holds old p's share of the new q.
                    col_p = cols[p]
                    col_q = cols[q]
                    t = col_p * (-s * phase)
                    col_p *= c
                    col_p += col_q * (s / phase)
                    col_q *= c
                    col_q += t
                    row_q = rows[q]
                    t = row_p * (-s / phase)
                    row_p *= c
                    row_p += row_q * (s * phase)
                    row_q *= c
                    row_q += t
                    # Exact by construction; drop the roundoff residue.
                    row_p[q] = 0.0
                    row_q[p] = 0.0
                    diag_im[p] = 0.0
                    diag_im[q] = 0.0
    raise NumericalFailure(
        f"Jacobi diagonalization did not converge within {MAX_SWEEPS} sweeps"
    )
