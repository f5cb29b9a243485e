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
    responsible for Hermiticity of the input.  A NaN or inf entry raises
    :class:`NumericalFailure` before any rotation.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalFailure("matrix has a non-finite entry")
    n = a.shape[0]
    # The matrix a over its eigenvector accumulator v, so one column update
    # rotates both; v starts as the identity, written through the float
    # view.  Every view is built once: the stacked columns, the rows of a,
    # and the real and imaginary parts of a's diagonal.
    buf = np.zeros((2 * n, n), dtype=np.complex128)
    buf[:n] = a
    a = buf[:n]
    v = buf[n:]
    cols = list(buf.T)
    rows = list(a)
    flat = buf.view(np.float64).reshape(-1)
    flat[2 * n * n :: 2 * (n + 1)] = 1.0
    diag_re = flat[0 : 2 * n * n : 2 * (n + 1)]
    diag_im = flat[1 : 2 * n * n : 2 * (n + 1)]
    # Each sweep's convergence test writes |a| into mags and clears its
    # diagonal through a strided view: for a finite matrix its largest
    # entry is max|a - diag(diag(a))|, without the temporaries.
    mags = np.empty((n, n))
    mags_diag = mags.reshape(-1)[:: n + 1]
    # A rotation's coefficients live in 0-d complex arrays and its products
    # in scratch vectors, all allocated once per call: a ufunc given a
    # Python scalar converts it to an array, and an operator allocates its
    # result, on every call.  A 0-d complex128 operand takes the same loop
    # as the Python scalar it replaces, so the bits do not move.
    k_c = np.zeros((), dtype=np.complex128)
    k_col_q = np.zeros((), dtype=np.complex128)
    k_col_p = np.zeros((), dtype=np.complex128)
    k_row_q = np.zeros((), dtype=np.complex128)
    k_row_p = np.zeros((), dtype=np.complex128)
    col_t = np.empty(2 * n, dtype=np.complex128)
    col_u = np.empty(2 * n, dtype=np.complex128)
    row_t = np.empty(n, dtype=np.complex128)
    row_u = np.empty(n, dtype=np.complex128)
    multiply = np.multiply
    add = np.add
    for _ in range(MAX_SWEEPS):
        np.abs(a, out=mags)
        mags_diag.fill(0.0)
        if mags.max() < OFF_TOL:
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
                    # out of place; col_t and row_t hold old p's share of
                    # the new q.  Each coefficient is its own expression:
                    # s * phase is not -(-s * phase) when phase is real, as
                    # the imaginary zeros carry opposite signs.
                    k_c[()] = c
                    k_col_q[()] = s / phase
                    k_col_p[()] = -s * phase
                    k_row_q[()] = s * phase
                    k_row_p[()] = -s / phase
                    col_p = cols[p]
                    col_q = cols[q]
                    multiply(col_p, k_col_p, col_t)
                    multiply(col_p, k_c, col_p)
                    multiply(col_q, k_col_q, col_u)
                    add(col_p, col_u, col_p)
                    multiply(col_q, k_c, col_q)
                    add(col_q, col_t, col_q)
                    row_q = rows[q]
                    multiply(row_p, k_row_p, row_t)
                    multiply(row_p, k_c, row_p)
                    multiply(row_q, k_row_q, row_u)
                    add(row_p, row_u, row_p)
                    multiply(row_q, k_c, row_q)
                    add(row_q, row_t, row_q)
                    # Exact by construction; drop the roundoff residue.
                    row_p[q] = 0.0
                    row_q[p] = 0.0
                    diag_im[p] = 0.0
                    diag_im[q] = 0.0
    raise NumericalFailure(
        f"Jacobi diagonalization did not converge within {MAX_SWEEPS} sweeps"
    )
