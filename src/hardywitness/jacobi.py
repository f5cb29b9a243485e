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


def _rotate(buf: np.ndarray, p: int, q: int) -> None:
    """Zero a[p, q] (and a[q, p]) in place and accumulate the rotation into v.

    ``buf`` stacks the matrix ``a`` over its eigenvector accumulator ``v``, so
    one column update rotates both.  Each update makes the same float
    operations, with the same operand order, as forming the rotated columns
    and rows out of place.
    """
    g = buf[p, q]
    mag = abs(g)
    phase = cmath.exp(1j * cmath.phase(g))
    theta = 0.5 * math.atan2(2.0 * mag, buf[p, p].real - buf[q, q].real)
    c = math.cos(theta)
    s = math.sin(theta)
    # Rotation R restricted to (p, q): [[c, -s*phase], [s/phase, c]].
    # Columns p and q of a and v at once (a <- a R, v <- v R); t holds the
    # old column p's share of the new column q.
    xp = buf[:, p]
    xq = buf[:, q]
    t = xp * (-s * phase)
    xp *= c
    xp += xq * (s / phase)
    xq *= c
    np.add(t, xq, out=xq)
    # Rows p and q of a (a <- R^dagger a).
    xp = buf[p]
    xq = buf[q]
    t = xp * (-s / phase)
    xp *= c
    xp += xq * (s * phase)
    xq *= c
    np.add(t, xq, out=xq)
    # Exact by construction; drop the roundoff residue.
    buf[p, q] = 0.0
    buf[q, p] = 0.0
    buf[p, p] = buf[p, p].real
    buf[q, q] = buf[q, q].real


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
    # The matrix over its eigenvector accumulator; a and v are views.
    buf = np.concatenate([a, np.eye(n, dtype=np.complex128)])
    a = buf[:n]
    v = buf[n:]
    for _ in range(MAX_SWEEPS):
        off = float(np.max(np.abs(a - np.diag(np.diag(a)))))
        if off < OFF_TOL:
            return np.real(np.diag(a)).copy(), v.copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) >= OFF_TOL:
                    _rotate(buf, p, q)
    raise NumericalFailure(
        f"Jacobi diagonalization did not converge within {MAX_SWEEPS} sweeps"
    )
