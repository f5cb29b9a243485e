import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hardywitness.errors import DimensionMismatch
from hardywitness.jacobi import MAX_SWEEPS, OFF_TOL, hermitian_eigensystem

from conftest import random_unitary


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def random_gram(rng, n, rank):
    m = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m /= np.linalg.norm(m)
    return m @ m.conj().T


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_matches_numpy_eigvalsh(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = random_hermitian(rng, n)
        vals, vecs = hermitian_eigensystem(a)
        assert_allclose(np.sort(vals), np.linalg.eigvalsh(a), atol=1e-10)


def test_eigenvector_residuals_and_unitarity():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 7)
    vals, vecs = hermitian_eigensystem(a)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(7))) < 1e-13
    for k in range(7):
        assert np.max(np.abs(a @ vecs[:, k] - vals[k] * vecs[:, k])) < 1e-12


def test_already_diagonal():
    vals, vecs = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(vals, [3.0, 1.0, 2.0])
    assert_allclose(vecs, np.eye(3))


def test_degenerate_spectrum():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 4)
    a = u @ np.diag([1.0, 1.0, 0.5, 0.0]) @ u.conj().T
    vals, vecs = hermitian_eigensystem(a)
    assert_allclose(np.sort(vals), [0.0, 0.5, 1.0, 1.0], atol=1e-12)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-13


def test_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        hermitian_eigensystem(np.zeros((2, 3)))


def test_gram_matrix_scale():
    # the intended workload: Gram matrices of unit-norm states
    g = random_gram(np.random.default_rng(17), 5, 3)
    vals, vecs = hermitian_eigensystem(g)
    assert abs(sum(vals) - 1.0) < 1e-12
    assert np.min(vals) > -1e-13


def _reference_rotate(a, v, p, q):
    """One rotation with the rotated columns and rows formed out of place."""
    g = a[p, q]
    mag = abs(g)
    phase = cmath.exp(1j * cmath.phase(g))
    theta = 0.5 * math.atan2(2.0 * mag, a[p, p].real - a[q, q].real)
    c = math.cos(theta)
    s = math.sin(theta)
    col_p = a[:, p] * c + a[:, q] * (s / phase)
    col_q = a[:, p] * (-s * phase) + a[:, q] * c
    a[:, p] = col_p
    a[:, q] = col_q
    row_p = a[p, :] * c + a[q, :] * (s * phase)
    row_q = a[p, :] * (-s / phase) + a[q, :] * c
    a[p, :] = row_p
    a[q, :] = row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    vp = v[:, p] * c + v[:, q] * (s / phase)
    vq = v[:, p] * (-s * phase) + v[:, q] * c
    v[:, p] = vp
    v[:, q] = vq


def reference_eigensystem(matrix):
    """Separate matrix and accumulator, one rotation at a time (the oracle)."""
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    for _ in range(MAX_SWEEPS):
        if np.max(np.abs(a - np.diag(np.diag(a)))) < OFF_TOL:
            return np.real(np.diag(a)).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) >= OFF_TOL:
                    _reference_rotate(a, v, p, q)
    raise AssertionError("reference did not converge")


def _oracle_cases():
    rng = np.random.default_rng(31)
    cases = [
        pytest.param(random_gram(rng, n, n), id=f"full-{n}")
        for n in (2, 3, 4, 8, 9, 16, 32, 64)
    ]
    # peel-shaped: peeling a qubit diagonalizes the rest's Gram, rank <= 2
    cases += [
        pytest.param(random_gram(rng, d, rank), id=f"peel-{d}-rank{rank}")
        for d in (4, 8, 16)
        for rank in (1, 2)
    ]
    u = random_unitary(rng, 4)
    cases += [
        pytest.param(np.diag([3.0, 1.0, 2.0]), id="diagonal"),
        pytest.param(u @ np.diag([1.0, 1.0, 0.5, 0.0]) @ u.conj().T, id="degenerate"),
        pytest.param(np.eye(3) / 3, id="equal"),
    ]
    return cases


@pytest.mark.parametrize("matrix", _oracle_cases())
def test_bit_identical_to_out_of_place_rotations(matrix):
    # The CLI goldens pin roundoff digits only up to d = 9, while Schmidt
    # splits reach d = 64, so compare the bits with the oracle directly.
    vals, vecs = hermitian_eigensystem(matrix)
    ref_vals, ref_vecs = reference_eigensystem(matrix)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs.view(np.float64), ref_vecs.view(np.float64))
