import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hardywitness.errors import DimensionMismatch, NumericalFailure
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


def test_convergence_threshold_is_strict():
    at_tol = np.array([[0.6, OFF_TOL], [OFF_TOL, 0.4]])
    vals, vecs = hermitian_eigensystem(at_tol)
    assert vecs[1, 0] != 0.0  # rotated
    below = np.array([[0.6, OFF_TOL / 2], [OFF_TOL / 2, 0.4]])
    vals, vecs = hermitian_eigensystem(below)
    assert vals.tolist() == [0.6, 0.4]
    assert vecs.tobytes() == np.eye(2, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 2)])
def test_non_finite_matrix_refused_at_once(bad, where):
    # a NaN would otherwise run all MAX_SWEEPS sweeps before failing
    a = np.diag([0.5, 0.3, 0.2]).astype(np.complex128)
    a[where] = bad
    with pytest.raises(NumericalFailure, match="non-finite"):
        hermitian_eigensystem(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scalar_refused(bad):
    with pytest.raises(NumericalFailure, match="non-finite"):
        hermitian_eigensystem([[bad]])


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
    # exact zeros, where a rotation can leave -0.0 and +0.0 apart
    for d in (6, 16):
        block = np.zeros((d, d), dtype=np.complex128)
        block[: d // 2, : d // 2] = random_gram(rng, d // 2, d // 2)
        block[d // 2 :, d // 2 :] = random_gram(rng, d // 2, 2)
        cases.append(pytest.param(block / 2, id=f"block-diagonal-{d}"))
    for n in (3, 5):
        # GHZ_n peeled on its last qubit: the 2^(n-1) side's Gram is
        # diag(1/2, 0, ..., 0, 1/2)
        ghz = np.zeros(2**n, dtype=np.complex128)
        ghz[[0, -1]] = 2**-0.5
        m = ghz.reshape(2 ** (n - 1), 2)
        cases.append(pytest.param(m @ m.conj().T, id=f"ghz{n}-peel"))
    for d in (5, 16):
        # a coefficient matrix with zero rows gives a Gram matrix with zero
        # rows and columns
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m[[0, d // 2, d - 1]] = 0.0
        m /= np.linalg.norm(m)
        cases.append(pytest.param(m @ m.conj().T, id=f"zero-rows-{d}"))
    # real Gram matrices: each phase is 1, or -1 up to a 1.2e-16 imaginary
    # part, so the coefficients carry signed-zero imaginary parts
    # (s * phase is 0.3+0j where -(-s * phase) is 0.3-0j)
    for n in (4, 16, 64):
        m = rng.standard_normal((n, n))
        m /= np.linalg.norm(m)
        cases.append(pytest.param(m @ m.T, id=f"real-{n}"))
    # purely imaginary couplings: every phase is +-1j up to a 6e-17 real part
    k = rng.standard_normal((8, 8))
    imaginary = np.diag(rng.uniform(0.0, 0.25, 8)) + 0.05j * (k - k.T)
    cases.append(pytest.param(imaginary, id="imaginary-couplings-8"))
    # a -0.0 eigenvalue on a row no rotation touches comes back as -0.0
    signed = np.array([[0.5, 0.0, 0.25j], [0.0, -0.0, 0.0], [-0.25j, 0.0, 0.5]])
    cases.append(pytest.param(signed, id="signed-zero"))
    # the convergence test is strict: |a01| = OFF_TOL rotates, half of it
    # does not
    for coupling, name in (
        (OFF_TOL, "coupling-at-off-tol"),
        (OFF_TOL / 2, "coupling-half-off-tol"),
    ):
        cases.append(pytest.param(np.array([[0.6, coupling], [coupling, 0.4]]), id=name))
    return cases


@pytest.mark.parametrize("matrix", _oracle_cases())
def test_bit_identical_to_out_of_place_rotations(matrix):
    # The CLI goldens pin roundoff digits only up to d = 9, while Schmidt
    # splits reach d = 64, so compare the bits with the oracle directly.
    # Bytes, not values: array_equal takes -0.0 for +0.0, and machine JSON
    # prints the two differently.
    vals, vecs = hermitian_eigensystem(matrix)
    ref_vals, ref_vecs = reference_eigensystem(matrix)
    assert (vals.dtype, vals.shape) == (ref_vals.dtype, ref_vals.shape)
    assert (vecs.dtype, vecs.shape) == (ref_vecs.dtype, ref_vecs.shape)
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()
