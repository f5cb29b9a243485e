"""Schmidt decomposition of pure states across arbitrary bipartitions.

The weights are the singular values of the reshaped coefficient matrix,
normalized so their squares sum to one.  Vectors follow a deterministic
phase convention so repeated runs (and golden files) are stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .jacobi import hermitian_eigensystem
from .states import Bipartition, StateVector, matrix_to_state, reshape_bipartite

# Singular values at or below this are dropped from the decomposition.
WEIGHT_FLOOR = 1e-12
# Gram eigenvalues at or below this are roundoff of an exact zero.  Working
# from M M^dagger caps the resolvable singular values at the square root of
# this floor; smaller true weights cannot be told apart from noise here.
GRAM_NOISE_FLOOR = 1e-13
# Singular values closer than this are treated as degenerate for ordering.
DEGENERACY_TOL = 1e-12
# Component magnitude that counts as "significant" when stabilizing the
# ordering inside a degenerate group.
SIGNIFICANT_COMPONENT = 1e-8


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Weights with paired orthonormal side vectors for one bipartition.

    ``weights`` are nonincreasing and strictly above :data:`WEIGHT_FLOOR`;
    ``left_vectors``/``right_vectors`` hold the side-1/side-2 vectors as
    columns, in the same order as the weights.
    """

    dims: tuple[int, ...]
    split: Bipartition
    weights: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.weights)


def _first_significant_index(column: np.ndarray) -> int:
    hits = np.flatnonzero(np.abs(column) > SIGNIFICANT_COMPONENT)
    return int(hits[0]) if hits.size else column.size


def _stable_order(
    weights: np.ndarray, vectors: np.ndarray, indices: list[int]
) -> list[int]:
    """``indices`` in nonincreasing weight order; ties broken by first
    significant component."""
    groups: list[list[int]] = []
    for idx in sorted(indices, key=lambda i: -weights[i]):
        if not groups or weights[groups[-1][0]] - weights[idx] > DEGENERACY_TOL:
            groups.append([idx])
        else:
            groups[-1].append(idx)
    result: list[int] = []
    for group in groups:
        # a weight with no degenerate partner needs no tie-break key
        if len(group) > 1:
            group.sort(key=lambda i: _first_significant_index(vectors[:, i]))
        result.extend(group)
    return result


def _spectrum(v: StateVector, split: Bipartition):
    """The coefficient matrix, the Gram eigenvectors and the ordered kept weights.

    Diagonalizes the side-1 Gram matrix M M^dagger with cyclic Jacobi
    rotations and takes the singular values as square roots of its
    eigenvalues.  Returns ``(m, weights, eigvecs, order)``: ``weights`` are
    the kept singular values in stable order, and ``order`` lists their
    columns in ``eigvecs``.
    """
    m = reshape_bipartite(v, split)
    gram = m @ m.conj().T
    eigvals, eigvecs = hermitian_eigensystem(gram)
    weights = np.sqrt(np.maximum(eigvals, 0.0))
    # Both floors are monotone in the eigenvalue, so the kept indices are a
    # prefix of the full stable order and ordering only them is the same.
    kept = ((weights > WEIGHT_FLOOR) & (eigvals > GRAM_NOISE_FLOOR)).nonzero()[0]
    order = _stable_order(weights, eigvecs, kept.tolist())
    if not order:
        raise NumericalFailure("state has no Schmidt weight above the floor")
    return m, weights[order], eigvecs, order


def schmidt_weights(v: StateVector, split: Bipartition) -> np.ndarray:
    """The Schmidt weights of :func:`schmidt_decompose`, bit for bit, without vectors."""
    return _spectrum(v, split)[1]


def _polish(vectors: np.ndarray) -> None:
    """Orthonormalize the columns of ``vectors`` in place by modified Gram-Schmidt.

    Left-looking, one ``np.vdot`` per pair, over column views built once; a
    batched projection onto all earlier columns would change the summation
    order and so the last bits.
    """
    cols = list(vectors.T)
    for i, col in enumerate(cols):
        for done in cols[:i]:
            col -= np.vdot(done, col) * done
        nrm = np.linalg.norm(col)
        if nrm <= WEIGHT_FLOOR:
            raise NumericalFailure("right Schmidt vector collapsed during polish")
        col /= nrm


def schmidt_decompose(v: StateVector, split: Bipartition) -> SchmidtDecomposition:
    """Decompose a normalized state across ``split``.

    Takes the weights and left vectors from :func:`_spectrum` and recovers
    the side-2 vectors from the coefficient matrix.  Within each left vector
    the largest-magnitude component is made real and positive (ties to the
    lowest index); the compensating phase moves to the partner.
    """
    m, w, eigvecs, order = _spectrum(v, split)
    alphas = eigvecs[:, order].copy()
    betas = (m.T @ alphas.conj()) / w
    # Jacobi leaves the left vectors orthonormal to machine precision; the
    # right vectors inherit a residual of the off-diagonal threshold divided
    # by the weights, so polish them.
    _polish(betas)
    for left, right in zip(alphas.T, betas.T):
        k = int(np.argmax(np.abs(left)))
        pivot = left[k]
        if abs(pivot) > 0.0:
            phase = pivot / abs(pivot)
            left /= phase
            right *= phase
    alphas.setflags(write=False)
    betas.setflags(write=False)
    w.setflags(write=False)
    return SchmidtDecomposition(v.dims, split, w, alphas, betas)


def reconstruct(d: SchmidtDecomposition) -> StateVector:
    """Rebuild the state as the weighted sum of vector pairs (no renormalizing)."""
    m = (d.left_vectors * d.weights) @ d.right_vectors.T
    return matrix_to_state(m, d.split, d.dims)
