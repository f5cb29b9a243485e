"""Dense complex state vectors, bipartitions, and local projections.

Amplitudes are stored flat in row-major order over the listed subsystem
dimensions.  All operations are pure: inputs are never mutated and returned
arrays are write-protected.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadPartition, DimensionMismatch, ZeroVector

# Norms at or below this are treated as the zero vector.
ZERO_NORM_TOL = 1e-14
# Projection probabilities at or below this count as zero (no residual state).
PROJECTION_FLOOR = 1e-14


@dataclass(frozen=True)
class Bipartition:
    """Ordered two-way split of 0-based subsystem indices.

    The listed order of ``side1``/``side2`` fixes the row-major flattening
    used by :func:`reshape_bipartite`, so two bipartitions with the same
    index sets but different order are distinct objects on purpose.
    """

    side1: tuple[int, ...]
    side2: tuple[int, ...]

    def check(self, n_subsystems: int) -> None:
        if not self.side1 or not self.side2:
            raise BadPartition("both sides of a bipartition need at least one subsystem")
        if sorted(self.side1 + self.side2) != list(range(n_subsystems)):
            raise BadPartition(
                f"sides {self.side1}|{self.side2} do not partition "
                f"{n_subsystems} subsystems"
            )

    def swapped(self) -> "Bipartition":
        return Bipartition(self.side2, self.side1)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over subsystems of dimensions ``dims``."""

    dims: tuple[int, ...]
    amps: np.ndarray  # flat complex128, length prod(dims), unit norm


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a non-integer (numpy integers pass) raises."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise DimensionMismatch(f"{what} must be integers, got {values}") from None


def make_state(dims, amps) -> StateVector:
    """Validate and normalize raw amplitudes into a :class:`StateVector`."""
    dims = _integers(dims, "dimensions")
    if not dims or any(d < 2 for d in dims):
        raise DimensionMismatch(f"every subsystem dimension must be >= 2, got {dims}")
    a = np.asarray(amps, dtype=np.complex128).reshape(-1)
    total = math.prod(dims)
    if a.size != total:
        raise DimensionMismatch(
            f"expected {total} amplitudes for dims {dims}, got {a.size}"
        )
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise DimensionMismatch("amplitudes must be finite")
    return normalize(StateVector(dims, a))


def normalize(v: StateVector) -> StateVector:
    """Rescale to unit norm.

    Raises :class:`ZeroVector` for null input and :class:`DimensionMismatch`
    when the norm is not finite (finite amplitudes whose squares overflow).
    """
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v.amps)
    if not math.isfinite(n):
        raise DimensionMismatch(f"cannot normalize a vector of norm {n}")
    if n <= ZERO_NORM_TOL:
        raise ZeroVector(f"cannot normalize a vector of norm {n:.3e}")
    return StateVector(v.dims, _freeze(v.amps / n))


@functools.lru_cache(maxsize=256)
def _layout(dims: tuple[int, ...], split: Bipartition):
    """Index layout of ``split`` over ``dims``, computed once per pair.

    Returns ``(perm, inverse, side_dims, d1, d2)``: the axis order that lists
    side 1 then side 2, its inverse, the dimensions in that order, and the
    two side sizes.  Every miss checks the split first.
    """
    split.check(len(dims))
    perm = split.side1 + split.side2
    inverse = tuple(int(k) for k in np.argsort(perm))
    side_dims = tuple(dims[i] for i in perm)
    d1 = math.prod(dims[i] for i in split.side1)
    d2 = math.prod(dims[i] for i in split.side2)
    return perm, inverse, side_dims, d1, d2


def reshape_bipartite(v: StateVector, split: Bipartition) -> np.ndarray:
    """Coefficient matrix M with M[a, b] = amplitude of (a on side1, b on side2).

    Side indices are flattened row-major in the order the bipartition lists
    them.  The map is a pure index permutation: invertible and norm-preserving.
    """
    perm, _, _, d1, d2 = _layout(tuple(v.dims), split)
    tensor = v.amps.reshape(v.dims).transpose(perm)
    return np.ascontiguousarray(tensor).reshape(d1, d2)


def matrix_to_state(m: np.ndarray, split: Bipartition, dims: tuple[int, ...]) -> StateVector:
    """Inverse of :func:`reshape_bipartite`; assumes ``m`` already has unit norm."""
    dims = tuple(dims)
    _, inverse, side_dims, _, _ = _layout(dims, split)
    tensor = np.asarray(m, dtype=np.complex128).reshape(side_dims).transpose(inverse)
    return StateVector(dims, _freeze(np.ascontiguousarray(tensor).reshape(-1)))


def _check_side_vector(u, expected: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    if u.size != expected:
        raise DimensionMismatch(f"projector vector has length {u.size}, expected {expected}")
    return u


def project_side1(m: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray]:
    """Project the rows (side 1) of coefficient matrix ``m`` onto a unit vector.

    ``u`` is a checked complex vector of length ``m.shape[0]`` (the public
    :func:`apply_local_projector` checks it).  Returns ``(probability, w)``
    with ``w`` the unnormalized side-2 state given the outcome.
    """
    w = u.conj() @ m
    return float(np.vdot(w, w).real), w


def complement_side1(m: np.ndarray, basis_vectors) -> tuple[float, np.ndarray]:
    """Project the rows of ``m`` onto the orthogonal complement of unit vectors.

    ``basis_vectors`` are checked complex vectors of length ``m.shape[0]``
    (the public :func:`apply_local_complement` checks them).  Returns
    ``(probability, residual)`` with the residual matrix unnormalized.  The
    complement projector is applied implicitly (never materialized), so the
    cost stays linear in the total dimension.
    """
    residual = m.copy()
    for u in basis_vectors:
        residual -= u[:, None] * (u.conj() @ m)
    return float(np.linalg.norm(residual) ** 2), residual


def apply_local_projector(
    v: StateVector, split: Bipartition, basis_vector
) -> tuple[float, StateVector | None]:
    """Project side 1 of ``split`` onto a unit vector.

    Returns ``(probability, residual)`` where the residual is the normalized
    post-projection state, or ``None`` when the probability is at the noise
    floor.  To project side 2, pass ``split.swapped()``.
    """
    m = reshape_bipartite(v, split)
    u = _check_side_vector(basis_vector, m.shape[0])
    prob, w = project_side1(m, u)
    if prob <= PROJECTION_FLOOR:
        return prob, None
    return prob, matrix_to_state(u[:, None] * w / math.sqrt(prob), split, v.dims)


def apply_local_complement(
    v: StateVector, split: Bipartition, basis_vectors
) -> tuple[float, StateVector | None]:
    """Project side 1 of ``split`` onto the orthogonal complement of unit vectors.

    Returns ``(probability, residual)`` as :func:`apply_local_projector` does.
    """
    m = reshape_bipartite(v, split)
    vectors = [_check_side_vector(u, m.shape[0]) for u in basis_vectors]
    prob, residual = complement_side1(m, vectors)
    if prob <= PROJECTION_FLOOR:
        return prob, None
    return prob, matrix_to_state(residual / math.sqrt(prob), split, v.dims)


def basis_state(dims, occupation) -> StateVector:
    """Computational basis state |occupation[0], occupation[1], ...>."""
    dims = _integers(dims, "dimensions")
    occupation = _integers(occupation, "occupations")
    if len(occupation) != len(dims) or any(
        not 0 <= k < d for k, d in zip(occupation, dims)
    ):
        raise DimensionMismatch(f"occupation {occupation} invalid for dims {dims}")
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    flat = 0
    for k, d in zip(occupation, dims):
        flat = flat * d + k
    amps[flat] = 1.0
    return StateVector(dims, _freeze(amps))


def ghz_state(n_subsystems: int, dim: int = 2) -> StateVector:
    """Equal superposition of |k,k,...,k> over k < dim."""
    if n_subsystems < 2 or dim < 2:
        raise DimensionMismatch("GHZ needs at least two subsystems of dimension >= 2")
    dims = (dim,) * n_subsystems
    amps = np.zeros(dim**n_subsystems, dtype=np.complex128)
    step = (dim**n_subsystems - 1) // (dim - 1)
    amps[::step] = 1.0 / math.sqrt(dim)
    return StateVector(dims, _freeze(amps))
