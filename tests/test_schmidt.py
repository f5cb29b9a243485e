import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardywitness as hw
from hardywitness.schmidt import _polish, _spectrum

from conftest import apply_side1_unitary, random_state, random_unitary

SPLIT = hw.Bipartition((0,), (1,))


def check_invariants(v, d, atol_orth=1e-10, atol_rec=1e-9):
    assert abs(np.sum(d.weights**2) - 1.0) < 1e-10
    assert all(d.weights[k] >= d.weights[k + 1] for k in range(d.rank - 1))
    left = d.left_vectors
    right = d.right_vectors
    assert np.max(np.abs(left.conj().T @ left - np.eye(d.rank))) < atol_orth
    assert np.max(np.abs(right.conj().T @ right - np.eye(d.rank))) < atol_orth
    rebuilt = hw.reconstruct(d)
    assert np.max(np.abs(rebuilt.amps - v.amps)) < atol_rec


class TestDecompose:
    def test_already_schmidt_form(self):
        v = hw.make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5])
        d = hw.schmidt_decompose(v, SPLIT)
        assert_allclose(d.weights, [0.8**0.5, 0.2**0.5], atol=1e-12)
        # phase convention makes these the computational basis exactly
        assert_allclose(d.left_vectors, np.eye(2), atol=1e-12)
        assert_allclose(d.right_vectors, np.eye(2), atol=1e-12)

    def test_product_state_rank_one(self):
        v = hw.make_state([2, 2], [1, 1, 0, 0])  # |0> (|0>+|1>)
        d = hw.schmidt_decompose(v, SPLIT)
        assert d.rank == 1
        assert abs(d.weights[0] - 1.0) < 1e-12

    def test_random_invariants(self):
        rng = np.random.default_rng(2024)
        for dims in [(2, 2), (3, 3), (4, 3), (2, 4)]:
            for _ in range(5):
                v = random_state(rng, dims)
                d = hw.schmidt_decompose(v, SPLIT)
                check_invariants(v, d)

    def test_weights_alone_are_the_decomposition_weights(self):
        # generic, rank-deficient and degenerate states, on grouped splits too
        rng = np.random.default_rng(909)
        cases = [(random_state(rng, dims), split) for dims, split in [
            ((2, 2), SPLIT), ((3, 4), SPLIT), ((4, 3), hw.Bipartition((1,), (0,))),
            ((2, 3, 2), hw.Bipartition((0, 2), (1,))),
        ]]
        cases += [
            (hw.make_state([3, 3], [1, 0, 0, 0, 1, 0, 0, 0, 1]), SPLIT),
            (hw.make_state([3, 3], [1, 0, 0, 0, 1, 0, 0, 0, 0]), SPLIT),
            (hw.ghz_state(3), hw.Bipartition((2,), (0, 1))),
            (hw.make_state([2, 2], [1, 1, 0, 0]), SPLIT),
        ]
        for v, split in cases:
            w = hw.schmidt_weights(v, split)
            assert w.tobytes() == hw.schmidt_decompose(v, split).weights.tobytes()

    def test_swapped_split(self):
        rng = np.random.default_rng(77)
        v = random_state(rng, (3, 4))
        d = hw.schmidt_decompose(v, hw.Bipartition((1,), (0,)))
        check_invariants(v, d)
        d0 = hw.schmidt_decompose(v, SPLIT)
        assert_allclose(d.weights, d0.weights, atol=1e-10)

    def test_weights_match_numpy_svd(self):
        rng = np.random.default_rng(31)
        for dims in [(2, 3), (4, 4), (3, 2)]:
            v = random_state(rng, dims)
            d = hw.schmidt_decompose(v, SPLIT)
            m = hw.reshape_bipartite(v, SPLIT)
            sv = np.linalg.svd(m, compute_uv=False)
            assert_allclose(d.weights, sv[: d.rank], atol=1e-9)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            v = random_state(rng, (3, 3))
            u = random_unitary(rng, 3)
            w = apply_side1_unitary(v, SPLIT, u)
            d1 = hw.schmidt_decompose(v, SPLIT)
            d2 = hw.schmidt_decompose(w, SPLIT)
            assert d1.rank == d2.rank
            assert_allclose(d1.weights, d2.weights, atol=1e-9)

    def test_phase_convention(self):
        rng = np.random.default_rng(8)
        v = random_state(rng, (4, 4))
        d = hw.schmidt_decompose(v, SPLIT)
        for k in range(d.rank):
            col = d.left_vectors[:, k]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        v = random_state(rng, (3, 3))
        d1 = hw.schmidt_decompose(v, SPLIT)
        d2 = hw.schmidt_decompose(v, SPLIT)
        assert np.array_equal(d1.left_vectors, d2.left_vectors)
        assert np.array_equal(d1.right_vectors, d2.right_vectors)

    def test_degenerate_block_stays_sparse(self):
        # two equal weights whose eigenvectors live on disjoint supports:
        # ordering is stabilized by the first significant component
        amps = np.zeros(9, dtype=complex)
        amps[0] = 0.5  # |00>
        amps[4] = 0.5  # |11>
        amps[8] = 2**-0.5  # |22>
        v = hw.make_state([3, 3], amps)
        d = hw.schmidt_decompose(v, SPLIT)
        assert_allclose(d.weights, [2**-0.5, 0.5, 0.5], atol=1e-12)
        assert_allclose(np.abs(d.left_vectors[:, 0]), [0, 0, 1], atol=1e-12)
        assert_allclose(np.abs(d.left_vectors[:, 1]), [1, 0, 0], atol=1e-12)
        assert_allclose(np.abs(d.left_vectors[:, 2]), [0, 1, 0], atol=1e-12)


def _reference_polish(b):
    """Modified Gram-Schmidt with every column indexed afresh (the oracle)."""
    for i in range(b.shape[1]):
        for j in range(i):
            b[:, i] -= np.vdot(b[:, j], b[:, i]) * b[:, j]
        b[:, i] /= np.linalg.norm(b[:, i])


class TestPolishBits:
    """The polish over cached column views matches the indexed loop by bytes."""

    @pytest.mark.parametrize("d", [16, 64])
    def test_right_vectors_of_a_split(self, d):
        v = random_state(np.random.default_rng(60 + d), (d, d))
        m, w, eigvecs, order = _spectrum(v, SPLIT)
        betas = (m.T @ eigvecs[:, order].conj()) / w
        ref = betas.copy()
        _polish(betas)
        _reference_polish(ref)
        assert betas.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [16, 64])
    def test_far_from_orthonormal(self, d):
        rng = np.random.default_rng(70 + d)
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ref = b.copy()
        _polish(b)
        _reference_polish(ref)
        assert b.tobytes() == ref.tobytes()


class TestDistinctWeightPairs:
    def test_single_pair(self):
        v = hw.make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5])
        d = hw.schmidt_decompose(v, SPLIT)
        assert hw.distinct_weight_pairs(d.weights) == [(0, 1)]

    def test_maximally_entangled_empty(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        d = hw.schmidt_decompose(v, SPLIT)
        assert hw.distinct_weight_pairs(d.weights) == []

    def test_ordering_by_flagged_probability(self):
        w = [0.8, 0.5, 0.11**0.5]
        amps = np.zeros(9, dtype=complex)
        amps[0], amps[4], amps[8] = w
        v = hw.make_state([3, 3], amps)
        d = hw.schmidt_decompose(v, SPLIT)
        pairs = hw.distinct_weight_pairs(d.weights)
        scores = [hw.hardy_probability(d.weights[i], d.weights[j]) for i, j in pairs]
        assert scores == sorted(scores, reverse=True)
        assert pairs == [(0, 2), (0, 1), (1, 2)]

    def test_rank_one_empty(self):
        v = hw.basis_state([2, 2], (0, 0))
        d = hw.schmidt_decompose(v, SPLIT)
        assert hw.distinct_weight_pairs(d.weights) == []

    def test_eps_deg_must_be_positive(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        d = hw.schmidt_decompose(v, SPLIT)
        with pytest.raises(ValueError):
            hw.distinct_weight_pairs(d.weights, 0.0)
        with pytest.raises(ValueError):
            hw.distinct_weight_pairs(d.weights, float("nan"))

    def test_empty_exactly_when_all_close(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            v = random_state(rng, (3, 3))
            d = hw.schmidt_decompose(v, SPLIT)
            eps = 1e-9
            expect_empty = all(
                abs(d.weights[i] - d.weights[j]) <= eps
                for i in range(d.rank)
                for j in range(i + 1, d.rank)
            )
            assert (hw.distinct_weight_pairs(d.weights, eps) == []) == expect_empty
