import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hardywitness as hw
from hardywitness.errors import BadPartition, DimensionMismatch, ZeroVector

from conftest import random_state, random_unitary


class TestNormalize:
    def test_scaling(self):
        v = hw.make_state([2], [2.0, 0.0])
        assert_allclose(v.amps, [1.0, 0.0], atol=1e-15)

    def test_equal_superposition(self):
        v = hw.make_state([2], [1.0, 1.0])
        assert_allclose(v.amps, [2**-0.5, 2**-0.5], atol=1e-15)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            hw.make_state([2], [0.0, 0.0])

    def test_unit_norm_after_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = random_state(rng, (3, 4))
            assert abs(np.linalg.norm(v.amps) - 1.0) < 1e-12

    def test_bad_length(self):
        with pytest.raises(DimensionMismatch):
            hw.make_state([2, 2], [1.0, 0.0])

    def test_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            hw.make_state([2, 1], [1.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(DimensionMismatch):
            hw.make_state([2], [np.nan, 0.0])

    @pytest.mark.parametrize("dims", [[2.7, 2], [2.0, 2], ["2", 2]])
    def test_non_integer_dims_rejected(self, dims):
        # 2.7 used to be truncated to 2
        with pytest.raises(DimensionMismatch, match="dimensions must be integers"):
            hw.make_state(dims, [1.0, 0.0, 0.0, 1.0])

    def test_numpy_integer_dims(self):
        v = hw.make_state(np.array([2, 2]), [1.0, 0.0, 0.0, 1.0])
        assert v.dims == (2, 2) and all(type(d) is int for d in v.dims)

    def test_overflowing_norm(self):
        # finite amplitudes whose squares overflow: the norm is inf, and
        # dividing by it would give the all-zero vector
        with pytest.raises(DimensionMismatch, match="norm inf"):
            hw.make_state([2, 2], [1e308, 0.0, 0.0, 1e308])

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_normalize_direction_preserved(self, values):
        arr = np.asarray(values, dtype=complex)
        if np.linalg.norm(arr) < 1e-6:
            return
        v = hw.make_state([len(values)], arr)
        assert abs(np.linalg.norm(v.amps) - 1.0) < 1e-12
        # same ray: v is a positive multiple of the input
        k = int(np.argmax(np.abs(arr)))
        assert_allclose(v.amps * arr[k], arr * v.amps[k], atol=1e-12)


class TestReshape:
    def test_bell_diagonal(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        m = hw.reshape_bipartite(v, hw.Bipartition((0,), (1,)))
        assert_allclose(m, np.diag([2**-0.5, 2**-0.5]), atol=1e-15)

    def test_ghz_grouped(self):
        m = hw.reshape_bipartite(hw.ghz_state(3), hw.Bipartition((0, 1), (2,)))
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[3, 1] = 2**-0.5
        assert_allclose(m, expected, atol=1e-15)

    def test_frobenius_norm_one(self):
        rng = np.random.default_rng(3)
        v = random_state(rng, (3, 2))
        m = hw.reshape_bipartite(v, hw.Bipartition((0,), (1,)))
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "dims,side1",
        [((2, 2), (0,)), ((2, 3, 2), (1,)), ((2, 3, 2), (2, 0)), ((4, 2, 3), (2, 1))],
    )
    def test_roundtrip_bit_identical(self, dims, side1):
        rng = np.random.default_rng(hash(dims + side1) % 2**32)
        v = random_state(rng, dims)
        side2 = tuple(i for i in range(len(dims)) if i not in side1)
        split = hw.Bipartition(side1, side2)
        back = hw.matrix_to_state(hw.reshape_bipartite(v, split), split, v.dims)
        assert np.array_equal(back.amps, v.amps)

    def test_bad_partition(self):
        v = hw.make_state([2, 2], [1, 0, 0, 0])
        with pytest.raises(BadPartition):
            hw.reshape_bipartite(v, hw.Bipartition((0,), (0,)))
        with pytest.raises(BadPartition):
            hw.reshape_bipartite(v, hw.Bipartition((0, 1), ()))


class TestLocalProjector:
    def split(self):
        return hw.Bipartition((0,), (1,))

    def test_eigenstate(self):
        v = hw.basis_state([2, 2], (0, 0))
        prob, residual = hw.apply_local_projector(v, self.split(), [1, 0])
        assert abs(prob - 1.0) < 1e-14
        assert_allclose(residual.amps, v.amps, atol=1e-15)

    def test_orthogonal(self):
        v = hw.basis_state([2, 2], (0, 0))
        prob, residual = hw.apply_local_projector(v, self.split(), [0, 1])
        assert prob <= 1e-14
        assert residual is None

    def test_equal_superposition(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        prob, residual = hw.apply_local_projector(v, self.split(), [1, 0])
        assert abs(prob - 0.5) < 1e-14
        assert_allclose(residual.amps, hw.basis_state([2, 2], (0, 0)).amps, atol=1e-15)

    def test_side2(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        prob, residual = hw.apply_local_projector(v, self.split().swapped(), [0, 1])
        assert abs(prob - 0.5) < 1e-14
        assert_allclose(residual.amps, hw.basis_state([2, 2], (1, 1)).amps, atol=1e-15)

    def test_completeness(self):
        rng = np.random.default_rng(11)
        for dims, side in [((3, 4), 1), ((3, 4), 2), ((2, 2, 3), 1)]:
            if len(dims) == 3:
                split = hw.Bipartition((0, 2), (1,))
            else:
                split = hw.Bipartition((0,), (1,))
            if side == 2:
                split = split.swapped()
            v = random_state(rng, dims)
            d = hw.reshape_bipartite(v, split).shape[0]
            basis = random_unitary(rng, d)
            total = sum(
                hw.apply_local_projector(v, split, basis[:, k])[0]
                for k in range(d)
            )
            assert abs(total - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        with pytest.raises(DimensionMismatch):
            hw.apply_local_projector(v, self.split(), [1, 0, 0])


class TestLocalComplement:
    def test_against_dense_projector(self):
        rng = np.random.default_rng(23)
        split = hw.Bipartition((0,), (1,))
        v = random_state(rng, (4, 3))
        u = random_unitary(rng, 4)
        vecs = [u[:, 0], u[:, 1]]
        prob, residual = hw.apply_local_complement(v, split, vecs)
        dense = np.eye(4) - sum(np.outer(w, w.conj()) for w in vecs)
        m = hw.reshape_bipartite(v, split)
        expected = dense @ m
        assert abs(prob - np.linalg.norm(expected) ** 2) < 1e-12
        got = hw.reshape_bipartite(residual, split)
        assert_allclose(got * np.linalg.norm(expected), expected, atol=1e-12)

    def test_full_span_gives_zero(self):
        v = hw.make_state([2, 2], [1, 1, 1, 1])
        prob, residual = hw.apply_local_complement(
            v, hw.Bipartition((0,), (1,)), [[1, 0], [0, 1]]
        )
        assert prob <= 1e-14
        assert residual is None


class TestHelpers:
    def test_basis_state(self):
        v = hw.basis_state([2, 3], (1, 2))
        assert v.amps[5] == 1.0
        assert np.sum(np.abs(v.amps)) == 1.0

    @pytest.mark.parametrize(
        "dims, occupation", [([2, 2], (1.9, 0)), ([2.5, 2], (1, 0))], ids=["occupation", "dims"]
    )
    def test_basis_state_rejects_non_integers(self, dims, occupation):
        # (1.9, 0) used to give |10>
        with pytest.raises(DimensionMismatch, match="must be integers"):
            hw.basis_state(dims, occupation)

    def test_basis_state_numpy_integers(self):
        v = hw.basis_state(np.array([2, 3]), (np.int64(1), np.uint8(2)))
        assert v.dims == (2, 3) and v.amps[5] == 1.0

    def test_ghz(self):
        g = hw.ghz_state(3, 2)
        assert_allclose(g.amps[[0, 7]], [2**-0.5, 2**-0.5], atol=1e-15)
        assert np.count_nonzero(g.amps) == 2
        g3 = hw.ghz_state(2, 3)
        assert np.count_nonzero(g3.amps) == 3
