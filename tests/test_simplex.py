import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hardywitness.errors import NumericalFailure
from hardywitness.simplex import solve_equality_feasibility


def farkas_is_valid(a, b, y, slack=1e-12, margin=1e-9):
    return float(np.max(y @ a)) <= slack and float(y @ b) >= margin


def test_simple_feasible():
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    res = solve_equality_feasibility(a, b)
    assert res.feasible
    assert_allclose(a @ res.x, b, atol=1e-12)
    assert res.x.min() >= 0


def test_simple_infeasible():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_equality_feasibility(a, b)
    assert not res.feasible
    assert farkas_is_valid(a, b, res.dual)


def test_negative_rhs_handled():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([-1.0, 0.5])
    res = solve_equality_feasibility(a, b)
    assert not res.feasible  # x >= 0 cannot produce a negative coordinate
    assert farkas_is_valid(a, b, res.dual)


def test_redundant_consistent_rows():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_equality_feasibility(a, b)
    assert res.feasible
    assert_allclose(a @ res.x, b, atol=1e-12)


def test_random_feasible_systems():
    rng = np.random.default_rng(404)
    for _ in range(25):
        m, n = rng.integers(2, 8), rng.integers(3, 12)
        a = rng.standard_normal((m, n))
        x_true = rng.uniform(0, 1, n)
        b = a @ x_true
        res = solve_equality_feasibility(a, b)
        assert res.feasible
        assert np.max(np.abs(a @ res.x - b)) < 1e-9
        assert res.x.min() >= -1e-12


def test_random_infeasible_systems():
    # append an unsatisfiable duplicate row to a feasible system
    rng = np.random.default_rng(505)
    for _ in range(25):
        m, n = rng.integers(2, 6), rng.integers(3, 10)
        a = rng.standard_normal((m, n))
        x_true = rng.uniform(0, 1, n)
        b = a @ x_true
        a2 = np.vstack([a, a[0]])
        b2 = np.concatenate([b, [b[0] + 1.0]])
        res = solve_equality_feasibility(a2, b2)
        assert not res.feasible
        assert farkas_is_valid(a2, b2, res.dual)


def test_iteration_cap_raises():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 20))
    x_true = rng.uniform(0, 1, 20)
    b = a @ x_true
    with pytest.raises(NumericalFailure):
        solve_equality_feasibility(a, b, max_iterations=1)


def test_infeasibility_measure_positive_when_infeasible():
    a = np.array([[1.0, 0.0]])
    b = np.array([-2.0])
    res = solve_equality_feasibility(a, b)
    assert not res.feasible
    assert res.infeasibility > 1.0


def test_nan_rhs_is_refused_not_solved():
    # phase 1 alone would report this feasible with x = [nan, 1, 0]
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(NumericalFailure, match="non-finite"):
        solve_equality_feasibility(a, np.array([np.nan, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["a", "b"])
def test_non_finite_input_refused(bad, where):
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([0.5, 1.0])
    if where == "a":
        a[1, 2] = bad
    else:
        b[1] = bad
    with pytest.raises(NumericalFailure, match="non-finite"):
        solve_equality_feasibility(a, b)


def _assignment(k):
    """Row and column sums of a k x k matrix: an assignment polytope's rows."""
    a = np.zeros((2 * k, k * k))
    for i in range(k):
        for j in range(k):
            a[i, i * k + j] = 1.0
            a[k + j, i * k + j] = 1.0
    return a


def _chsh_local_polytope():
    """The 16 deterministic strategies of two parties with two settings and
    two outcomes each, as columns over (x, y, a, b), plus normalization."""
    cols = []
    for a0, a1, b0, b1 in np.ndindex(2, 2, 2, 2):
        col = np.zeros((2, 2, 2, 2))
        for x, y in np.ndindex(2, 2):
            col[x, y, (a0, a1)[x], (b0, b1)[y]] = 1.0
        cols.append(col.ravel())
    return np.vstack([np.array(cols).T, np.ones(16)])


def _degenerate_system(name):
    if name == "assignment-3":
        return _assignment(3), np.ones(6)
    if name == "assignment-3-unbalanced":
        return _assignment(3), np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    if name == "scaled-assignment-4":
        scale = np.random.default_rng(11).uniform(0.5, 2.0, 8)
        return _assignment(4) * scale[:, None], 0.7 * scale
    if name == "chsh-white-noise":
        return _chsh_local_polytope(), np.append(np.full(16, 0.25), 1.0)
    raise KeyError(name)


class TestRatioTies:
    """Degenerate LPs whose ratio tests tie exactly, pinned bit for bit.

    Each run meets ratio ties that the lowest basic index breaks in favour
    of a row other than the first tied one (1, 1, 2 and 2 such pivots), so
    a change in how ties are broken moves these results.  The values were
    recorded with the tie-break written as a lexsort over (basic index,
    ratio).
    """

    PINNED = {
        "assignment-3": (
            True, 8, "0x0.0p+0",
            "871dec59d443d2b6fdaed411e200506ce43b371cdb8ff624ceab8ce84f1ae683",
        ),
        "assignment-3-unbalanced": (
            False, 8, "0x1.0000000000000p+0",
            "419fe162f320395f76b4d4154c4b71d9eaa3ddf39d4409c8b9a9751a58c04d48",
        ),
        "scaled-assignment-4": (
            True, 15, "0x0.0p+0",
            "627e0a1eb1bbcafe178399f52719d2581201114d58f3b5435e9865b1a758be57",
        ),
        "chsh-white-noise": (
            True, 13, "0x0.0p+0",
            "458c871bff864f6685c5a4c606b892c06d9547d71d489e3f75ebb0ea1c761d92",
        ),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_bit_identical(self, name):
        a, b = _degenerate_system(name)
        res = solve_equality_feasibility(a, b)
        feasible, iterations, infeasibility, digest = self.PINNED[name]
        assert res.feasible == feasible
        assert res.iterations == iterations
        assert res.infeasibility.hex() == infeasibility
        solution = res.x if feasible else res.dual
        assert hashlib.sha256(solution.tobytes()).hexdigest() == digest
        if feasible:
            assert res.dual is None
            assert np.max(np.abs(a @ res.x - b)) < 1e-12
        else:
            assert res.x is None
            assert farkas_is_valid(a, b, res.dual)
