import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hardywitness as hw
from hardywitness.errors import DegeneratePair, NonPositiveWeight, NumericalFailure
from hardywitness.hardy import FLAGGED_CONDITION, ZERO_CONDITIONS, choose_pair, entry_label
from hardywitness.schmidt import SchmidtDecomposition

from conftest import random_state, random_unitary

SPLIT = hw.Bipartition((0,), (1,))

positive_weight = st.floats(min_value=1e-3, max_value=1.0)


def _inside_unit_disc(pair):
    return pair[0] * pair[0] + pair[1] * pair[1] <= 1.0


_bound_weight = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1.0))
# at most 1/sqrt(2), so a pair of nearly equal weights stays inside the disc
_near_pair_weight = st.floats(min_value=1e-12, max_value=2**-0.5)
# (p1, p2) with p1, p2 >= 0, p1^2 + p2^2 <= 1 and not both zero: generic
# pairs, pairs on the unit circle (where the maximum lies), pairs a relative
# 1e-6 apart, and pairs within eps_deg of each other
bound_pairs = st.one_of(
    st.floats(min_value=0.0, max_value=math.pi / 2).map(lambda a: (math.cos(a), math.sin(a))),
    st.tuples(_bound_weight, _bound_weight).filter(lambda p: max(p) > 0),
    st.tuples(_near_pair_weight, st.floats(min_value=-1e-6, max_value=1e-6)).map(
        lambda t: (t[0], t[0] * (1.0 + t[1]))
    ),
    st.tuples(_near_pair_weight, st.floats(min_value=0.0, max_value=hw.hardy.DEFAULT_EPS_DEG)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
).filter(_inside_unit_disc)


class TestClosedForm:
    def test_equal_weights_vanish(self):
        assert hw.hardy_probability(0.5, 0.5) == 0.0

    def test_four_forty_fifths(self):
        assert abs(hw.hardy_probability(0.8**0.5, 0.2**0.5) - 4 / 45) < 1e-15

    def test_rank_one_limits_vanish(self):
        assert hw.hardy_probability(0.0, 1.0) == 0.0
        assert hw.hardy_probability(1.0, 0.0) == 0.0

    @given(positive_weight, positive_weight)
    def test_symmetric(self, p1, p2):
        assert hw.hardy_probability(p1, p2) == hw.hardy_probability(p2, p1)

    @given(positive_weight, positive_weight)
    def test_bounded(self, p1, p2):
        value = hw.hardy_probability(p1, p2)
        assert 0.0 <= value < 1.0

    def test_qubit_maximum_matches_analytic_stationary_point(self):
        # d/dt of the two-qubit value vanishes at sqrt(t(1-t)) = (3-sqrt5)/2,
        # where the value is (5*sqrt5 - 11)/2
        analytic = (5 * math.sqrt(5.0) - 11.0) / 2.0
        t, value = hw.max_hardy_probability_qubit(10001)
        assert abs(value - analytic) < 1e-10
        s = math.sqrt(t * (1 - t))
        assert abs(s - (3 - math.sqrt(5.0)) / 2.0) < 1e-6

    @settings(max_examples=200, deadline=None)
    @given(bound_pairs)
    @example((0.8226483631696155**0.5, (1 - 0.8226483631696155) ** 0.5))
    def test_homogeneous_bound(self, pair):
        # the exhaustive multipartite search prunes with this bound
        p1, p2 = pair
        bound = hw.HARDY_MAX * (p1 * p1 + p2 * p2) * (1 + 1e-12)
        assert hw.hardy_probability(p1, p2) <= bound

    def test_bound_constant_is_qubit_maximum(self):
        assert abs(hw.HARDY_MAX - hw.max_hardy_probability_qubit()[1]) <= 1e-15

    def test_grid_must_be_reasonable(self):
        with pytest.raises(ValueError):
            hw.max_hardy_probability_qubit(1)


class TestUnitaries:
    def test_swap_forced_at_equal_weights(self):
        _, y_from_x = hw.build_unitaries(2**-0.5, 2**-0.5)
        assert np.array_equal(y_from_x, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_known_entries(self):
        p1, p2 = 0.8**0.5, 0.2**0.5
        u, _ = hw.build_unitaries(p1, p2)
        assert abs(u[0, 0] - 1 / 3**0.5) < 1e-12
        assert abs(u[0, 1] - (-1j) * (2 / 3) ** 0.5) < 1e-12
        assert abs(u[1, 0] - (-1j) * (2 / 3) ** 0.5) < 1e-12
        assert abs(u[1, 1] - 1 / 3**0.5) < 1e-12

    @given(positive_weight, positive_weight)
    def test_unitarity(self, p1, p2):
        for m in hw.build_unitaries(p1, p2):
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveWeight):
            hw.build_unitaries(0.0, 0.5)
        with pytest.raises(NonPositiveWeight):
            hw.build_unitaries(0.5, -0.1)


class TestConstruction:
    def test_x_plus_formula(self, state_08_02):
        d = hw.schmidt_decompose(state_08_02, SPLIT)
        con = hw.build_construction(d, (0, 1))
        p1, p2 = con.p1, con.p2
        expected = (
            math.sqrt(p2) * d.left_vectors[:, 0]
            - 1j * math.sqrt(p1) * d.left_vectors[:, 1]
        ) / math.sqrt(p1 + p2)
        assert_allclose(con.observable("X1").vector(1), expected, atol=1e-12)

    def test_bases_orthonormal(self):
        rng = np.random.default_rng(19)
        v = random_state(rng, (3, 4))
        d = hw.schmidt_decompose(v, SPLIT)
        con = hw.build_construction(d, hw.distinct_weight_pairs(d.weights)[0])
        for plus, minus in [obs.marked_vectors() for obs in con.observables]:
            assert abs(np.vdot(plus, plus) - 1) < 1e-12
            assert abs(np.vdot(minus, minus) - 1) < 1e-12
            assert abs(np.vdot(plus, minus)) < 1e-12

    def test_degenerate_pair_rejected(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        d = hw.schmidt_decompose(v, SPLIT)
        with pytest.raises(DegeneratePair):
            hw.build_construction(d, (0, 1))
        con = hw.build_construction(d, (0, 1), allow_degenerate=True)
        assert con.p1 == con.p2

    @pytest.mark.parametrize("eps_deg", [float("nan"), math.inf, 0.0, -1.0])
    def test_eps_deg_must_be_finite_and_positive(self, eps_deg):
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        d = hw.schmidt_decompose(bell, SPLIT)
        calls = (
            lambda: hw.build_construction(d, (0, 1), eps_deg),
            lambda: hw.build_construction(d, (0, 1), eps_deg, allow_degenerate=True),
            lambda: hw.make_witness_report(bell, SPLIT, pair=(0, 1), eps_deg=eps_deg),
            lambda: hw.distinct_weight_pairs(d.weights, eps_deg),
        )
        for call in calls:
            with pytest.raises(ValueError, match="eps_deg must be finite and positive"):
                call()

    @pytest.mark.parametrize("zero_tol", [float("nan"), math.inf, 0.0, -1.0])
    def test_zero_tol_must_be_finite_and_positive(self, zero_tol):
        # inf used to pass every zero condition, and nan, 0 or -1 to fail them all
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        applicable = hw.make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5])
        for v, pair in [(bell, None), (bell, (0, 1)), (applicable, None)]:
            with pytest.raises(ValueError, match="zero_tol must be finite and positive"):
                hw.make_witness_report(v, SPLIT, pair=pair, zero_tol=zero_tol)

    def test_bad_pair_index(self, state_08_02):
        d = hw.schmidt_decompose(state_08_02, SPLIT)
        with pytest.raises(ValueError):
            hw.build_construction(d, (0, 5))
        with pytest.raises(ValueError):
            hw.build_construction(d, (1, 1))

    def test_outcome_zero_absent_for_qubits(self, report_08_02):
        table = report_08_02.table
        for s1 in ("X1", "Y1"):
            for s2 in ("X2", "Y2"):
                marginal = sum(
                    p for out, p in table.row((s1, s2)) if out[0] == 0
                )
                assert marginal < 1e-12

    def test_outcome_zero_probability_is_remaining_weight(self):
        w = [0.8, 0.5, 0.11**0.5]
        amps = np.zeros(9, dtype=complex)
        amps[0], amps[4], amps[8] = w
        v = hw.make_state([3, 3], amps)
        d = hw.schmidt_decompose(v, SPLIT)
        con = hw.build_construction(d, (0, 1))
        table = hw.joint_table(v, con)
        p3 = d.weights[2]
        marginal = sum(p for out, p in table.row(("X1", "X2")) if out[0] == 0)
        assert abs(marginal - p3**2) < 1e-10


class TestEquivalentDecompositions:
    def test_coefficients_on_schmidt_form_state(self, state_08_02):
        d = hw.schmidt_decompose(state_08_02, SPLIT)
        con = hw.build_construction(d, (0, 1))
        x_plus_1, x_minus_1 = con.observable("X1").marked_vectors()
        x_plus_2, x_minus_2 = con.observable("X2").marked_vectors()
        m = hw.reshape_bipartite(state_08_02, SPLIT)

        def coeff(left, right):
            return left.conj() @ m @ right.conj()

        p1, p2 = con.p1, con.p2
        assert abs(coeff(x_plus_1, x_plus_2)) < 1e-12
        assert abs(coeff(x_plus_1, x_minus_2) - 1j * math.sqrt(p1 * p2)) < 1e-10
        assert abs(coeff(x_minus_1, x_minus_2) - (p2 - p1)) < 1e-10

    def test_residuals_small_on_random_states(self):
        rng = np.random.default_rng(99)
        for dims in [(2, 2), (3, 3), (4, 2), (3, 4)]:
            for _ in range(5):
                v = random_state(rng, dims)
                report = hw.make_witness_report(v, SPLIT)
                if not report.applicable:
                    continue
                res = hw.verify_equivalent_decompositions(v, report.construction)
                assert max(res) < 1e-9


class TestJointTable:
    def test_zero_conditions_on_known_state(self, report_08_02):
        table = report_08_02.table
        assert table.prob(("X1", "X2"), (1, 1)) < 1e-12
        assert table.prob(("Y1", "X2"), (1, -1)) < 1e-12
        assert table.prob(("X1", "Y2"), (-1, 1)) < 1e-12

    def test_flagged_value_on_known_state(self, report_08_02):
        assert abs(report_08_02.table.prob(("Y1", "Y2"), (1, 1)) - 4 / 45) < 1e-10

    def test_rows_normalized_and_no_signalling(self):
        rng = np.random.default_rng(3)
        v = random_state(rng, (3, 3))
        report = hw.make_witness_report(v, SPLIT)
        report.table.check()  # raises on violation

    def test_phase_covariance(self):
        rng = np.random.default_rng(len("phase"))
        v = random_state(rng, (3, 3))
        d = hw.schmidt_decompose(v, SPLIT)
        pair = hw.distinct_weight_pairs(d.weights)[0]
        table = hw.joint_table(v, hw.build_construction(d, pair))
        phases = np.exp(1j * np.array([0.3, -1.2, 2.5]))[: d.rank]
        twisted = SchmidtDecomposition(
            d.dims,
            d.split,
            d.weights,
            d.left_vectors * phases,
            d.right_vectors * phases.conj(),
        )
        table2 = hw.joint_table(v, hw.build_construction(twisted, pair))
        for key, p in table.entries.items():
            assert abs(table2.entries[key] - p) < 1e-10


def _edited(table, edit):
    probs = table.probs.copy()
    edit(probs)
    return hw.JointProbabilityTable(table.party_settings, table.party_outcomes, probs)


def _set(value):
    def edit(probs):
        probs.flat[0] = value

    return edit


def _add_to_first_row(probs):
    probs.flat[0] += 1e-6


def _shift_party_0_outcome(probs):
    # move mass inside the first setting choice's row, from its largest entry
    # to the entry with the next party-0 outcome: the row still sums to 1,
    # but party 0's marginal now depends on the other parties' settings
    n = probs.ndim // 2
    row = probs[(0,) * n]
    src = np.unravel_index(row.argmax(), row.shape)
    dst = ((src[0] + 1) % row.shape[0],) + src[1:]
    row[src] -= 1e-6
    row[dst] += 1e-6


class TestTableCheck:
    """``check()`` on the 0.8/0.2 table and on the 2/45 tripartite table,
    whose peeled party has a single setting."""

    CASES = {
        "nan_entry": (_set(float("nan")), "entry range", "nan"),
        "below_minus_tol": (_set(-1e-9), "entry range", -1e-9),
        "above_one": (_set(1.0 + 1e-9), "entry range", 1.0 + 1e-9),
        "row_sum": (_add_to_first_row, "normalization", 1e-6),
        "signalling": (_shift_party_0_outcome, "no-signalling", 1e-6),
    }

    @pytest.fixture(params=["bipartite_08_02", "tripartite_2_45"])
    def table(self, request, report_08_02, tripartite_example):
        if request.param == "bipartite_08_02":
            return report_08_02.table
        witness = hw.multipartite_witness(tripartite_example)
        return hw.multipartite_table(tripartite_example, witness)

    def test_valid_table_passes(self, table):
        table.check()
        assert table.probs.dtype == np.float64 and not table.probs.flags.writeable
        assert table.probs.shape == tuple(
            len(axis) for axis in table.party_settings + table.party_outcomes
        )
        assert list(table.entries) == table.ordered_keys()
        assert list(table.entries.values()) == table.probs.ravel().tolist()
        with pytest.raises(TypeError):
            table.entries[table.ordered_keys()[0]] = 0.0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_with_check_and_worst_value(self, table, case):
        edit, check_name, worst = self.CASES[case]
        with pytest.raises(NumericalFailure) as info:
            _edited(table, edit).check()
        message = str(info.value)
        assert message.startswith(check_name + ":")
        assert "np.float64" not in message
        reported = float(message.split()[-1])
        if worst == "nan":
            assert math.isnan(reported)
        else:
            assert reported == pytest.approx(worst, rel=1e-6)


class TestWitnessReport:
    def test_applicable_with_auto_pair(self, report_08_02):
        assert report_08_02.applicable
        assert report_08_02.pair == (0, 1)
        assert abs(report_08_02.hardy_measured - 4 / 45) < 1e-9
        assert abs(report_08_02.hardy_closed_form - 4 / 45) < 1e-12
        assert report_08_02.all_conditions_hold

    def test_maximally_entangled_not_applicable(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        report = hw.make_witness_report(v, SPLIT)
        assert not report.applicable
        assert "equal" in report.reason

    def test_product_not_applicable(self):
        v = hw.make_state([2, 2], [1, 1, 0, 0])
        report = hw.make_witness_report(v, SPLIT)
        assert not report.applicable
        assert "rank 1" in report.reason

    def test_degenerate_pair_allowed_by_flag(self):
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        report = hw.make_witness_report(bell, SPLIT, pair=(0, 1), allow_degenerate=True)
        assert report.applicable
        assert report.hardy_closed_form == 0.0
        d = hw.schmidt_decompose(bell, SPLIT)
        table = hw.joint_table(bell, hw.build_construction(d, (0, 1), allow_degenerate=True))
        assert report.table.probs.tobytes() == table.probs.tobytes()

    def test_degenerate_pair_rejected_without_flag(self):
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        with pytest.raises(DegeneratePair, match="agree within eps_deg"):
            hw.make_witness_report(bell, SPLIT, pair=(0, 1))

    def test_measured_matches_closed_form_on_suite(self, witness_suite):
        for _, report in witness_suite[:25]:
            assert abs(report.hardy_measured - report.hardy_closed_form) < 1e-9

    def test_ghz_split_not_applicable(self):
        g = hw.ghz_state(3)
        for split in (hw.Bipartition((0,), (1, 2)), hw.Bipartition((0, 1), (2,))):
            assert not hw.make_witness_report(g, split).applicable

    def test_condition_labels(self):
        labels = [c.label for c in ZERO_CONDITIONS]
        assert labels == [
            "P(X1=+1, X2=+1)",
            "P(Y1=+1, X2=-1)",
            "P(X1=-1, Y2=+1)",
            "P(Y1=+1, X2=0)",
            "P(X1=0, Y2=+1)",
        ]
        assert FLAGGED_CONDITION.label == "P(Y1=+1, Y2=+1)"

    def test_entry_label_signs_x_and_y_outcomes_only(self):
        label = entry_label(("X1", "Y2", "T3", "T4"), (-1, 0, 1, 2))
        assert label == "P(X1=-1, Y2=0, T3=1, T4=2)"

    @pytest.mark.parametrize(
        "amps, reason",
        [
            ([1, 0, 0, 1], "all Schmidt weights equal within eps_deg"),
            ([1, 1, 0, 0], "rank 1 (product across this split)"),
        ],
    )
    def test_choose_pair_reason_is_the_report_reason(self, amps, reason):
        v = hw.make_state([2, 2], amps)
        assert choose_pair(hw.schmidt_decompose(v, SPLIT).weights) == (None, reason)
        assert hw.make_witness_report(v, SPLIT).reason == reason


@st.composite
def near_eps_cases(draw):
    """A d x d state U diag(w) V^T (d = 2-6) with weights k and k + 1 set
    ``gap * eps_deg`` apart and every other weight far from both."""
    d = draw(st.integers(2, 6))
    eps_deg = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        levels = np.sort(rng.uniform(0.1, 1.0, d - 1))[::-1]
        if d == 2 or np.min(-np.diff(levels)) > 0.02:
            break
    k = int(rng.integers(d - 1))
    base = np.insert(levels, k, levels[k])
    base /= np.linalg.norm(base)
    u, v = random_unitary(rng, d), random_unitary(rng, d)

    def state(gap):
        w = base.copy()
        w[k] += gap * eps_deg
        return hw.make_state([d, d], (u @ np.diag(w) @ v.T).reshape(-1))

    return state, (k, k + 1), eps_deg


class TestEpsDegEdge:
    """A weight pair is distinct exactly when it lies more than eps_deg apart."""

    @settings(max_examples=60, deadline=None)
    @given(near_eps_cases())
    def test_pair_distinct_past_eps_deg_only(self, case):
        state, pair, eps_deg = case
        far, near = state(1.5), state(0.5)
        d_far = hw.schmidt_decompose(far, SPLIT)
        assert pair in hw.distinct_weight_pairs(d_far.weights, eps_deg)
        report = hw.make_witness_report(far, SPLIT, pair=pair, eps_deg=eps_deg)
        assert report.applicable and report.all_conditions_hold
        d_near = hw.schmidt_decompose(near, SPLIT)
        assert d_near.rank == d_far.rank == far.dims[0]
        assert pair not in hw.distinct_weight_pairs(d_near.weights, eps_deg)
        with pytest.raises(DegeneratePair):
            hw.build_construction(d_near, pair, eps_deg)
        if d_near.rank == 2:
            reason = "all Schmidt weights equal within eps_deg"
            assert choose_pair(d_near.weights, eps_deg) == (None, reason)

    @pytest.mark.xfail(
        strict=True,
        reason="the Gram-matrix Schmidt split drops weights below about 3e-7",
    )
    @pytest.mark.parametrize("t", [1e-7, 1e-10])
    def test_tiny_second_weight_is_applicable(self, t):
        report = hw.make_witness_report(hw.make_state([2, 2], [1, 0, 0, t]), SPLIT)
        assert report.applicable and report.all_conditions_hold
