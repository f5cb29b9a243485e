import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hardywitness as hw
from hardywitness.errors import TooLarge
from hardywitness.hardy import FLAGGED_CONDITION, ZERO_CONDITIONS, JointProbabilityTable
from hardywitness.lhv import _constraint_system

SPLIT = hw.Bipartition((0,), (1,))


class TestEnumeration:
    def test_bipartite_ternary_count(self):
        strategies = hw.enumerate_strategies([2, 2], [(1, -1, 0), (1, -1, 0)])
        assert len(strategies) == 81

    def test_single_binary_setting_count(self):
        assert len(hw.enumerate_strategies([1, 1], [(1, -1), (1, -1)])) == 4

    def test_extra_ternary_party_count(self):
        strategies = hw.enumerate_strategies(
            [2, 2, 1], [(1, -1, 0), (1, -1, 0), (1, 2, 0)]
        )
        assert len(strategies) == 243

    def test_cap(self):
        with pytest.raises(TooLarge):
            hw.enumerate_strategies([10, 10], [(1, -1, 0), (1, -1, 0)])

    def test_assignments_cover_all_settings(self):
        strategies = hw.enumerate_strategies([2, 1], [(1, -1), (0, 1)])
        assert len(strategies) == 4 * 2
        seen = {s.assignments for s in strategies}
        assert len(seen) == 8


@st.composite
def table_shapes(draw):
    """Setting labels and outcome alphabets of a small random table."""
    n = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    alphabets = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True),
            min_size=n,
            max_size=n,
        )
    )
    rows = math.prod(counts) * math.prod(len(outs) for outs in alphabets)
    strategies = math.prod(len(outs) ** c for c, outs in zip(counts, alphabets))
    assume(rows * strategies <= 20000)  # keeps the Python oracle fast
    labels = tuple(
        tuple(f"S{party}{k}" for k in range(c)) for party, c in enumerate(counts)
    )
    return labels, tuple(tuple(outs) for outs in alphabets)


class TestConstraintSystem:
    @settings(max_examples=60, deadline=None)
    @given(table_shapes())
    def test_matches_column_by_column_oracle(self, shape):
        party_settings, party_outcomes = shape
        keys = [
            (choice, outcomes)
            for choice in itertools.product(*party_settings)
            for outcomes in itertools.product(*party_outcomes)
        ]
        entries = {key: 1.0 / (k + 2) for k, key in enumerate(keys)}
        table = JointProbabilityTable(party_settings, party_outcomes, list(entries.values()))
        got_keys, strategies, a, b = _constraint_system(table)
        assert list(got_keys) == keys
        assert strategies == hw.strategies_for_table(table)
        oracle = np.zeros((len(keys) + 1, len(strategies)))
        for col, strategy in enumerate(strategies):
            for row, (choice, outcomes) in enumerate(keys):
                oracle[row, col] = all(
                    strategy.outcome(party, table.party_settings[party].index(choice[party]))
                    == outcomes[party]
                    for party in range(table.n_parties)
                )
        oracle[-1] = 1.0
        assert np.array_equal(a, oracle)
        assert np.array_equal(b, [entries[key] for key in keys] + [1.0])


def _bell_degenerate_table():
    bell = hw.make_state([2, 2], [1, 0, 0, 1])
    d = hw.schmidt_decompose(bell, SPLIT)
    con = hw.build_construction(d, (0, 1), allow_degenerate=True)
    return hw.joint_table(bell, con)


class TestPinnedSolves:
    """Phase-1 results pinned bit for bit on four tables.

    Any change to the constraint matrix, the pivot sequence or the arithmetic
    of a pivot moves these bytes, and with them the certificates.
    """

    PINNED = {
        "hardy_08_02": (
            False, 17, "0x1.c71c71c71c71dp-1",
            "b3309f5d6ea13eb494948a937ed1b875ba42757cf73a394dd866b69ea153591f",
        ),
        "hardy_08_02_idealized": (
            False, 17, "0x1.c71c71c71c71fp-1",
            "d178bfafe9f56d937954b60c37453bbd63352fdc8549c509ba1c95abddac624d",
        ),
        "tripartite_2_45": (
            False, 89, "0x1.c71c71c71c715p-2",
            "a8f9442539cd3edd1e79171a2110bcafa414fb5d41246bf2153cfb979da6924c",
        ),
        "bell_mixture": (
            True, 6, "0x1.0000000000000p-50",
            "8745f3285f86a9d936484210a120c9be4fe0b7749b5ccddccb59b19930e46c7a",
        ),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_bit_identical(self, name, report_08_02, tripartite_example):
        tables = {
            "hardy_08_02": lambda: report_08_02.table,
            "hardy_08_02_idealized": lambda: hw.idealized_table(report_08_02.table),
            "tripartite_2_45": lambda: hw.multipartite_table(
                tripartite_example, hw.multipartite_witness(tripartite_example)
            ),
            "bell_mixture": _bell_degenerate_table,
        }
        _, _, a, b = _constraint_system(tables[name]())
        res = hw.solve_equality_feasibility(a, b)
        feasible, iterations, infeasibility, digest = self.PINNED[name]
        assert res.feasible == feasible
        assert res.iterations == iterations
        assert res.infeasibility.hex() == infeasibility
        solution = res.x if feasible else res.dual
        assert hashlib.sha256(solution.tobytes()).hexdigest() == digest


class TestCertifyBipartite:
    def test_hardy_table_infeasible_with_verified_dual(self, report_08_02):
        cert = hw.certify(report_08_02.table)
        assert not cert.feasible
        assert cert.margin > 1e-9
        # re-verify the certificate against raw data, independently of certify
        keys, strategies, a, b = _constraint_system(report_08_02.table)
        dots = cert.dual @ a
        assert float(np.max(dots)) <= 1e-12
        assert abs(float(cert.dual @ b) - cert.margin) < 1e-12

    def test_product_state_feasible(self, report_08_02):
        product = hw.basis_state([2, 2], (0, 0))
        table = hw.joint_table(product, report_08_02.construction)
        cert = hw.certify(table)
        assert cert.feasible
        keys, strategies, a, b = _constraint_system(table)
        assert np.max(np.abs(a[:-1] @ cert.weights - b[:-1])) < 1e-8

    def test_deterministic_product_state_single_strategy(self):
        # observables act on levels {0, 1}; the |22> state always lands in
        # the outcome-0 bins, so a single deterministic strategy suffices
        w = [0.8, 0.5, 0.11**0.5]
        amps = np.zeros(9, dtype=complex)
        amps[0], amps[4], amps[8] = w
        v = hw.make_state([3, 3], amps)
        d = hw.schmidt_decompose(v, SPLIT)
        con = hw.build_construction(d, (0, 1))
        table = hw.joint_table(hw.basis_state([3, 3], (2, 2)), con)
        cert = hw.certify(table)
        assert cert.feasible
        big = [w for w in cert.weights if w > 1e-9]
        assert len(big) == 1 and abs(big[0] - 1.0) < 1e-8
        k = int(np.argmax(cert.weights))
        assert cert.strategies[k].assignments == ((0, 0), (0, 0))

    def test_maximally_entangled_degenerate_pair_feasible(self):
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        d = hw.schmidt_decompose(bell, SPLIT)
        con = hw.build_construction(d, (0, 1), allow_degenerate=True)
        cert = hw.certify(hw.joint_table(bell, con))
        assert cert.feasible

    def test_suite_states_all_infeasible(self, witness_suite):
        for _, report in witness_suite[:10]:
            cert = hw.certify(report.table)
            assert not cert.feasible

    def test_relabeling_invariance(self, report_08_02):
        table = report_08_02.table
        relabel = {1: -1, -1: 0, 0: 1}
        entries = {
            (choice, (relabel[o1], relabel[o2])): p
            for (choice, (o1, o2)), p in table.entries.items()
        }
        permuted = JointProbabilityTable(
            table.party_settings, table.party_outcomes,
            [entries[key] for key in table.ordered_keys()],
        )
        cert = hw.certify(permuted)
        assert not cert.feasible
        assert cert.margin > 1e-9


class TestCertifyMultipartite:
    def test_tripartite_example_infeasible(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example)
        table = hw.multipartite_table(tripartite_example, w)
        cert = hw.certify(table)
        assert not cert.feasible
        assert cert.margin > 1e-9

    def test_product_statistics_feasible(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example)
        product = hw.basis_state([3, 3, 2], (0, 1, 0))
        table = hw.multipartite_table(product, w)
        cert = hw.certify(table)
        assert cert.feasible


class TestContradictionTrace:
    def test_all_plus_violates_first_condition(self, report_08_02):
        trace = hw.verify_no_deterministic_model(report_08_02.hardy_measured)
        by_assignment = {r.strategy.assignments: r for r in trace.rows}
        # X1=+1, Y1=+1, X2=+1, Y2=+1
        row = by_assignment[((1, 1), (1, 1))]
        assert ZERO_CONDITIONS[0].label in row.violated
        assert row.region == "C"
        # X1=+1, Y1=+1, X2=-1, Y2=+1
        row = by_assignment[((1, 1), (-1, 1))]
        assert ZERO_CONDITIONS[1].label in row.violated
        assert row.region == "B"

    def test_every_targeting_strategy_violated(self, report_08_02):
        trace = hw.verify_no_deterministic_model(report_08_02.hardy_measured)
        assert trace.contradiction
        assert len(trace.rows) == 81
        assert trace.n_targeting == 9
        assert trace.n_surviving_targeting == 0
        for row in trace.rows:
            if row.targets_flagged:
                assert row.violated

    def test_regions_partition_strategies(self, report_08_02):
        trace = hw.verify_no_deterministic_model(report_08_02.hardy_measured)
        counts = {"A": 0, "B": 0, "C": 0}
        for row in trace.rows:
            counts[row.region] += 1
        # X1 != +1: 2*3*3*3 = 54; X1 = +1, X2 != +1: 3*2*3*... = 18; rest 9
        assert counts == {"A": 54, "B": 18, "C": 9}

    def test_no_contradiction_when_flagged_value_zero(self):
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        d = hw.schmidt_decompose(bell, SPLIT)
        con = hw.build_construction(d, (0, 1), allow_degenerate=True)
        table = hw.joint_table(bell, con)
        flagged_value = table.prob(FLAGGED_CONDITION.settings, FLAGGED_CONDITION.outcomes)
        trace = hw.verify_no_deterministic_model(flagged_value)
        assert not trace.contradiction
        assert trace.n_surviving_targeting == 0  # the logic is state-independent


class TestIdealizedAgreement:
    def test_agreement_on_applicable_state(self, report_08_02):
        trace = hw.verify_no_deterministic_model(report_08_02.hardy_measured)
        ideal = hw.idealized_table(report_08_02.table)
        for cond in ZERO_CONDITIONS:
            assert ideal.prob(cond.settings, cond.outcomes) == 0.0
        cert = hw.certify(ideal)
        assert trace.contradiction == (not cert.feasible) == True  # noqa: E712

    def test_agreement_on_degenerate_case(self):
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        d = hw.schmidt_decompose(bell, SPLIT)
        con = hw.build_construction(d, (0, 1), allow_degenerate=True)
        table = hw.joint_table(bell, con)
        flagged_value = table.prob(FLAGGED_CONDITION.settings, FLAGGED_CONDITION.outcomes)
        trace = hw.verify_no_deterministic_model(flagged_value)
        cert = hw.certify(hw.idealized_table(table))
        assert trace.contradiction == (not cert.feasible) == False  # noqa: E712
