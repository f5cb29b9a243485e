import hashlib
import itertools
import math
from fractions import Fraction
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hardywitness as hw
from hardywitness import lhv
from hardywitness.errors import TooLarge
from hardywitness.hardy import (
    CLOSED_FORM_TOL,
    FLAGGED_CONDITION,
    ZERO_CONDITIONS,
    JointProbabilityTable,
)
from hardywitness.lhv import (
    DUAL_SLACK_TOL,
    MIN_MARGIN,
    MIXTURE_TOL,
    STRATEGY_CAP,
    _constraint_system,
)

from conftest import random_state, random_unitary

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

    @pytest.mark.parametrize("counts", [[1.5, 1], [1.0, 1], ["1", 1]])
    def test_non_integer_setting_counts_rejected(self, counts):
        # 1.5 used to be truncated to 1 (4 strategies)
        with pytest.raises(ValueError, match="setting counts must be integers"):
            hw.enumerate_strategies(counts, [(1, -1), (1, -1)])

    def test_numpy_integer_setting_counts(self):
        assert len(hw.enumerate_strategies(np.array([2, 1]), [(1, -1), (1, -1)])) == 8

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


class TestStrategySpace:
    @settings(max_examples=60, deadline=None)
    @given(table_shapes())
    def test_matches_product_enumeration(self, shape):
        party_settings, party_outcomes = shape
        # the tuple of strategy objects that the space replaced, as the oracle
        per_party = [
            tuple(itertools.product(outs, repeat=len(labels)))
            for labels, outs in zip(party_settings, party_outcomes)
        ]
        oracle = [hw.DeterministicStrategy(a) for a in itertools.product(*per_party)]
        space = hw.enumerate_strategies([len(s) for s in party_settings], party_outcomes)
        assert len(space) == len(oracle)
        assert list(space) == oracle
        for k, strategy in enumerate(oracle):
            assert space[k] == strategy
            assert space[k - len(space)] == strategy
        with pytest.raises(IndexError):
            space[len(space)]
        with pytest.raises(TypeError):
            space[0:1]


    @settings(max_examples=60, deadline=None)
    @given(table_shapes())
    def test_iteration_matches_indexing(self, shape):
        party_settings, party_outcomes = shape
        space = hw.enumerate_strategies([len(s) for s in party_settings], party_outcomes)
        assert [s.assignments for s in space] == [
            space[k].assignments for k in range(len(space))
        ]


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
        strategies = hw.strategies_for_table(table)
        a, b = _constraint_system(table, strategies)
        assert table.ordered_keys() == keys
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


def _refuse_strategy(*args):
    raise AssertionError("a strategy object was built")


def _with_one_setting_parties(two, extra):
    """A two-party table times ``extra`` one-setting parties answering 1 or 0."""
    probs = two.probs
    for _ in range(extra):
        probs = np.multiply.outer(probs, [0.3, 0.7])
    return JointProbabilityTable(
        two.party_settings + tuple((f"T{k}",) for k in range(3, 3 + extra)),
        two.party_outcomes + ((1, 0),) * extra,
        probs,
    )


class TestOneEnumeration:
    def test_constraint_system_builds_no_strategy(self, report_08_02, monkeypatch):
        monkeypatch.setattr(lhv, "DeterministicStrategy", _refuse_strategy)
        table = report_08_02.table
        a, b = _constraint_system(table, hw.strategies_for_table(table))
        assert a.shape == (37, 81) and b.shape == (37,)

    def test_certify_builds_no_strategy(self, report_08_02, tripartite_example, monkeypatch):
        two = report_08_02.table
        tables = [
            two,
            hw.multipartite_table(tripartite_example, hw.multipartite_witness(tripartite_example)),
            _with_one_setting_parties(two, 8),
        ]
        monkeypatch.setattr(lhv, "DeterministicStrategy", _refuse_strategy)
        for table in tables:
            assert not hw.certify(table).feasible

    def test_certify_enumerates_once(self, report_08_02, tripartite_example, monkeypatch):
        """One strategy space per certify: the core LP reads the table's space."""
        witness = hw.multipartite_witness(tripartite_example)
        tripartite = hw.multipartite_table(tripartite_example, witness)
        calls = []
        enumerate_strategies = lhv.enumerate_strategies
        monkeypatch.setattr(
            lhv, "enumerate_strategies", lambda *a: calls.append(a) or enumerate_strategies(*a)
        )
        hw.certify(report_08_02.table)
        assert len(calls) == 1
        hw.certify(tripartite)
        assert len(calls) == 2


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
        table = tables[name]()
        a, b = _constraint_system(table, hw.strategies_for_table(table))
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
        table = report_08_02.table
        a, b = _constraint_system(table, hw.strategies_for_table(table))
        dots = cert.dual @ a
        assert float(np.max(dots)) <= 1e-12
        assert abs(float(cert.dual @ b) - cert.margin) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected_before_any_lp(self, report_08_02, bad, monkeypatch):
        table = report_08_02.table
        probs = table.probs.copy()
        probs[0, 0, 0, 1] = bad
        broken = JointProbabilityTable(table.party_settings, table.party_outcomes, probs)

        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(lhv, "solve_equality_feasibility", no_lp)
        with pytest.raises(ValueError, match="non-finite"):
            hw.certify(broken)

    def test_product_state_feasible(self, report_08_02):
        product = hw.basis_state([2, 2], (0, 0))
        table = hw.joint_table(product, report_08_02.construction)
        cert = hw.certify(table)
        assert cert.feasible
        a, b = _constraint_system(table, hw.strategies_for_table(table))
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


def _permuted(table, order):
    """The same table with its parties listed in ``order``."""
    n = table.n_parties
    return JointProbabilityTable(
        tuple(table.party_settings[p] for p in order),
        tuple(table.party_outcomes[p] for p in order),
        table.probs.transpose(list(order) + [n + p for p in order]),
    )


def _random_product_state(rng, dims):
    v = np.ones(1)
    for d in dims:
        v = np.kron(v, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return hw.make_state(dims, v)


def _sliced_tables():
    """Seeded multipartite tables, infeasible and feasible, 3 to 6 parties.

    Each state's table is paired with the table of a random product state
    measured with the same witness observables, which a local model
    reproduces.  Two cases list a single-setting party first, and in the
    last one the first slice is empty, so the second slice decides.
    """
    rng = np.random.default_rng(20261018)
    cases = []
    for dims in ([2, 2, 2], [3, 3, 2], [2, 2, 2, 2], [2, 3, 2, 2], [2] * 5, [2] * 6):
        v = random_state(rng, dims)
        w = hw.multipartite_witness(v)
        assert w.applicable
        cases.append((f"{dims}", hw.multipartite_table(v, w)))
        product = _random_product_state(rng, dims)
        cases.append((f"{dims}-product", hw.multipartite_table(product, w)))
    _, table4 = cases[4]
    _, product4 = cases[5]
    cases.append(("[2, 2, 2, 2]-peeled-first", _permuted(table4, (3, 0, 2, 1))))
    cases.append(("[2, 2, 2, 2]-product-peeled-first", _permuted(product4, (2, 1, 3, 0))))
    two = hw.make_witness_report(
        hw.make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5]), SPLIT
    ).table
    cases.append((
        "0.8/0.2-then-certain-outcome",
        JointProbabilityTable(
            two.party_settings + (("T3",),),
            two.party_outcomes + ((1, 0),),
            np.multiply.outer(two.probs, [0.0, 1.0]),
        ),
    ))
    return cases


SLICED_TABLES = _sliced_tables()


class TestCertifySlices:
    """The sliced certificate against the dense LP of the whole table."""

    @pytest.mark.parametrize(
        "table", [t for _, t in SLICED_TABLES], ids=[name for name, _ in SLICED_TABLES]
    )
    def test_matches_dense_system(self, table):
        cert = hw.certify(table)
        keys, strategies = tuple(table.ordered_keys()), hw.strategies_for_table(table)
        a, b = _constraint_system(table, strategies)
        dense = hw.solve_equality_feasibility(a, b)
        assert cert.feasible == dense.feasible
        assert list(cert.strategies) == list(strategies)
        assert cert.entry_keys == keys
        if cert.feasible:
            assert cert.weights.shape == (len(strategies),)
            assert cert.weights.min() >= 0.0
            assert abs(cert.weights.sum() - 1.0) < 1e-12
            assert np.max(np.abs(a[:-1] @ cert.weights - b[:-1])) <= MIXTURE_TOL
            return
        dots = cert.dual @ a  # one dot per full strategy column
        assert dots.max() <= DUAL_SLACK_TOL
        assert cert.dual @ b >= MIN_MARGIN
        assert abs(cert.dual @ b - cert.margin) < 1e-12
        assert abs(dots.max() - cert.max_strategy_dot) < 1e-12
        assert cert.dual[-1] == 0.0
        # the dual covers one slice: every entry it weighs shows the same
        # outcomes on the single-setting parties
        single = [p for p, labels in enumerate(table.party_settings) if len(labels) == 1]
        weighed = {
            tuple(outcomes[p] for p in single)
            for (_, outcomes), y in zip(keys, cert.dual[:-1])
            if y != 0.0
        }
        assert len(weighed) == 1

    @pytest.mark.parametrize(
        "scale", [1.1, 0.9, 1 + 1e-6, None],
        ids=["x1.1", "x0.9", "x(1+1e-6)", "negative-first-slice"],
    )
    def test_invalid_table_matches_dense_system(self, scale):
        """Tables that are not probability tables get the dense verdict too.

        A scaled feasible table passes every slice LP, and only the dropped
        normalization row separates it; a first slice of negative entries
        decides with a dual whose own columns all dot below 0, while the
        other slice's strategies dot exactly 0.
        """
        if scale is not None:
            _, product = SLICED_TABLES[3]  # a feasible [3, 3, 2] table
            settings, outcomes = product.party_settings, product.party_outcomes
            probs = product.probs * scale
        else:
            two = SLICED_TABLES[-1][1]
            settings, outcomes = two.party_settings, two.party_outcomes
            probs = two.probs.copy()
            probs[..., 0] = -0.01
            probs[..., 1] += 0.01
        table = JointProbabilityTable(settings, outcomes, probs)
        cert = hw.certify(table)
        a, b = _constraint_system(table, hw.strategies_for_table(table))
        assert not hw.solve_equality_feasibility(a, b).feasible
        assert not cert.feasible
        dots = cert.dual @ a
        assert dots.max() <= DUAL_SLACK_TOL
        assert abs(dots.max() - cert.max_strategy_dot) < 1e-12
        assert cert.dual @ b >= MIN_MARGIN
        assert abs(cert.dual @ b - cert.margin) < 1e-12

    def test_every_case_kind_present(self):
        verdicts = [hw.certify(t).feasible for _, t in SLICED_TABLES]
        assert verdicts.count(True) == 7 and verdicts.count(False) == 8
        assert len(SLICED_TABLES[-2][1].party_settings[0]) == 1

    def test_ten_parties_in_bounded_memory(self, report_08_02):
        """0.8/0.2 table times 8 one-setting parties: the dense system is ~1.5 GB."""
        two = report_08_02.table
        table = _with_one_setting_parties(two, 8)
        start = time.perf_counter()
        hw.certify(table)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            cert = hw.certify(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 64 * 2**20
        assert not cert.feasible and cert.margin >= MIN_MARGIN
        assert len(cert.strategies) == 81 * 2**8
        assert cert.dual.shape == (table.probs.size + 1,)
        # the first slice (every extra party answers 1) already violates;
        # its dual re-verifies against the two-party columns
        y = cert.dual[:-1].reshape(table.probs.shape)[(..., *[0] * 8)].ravel()
        assert np.count_nonzero(cert.dual) == np.count_nonzero(y)
        a2, _ = _constraint_system(two, hw.strategies_for_table(two))
        assert float((y @ a2[:-1]).max()) <= DUAL_SLACK_TOL

    def test_fourteen_parties_in_bounded_memory(self, report_08_02):
        """81 * 2**12 = 331 776 full strategies, none of them held as an object,
        and no list of the 147 456 entry keys."""
        table = _with_one_setting_parties(report_08_02.table, 12)
        tracemalloc.start()
        try:
            cert = hw.certify(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert not cert.feasible and cert.margin >= MIN_MARGIN
        assert len(cert.strategies) == 81 * 2**12
        assert cert.dual.shape == (table.probs.size + 1,)

    def test_strategy_cap_before_large_allocation(self, report_08_02):
        two = report_08_02.table
        extra = 14  # 81 * 2**14 strategies exceed the cap
        assert 81 * 2**extra > STRATEGY_CAP
        probs = two.probs
        for _ in range(extra):
            probs = np.multiply.outer(probs, [0.5, 0.5])
        table = JointProbabilityTable(
            two.party_settings + tuple((f"T{k}",) for k in range(extra)),
            two.party_outcomes + ((1, 0),) * extra,
            probs,
        )
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                hw.certify(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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


    def test_multipartite_table_rejected_with_a_named_requirement(self, tripartite_example):
        # used to fail inside JointProbabilityTable.index: "tuple.index(x): x not in tuple"
        table = hw.multipartite_table(
            tripartite_example, hw.multipartite_witness(tripartite_example)
        )
        with pytest.raises(ValueError, match="idealizing needs a two-party construction "
                           r"table .*, got 3 parties with settings"):
            hw.idealized_table(table)


def _prescribed_weights_table(d):
    """Table of the report on U diag(w) V^T, w distinct and decreasing."""
    rng = np.random.default_rng(700 + d)
    w = np.sort(rng.uniform(0.1, 1.0, d))[::-1]
    m = random_unitary(rng, d) @ np.diag(w / np.linalg.norm(w)) @ random_unitary(rng, d).T
    report = hw.make_witness_report(hw.make_state([d, d], m.ravel()), SPLIT)
    assert report.applicable
    return report.table, report.hardy_closed_form, ()


def _multipartite_case(v):
    w = hw.multipartite_witness(v)
    assert w.applicable
    return (
        hw.multipartite_table(v, w),
        w.combined_probability,
        tuple(s.marked_eigenvalue for s in w.steps),
    )


def _paper_cases():
    rng = np.random.default_rng(20261020)
    cases = {f"bipartite_d{d}": lambda d=d: _prescribed_weights_table(d) for d in range(2, 17)}
    for n in (3, 4, 5):
        v = random_state(rng, [2] * n)
        cases[f"qubits{n}"] = lambda v=v: _multipartite_case(v)
    v = random_state(rng, [3, 3, 3])
    cases["qutrits3"] = lambda v=v: _multipartite_case(v)
    return cases


PAPER_CASES = _paper_cases()


class TestPaperInequality:
    """The paper's argument as an exact Farkas vector on each construction table.

    +1 on the flagged entry and -1 on the five zero-condition entries, each
    widened by the peeled parties' marked outcomes: every deterministic local
    strategy that produces the flagged outcome breaks a zero condition, so the
    vector's dot with every 0/1 strategy column is at most 0, while its value
    on the table is the flagged probability minus the zero entries.
    """

    @pytest.mark.parametrize("name", list(PAPER_CASES) + ["tripartite_2_45"])
    def test_exact_inequality_and_margin(self, name, tripartite_example):
        if name == "tripartite_2_45":
            table, expected, marked = _multipartite_case(tripartite_example)
        else:
            table, expected, marked = PAPER_CASES[name]()
        peeled = tuple(labels[0] for labels in table.party_settings[2:])
        assert len(peeled) == len(marked)
        y = np.zeros(table.probs.size, dtype=np.int64)
        entries = []
        for c, sign in [(FLAGGED_CONDITION, 1)] + [(c, -1) for c in ZERO_CONDITIONS]:
            k = np.ravel_multi_index(
                table.index(c.settings + peeled, c.outcomes + marked), table.probs.shape
            )
            y[k] = sign
            entries.append((sign, float(table.probs.ravel()[k])))
        a, _ = _constraint_system(table, hw.strategies_for_table(table))
        columns = a[:-1].astype(np.int64)
        assert np.array_equal(columns, a[:-1])  # 0/1 columns, exactly
        assert (y @ columns).max() <= 0
        margin = sum(sign * Fraction(x) for sign, x in entries)
        assert margin > 0
        assert abs(margin - Fraction(expected)) <= CLOSED_FORM_TOL
        assert not hw.certify(table).feasible
