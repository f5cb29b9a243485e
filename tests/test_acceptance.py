"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

import hardywitness as hw
from hardywitness.hardy import FLAGGED_CONDITION, ZERO_CONDITIONS

from conftest import apply_side1_unitary, random_unitary

SPLIT = hw.Bipartition((0,), (1,))


@contextmanager
def criterion(number, text):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {text}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS - {text} ({elapsed:.2f}s)")


def test_criterion_1_flagged_probability_closed_form():
    with criterion(1, "measured flagged probability equals 4/45 closed form"):
        started = time.perf_counter()
        v = hw.make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5])
        report = hw.make_witness_report(v, SPLIT)
        assert abs(report.hardy_measured - 4 / 45) < 1e-9
        assert abs(report.hardy_closed_form - 4 / 45) < 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_2_zero_conditions_on_randomized_suite(witness_suite):
    with criterion(2, "five zero conditions < 1e-10 on 100 randomized states"):
        started = time.perf_counter()
        fresh = [
            hw.make_witness_report(v, report.split) for v, report in witness_suite
        ]
        assert len(fresh) == 100
        for report in fresh:
            assert report.applicable
            for c in report.zero_values:
                assert c.value < 1e-10
        assert time.perf_counter() - started < 30.0


def test_criterion_3_equivalent_decompositions(witness_suite):
    with criterion(3, "three equivalent expansions reproduce every state < 1e-9"):
        for v, report in witness_suite:
            residuals = hw.verify_equivalent_decompositions(v, report.construction)
            assert max(residuals) < 1e-9
            assert max(report.residuals) < 1e-9


def _independent_strategy_columns(keys):
    """Strategy probability vectors built from scratch (no lhv internals)."""
    labels = ("X1", "Y1", "X2", "Y2")
    columns = []
    for combo in itertools.product((1, -1, 0), repeat=4):
        assignment = dict(zip(labels, combo))
        column = [
            1.0
            if assignment[s1] == o1 and assignment[s2] == o2
            else 0.0
            for (s1, s2), (o1, o2) in keys
        ]
        column.append(1.0)  # normalization component
        columns.append(column)
    return np.array(columns).T


def test_criterion_4_lhv_impossibility(witness_suite):
    with criterion(4, "LP infeasibility with verified Farkas duals on the suite"):
        started = time.perf_counter()
        for v, report in witness_suite:
            cert = hw.certify(report.table)
            assert not cert.feasible
            keys = list(report.table.ordered_keys())
            a = _independent_strategy_columns(keys)
            dots = cert.dual @ a
            assert float(np.max(dots)) <= 1e-12
            b = np.array([report.table.entries[k] for k in keys] + [1.0])
            assert float(cert.dual @ b) > 1e-9
            # the paper's own inequality, against the same independent columns
            paper = hw.paper_inequality(report.table)
            assert paper is not None
            assert float(np.max(paper.dual @ a)) == 0.0
            assert float(paper.dual @ b) > 1e-9
        assert time.perf_counter() - started < 10.0


def test_criterion_5_exclusion_cases():
    with criterion(5, "equal-weight exclusions report NotApplicable; p1=p2 is local"):
        bell = hw.make_state([2, 2], [1, 0, 0, 1])
        assert not hw.make_witness_report(bell, SPLIT).applicable
        ghz3 = hw.ghz_state(3)
        assert not hw.multipartite_witness(ghz3).applicable
        for split in (hw.Bipartition((0,), (1, 2)), hw.Bipartition((0, 1), (2,))):
            assert not hw.make_witness_report(ghz3, split).applicable
        assert not hw.multipartite_witness(hw.ghz_state(4)).applicable
        d = hw.schmidt_decompose(bell, SPLIT)
        construction = hw.build_construction(d, (0, 1), allow_degenerate=True)
        # equal weights force the y bases onto the swapped x bases
        for side in "12":
            x, y = construction.observable("X" + side), construction.observable("Y" + side)
            assert np.array_equal(y.vector(1), x.vector(-1))
            assert np.array_equal(y.vector(-1), x.vector(1))
        cert = hw.certify(hw.joint_table(bell, construction))
        assert cert.feasible


def test_criterion_6_multipartite_combined_probability(tripartite_example):
    with criterion(6, "tripartite combined probability equals 2/45"):
        started = time.perf_counter()
        witness = hw.multipartite_witness(tripartite_example)
        assert witness.applicable
        assert abs(witness.combined_probability - 2 / 45) < 1e-9
        flagged = witness.conditions[-1]
        assert abs(flagged.value - 2 / 45) < 1e-9
        # independent direct evaluation on the full state
        construction = witness.final_report.construction
        tau = witness.steps[0].observable.vector(witness.steps[0].marked_eigenvalue)
        psi = tripartite_example.amps.reshape(3, 3, 2)
        amp = np.einsum(
            "i,j,k,ijk->",
            construction.observable("Y1").vector(1).conj(),
            construction.observable("Y2").vector(1).conj(),
            tau.conj(),
            psi,
        )
        assert abs(abs(amp) ** 2 - 2 / 45) < 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_7_two_qubit_maximum_scan():
    with criterion(7, "grid scan reports the two-qubit maximum 0.090170"):
        started = time.perf_counter()
        _, best = hw.max_hardy_probability_qubit(10**6)
        assert abs(best - 0.090170) <= 1e-5
        analytic = (5 * math.sqrt(5.0) - 11.0) / 2.0
        assert abs(best - analytic) < 1e-10
        assert time.perf_counter() - started < 10.0


def test_criterion_8_sampling_consistency():
    with criterion(8, "1e5 shots at seed 42 match the flagged value within 4 sigma"):
        started = time.perf_counter()
        v = hw.make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5])
        report = hw.make_witness_report(v, SPLIT)
        records = hw.sample_from_table(hw.joint_table(v, report.construction), 100000, 42)
        flagged_hits = 0
        flagged_shots = 0
        zero_hits = 0
        zero_keys = {(c.settings, c.outcomes) for c in ZERO_CONDITIONS}
        for r in records:
            key = ((r.setting1, r.setting2), (r.outcome1, r.outcome2))
            if key in zero_keys:
                zero_hits += 1
            if key[0] == FLAGGED_CONDITION.settings:
                flagged_shots += 1
                if key[1] == FLAGGED_CONDITION.outcomes:
                    flagged_hits += 1
        assert zero_hits == 0
        assert abs(flagged_hits / flagged_shots - 4 / 45) <= 0.0036
        assert time.perf_counter() - started < 5.0


def test_criterion_9_schmidt_against_brute_force_oracle(witness_suite):
    with criterion(9, "weights match the brute-force Gram eigen-oracle; unitary invariant"):
        for v, report in witness_suite:
            d = hw.schmidt_decompose(v, report.split)
            m = hw.reshape_bipartite(v, report.split)
            gram = m @ m.conj().T
            oracle = np.sqrt(np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None))
            assert np.max(np.abs(d.weights - oracle[: d.rank])) < 1e-9
            if oracle.size > d.rank:
                # exact zeros are only resolvable to sqrt(Gram noise) by
                # either Gram-based route
                assert np.max(oracle[d.rank :]) < 1e-6
            # stronger cross-check: the full spectrum (dropped weights are
            # zeros) against an independent two-sided SVD
            svd = np.linalg.svd(m, compute_uv=False)
            padded = np.zeros(svd.size)
            padded[: d.rank] = d.weights
            assert np.max(np.abs(padded - svd)) < 1e-9
        rng = np.random.default_rng(777)
        for v, report in witness_suite[:20]:
            d1 = hw.schmidt_decompose(v, report.split)
            u = random_unitary(rng, d1.left_vectors.shape[0])
            rotated = apply_side1_unitary(v, report.split, u)
            d2 = hw.schmidt_decompose(rotated, report.split)
            assert d1.rank == d2.rank
            assert np.max(np.abs(d1.weights - d2.weights)) < 1e-9
