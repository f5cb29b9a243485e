"""Witness and certification with multi-subsystem bipartition sides."""

import numpy as np

import hardywitness as hw

from conftest import random_state


def test_grouped_side_witness_applicable_and_certified():
    rng = np.random.default_rng(1234)
    hits = 0
    for _ in range(5):
        v = random_state(rng, (2, 3, 2))
        split = hw.Bipartition((0, 2), (1,))
        report = hw.make_witness_report(v, split)
        if not report.applicable:
            continue
        hits += 1
        for c in report.zero_values:
            assert c.value < 1e-10
        assert abs(report.hardy_measured - report.hardy_closed_form) < 1e-9
        assert max(hw.verify_equivalent_decompositions(v, report.construction)) < 1e-9
        cert = hw.certify(report.table)
        assert not cert.feasible
    assert hits >= 3


def test_grouped_side_order_changes_reshape_not_weights():
    rng = np.random.default_rng(4321)
    v = random_state(rng, (2, 2, 3))
    a = hw.schmidt_decompose(v, hw.Bipartition((0, 1), (2,)))
    b = hw.schmidt_decompose(v, hw.Bipartition((1, 0), (2,)))
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-10)
    m_a = hw.reshape_bipartite(v, hw.Bipartition((0, 1), (2,)))
    m_b = hw.reshape_bipartite(v, hw.Bipartition((1, 0), (2,)))
    assert not np.array_equal(m_a, m_b)  # listed order fixes the flattening


def test_product_states_are_always_feasible():
    # statistics of a product state are local under any observables
    rng = np.random.default_rng(888)
    base = random_state(rng, (3, 3))
    report = hw.make_witness_report(base, hw.Bipartition((0,), (1,)))
    assert report.applicable
    for _ in range(10):
        left = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        right = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        product = hw.make_state([3, 3], np.kron(left, right))
        table = hw.joint_table(product, report.construction)
        cert = hw.certify(table)
        assert cert.feasible
        assert hw.paper_inequality(table) is None


def test_idealized_agreement_across_suite(witness_suite):
    for _, report in witness_suite[:10]:
        ideal = hw.idealized_table(report.table)
        paper = hw.paper_inequality(ideal)
        assert (paper is not None) == (not hw.certify(ideal).feasible) == True  # noqa: E712
        assert paper.margin == report.hardy_measured
