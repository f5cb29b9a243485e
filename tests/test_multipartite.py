import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardywitness as hw

from conftest import random_state


class TestPeel:
    def test_already_peeled_form(self):
        # sqrt(.5) phi1 |0> + sqrt(.5) phi2 |1> with orthogonal phi1, phi2
        phi1 = np.zeros(4, complex)
        phi1[0] = 0.6
        phi1[3] = 0.8
        phi2 = np.zeros(4, complex)
        phi2[1] = 1.0
        amps = np.zeros(8, complex)
        for idx in range(4):
            amps[idx * 2 + 0] = 0.5**0.5 * phi1[idx]
            amps[idx * 2 + 1] = 0.5**0.5 * phi2[idx]
        v = hw.make_state([2, 2, 2], amps)
        branches = hw.peel(v, 2)
        assert len(branches) == 2
        assert_allclose([b.weight for b in branches], [0.5**0.5, 0.5**0.5], atol=1e-12)
        got = {tuple(np.round(np.abs(b.residual.amps), 6)) for b in branches}
        assert got == {(0.6, 0.0, 0.0, 0.8), (0.0, 1.0, 0.0, 0.0)}

    def test_ghz_branches_are_products(self):
        branches = hw.peel(hw.ghz_state(3), 2)
        assert_allclose([b.weight for b in branches], [2**-0.5, 2**-0.5], atol=1e-12)
        for b in branches:
            d = hw.schmidt_decompose(b.residual, hw.Bipartition((0,), (1,)))
            assert d.rank == 1

    def test_w_state(self):
        w = hw.make_state([2, 2, 2], [0, 1, 1, 0, 1, 0, 0, 0])
        branches = hw.peel(w, 2)
        assert_allclose(
            [b.weight for b in branches], [(2 / 3) ** 0.5, (1 / 3) ** 0.5], atol=1e-12
        )
        assert_allclose(
            np.abs(branches[0].residual.amps), [0, 2**-0.5, 2**-0.5, 0], atol=1e-12
        )
        assert_allclose(np.abs(branches[1].residual.amps), [1, 0, 0, 0], atol=1e-12)

    def test_needs_three_subsystems(self):
        v = hw.make_state([2, 2], [1, 0, 0, 1])
        with pytest.raises(ValueError):
            hw.peel(v, 1)


class TestSelectBranch:
    def test_forced_choice(self, tripartite_example):
        branches = hw.peel(tripartite_example, 2)
        assert hw.select_branch(branches) == 0

    def test_ghz_has_no_usable_branch(self):
        assert hw.select_branch(hw.peel(hw.ghz_state(3), 2)) is None

    def test_picks_larger_score(self):
        # equal q^2 = 0.5, different flagged probabilities per branch
        phi_a = np.zeros(9, complex)
        phi_a[0] = 0.98**0.5  # |00>
        phi_a[4] = 0.02**0.5  # |11>
        phi_b = np.zeros(9, complex)
        phi_b[1] = 0.6**0.5  # |01>
        phi_b[8] = 0.4**0.5  # |22>
        amps = np.zeros(18, complex)
        for idx in range(9):
            amps[idx * 2 + 0] = 0.5**0.5 * phi_a[idx]
            amps[idx * 2 + 1] = 0.5**0.5 * phi_b[idx]
        v = hw.make_state([3, 3, 2], amps)
        branches = hw.peel(v, 2)
        scores = []
        for b in branches:
            d = hw.schmidt_decompose(b.residual, hw.Bipartition((0,), (1,)))
            pairs = hw.distinct_weight_pairs(d)
            best = hw.hardy_probability(*d.weights[list(pairs[0])]) if pairs else -1.0
            scores.append(b.weight**2 * best)
        assert hw.select_branch(branches) == int(np.argmax(scores))


class TestTObservable:
    def test_labels_and_eigenvalues(self, tripartite_example):
        branches = hw.peel(tripartite_example, 2)
        obs = hw.build_t_observable(branches, 2)
        assert obs.label == "T3"
        assert obs.outcomes == (1, 2, 0)

    def test_marked_probability_is_weight_squared(self, tripartite_example):
        branches = hw.peel(tripartite_example, 2)
        obs = hw.build_t_observable(branches, 2)
        split = hw.Bipartition((2,), (0, 1))
        prob, _ = hw.apply_local_projector(
            tripartite_example, split, 1, obs.vector(1)
        )
        assert abs(prob - branches[0].weight ** 2) < 1e-10

    def test_single_branch_probability_one(self, state_08_02):
        amps = np.kron(state_08_02.amps, [1.0, 0.0])
        v = hw.make_state([2, 2, 2], amps)
        branches = hw.peel(v, 2)
        assert len(branches) == 1
        obs = hw.build_t_observable(branches, 2)
        split = hw.Bipartition((2,), (0, 1))
        prob, _ = hw.apply_local_projector(v, split, 1, obs.vector(1))
        assert abs(prob - 1.0) < 1e-12


class TestMultipartiteWitness:
    def test_tripartite_example(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example)
        assert w.applicable
        assert len(w.steps) == 1
        step = w.steps[0]
        assert step.subsystem == 2
        assert step.marked == 0
        assert step.marked_eigenvalue == 1
        assert abs(w.q_product - 0.5) < 1e-12
        assert abs(w.combined_probability - 2 / 45) < 1e-9
        flagged = w.conditions[-1]
        assert not flagged.expect_zero
        assert abs(flagged.measured - 2 / 45) < 1e-9
        for c in w.conditions[:-1]:
            assert c.expect_zero and c.measured < 1e-10

    def test_ghz3_not_applicable(self):
        w = hw.multipartite_witness(hw.ghz_state(3))
        assert not w.applicable

    def test_ghz4_not_applicable_even_exhaustive(self):
        w = hw.multipartite_witness(hw.ghz_state(4), exhaustive=True)
        assert not w.applicable

    def test_w_state_not_applicable(self):
        wst = hw.make_state([2, 2, 2], [0, 1, 1, 0, 1, 0, 0, 0])
        assert not hw.multipartite_witness(wst, exhaustive=True).applicable

    def test_product_factor_keeps_bipartite_value(self, state_08_02):
        amps = np.kron(state_08_02.amps, [1.0, 0.0])
        v = hw.make_state([2, 2, 2], amps)
        w = hw.multipartite_witness(v)
        assert w.applicable
        assert abs(w.q_product - 1.0) < 1e-12
        assert abs(w.combined_probability - 4 / 45) < 1e-9

    def test_exhaustive_at_least_default(self, tripartite_example):
        w1 = hw.multipartite_witness(tripartite_example)
        w2 = hw.multipartite_witness(tripartite_example, exhaustive=True)
        assert w2.applicable
        assert w2.combined_probability >= w1.combined_probability - 1e-12

    def test_exhaustive_rescues_bad_default_order(self, tripartite_example):
        # permuting the example so the entangled pair sits on subsystems (1, 3)
        # makes the default (peel subsystem 3) order fail, while exhaustive
        # search still finds the witness by peeling subsystem 2
        perm = np.transpose(
            tripartite_example.amps.reshape(3, 3, 2), (0, 2, 1)
        ).reshape(-1)
        v = hw.make_state([3, 2, 3], perm)
        w_default = hw.multipartite_witness(v)
        w_exhaustive = hw.multipartite_witness(v, exhaustive=True)
        assert w_exhaustive.applicable
        assert abs(w_exhaustive.combined_probability - 2 / 45) < 1e-9
        if w_default.applicable:
            assert w_default.combined_probability <= w_exhaustive.combined_probability

    def test_explicit_peel_order(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example, peel_order=(2,))
        assert w.applicable
        with pytest.raises(ValueError):
            hw.multipartite_witness(tripartite_example, peel_order=(0, 1))
        with pytest.raises(ValueError):
            hw.multipartite_witness(tripartite_example, peel_order=(5,))

    def test_combined_never_exceeds_bipartite_value(self):
        rng = np.random.default_rng(606)
        checked = 0
        for _ in range(10):
            v = random_state(rng, (2, 2, 2))
            w = hw.multipartite_witness(v)
            if not w.applicable:
                continue
            checked += 1
            assert (
                w.combined_probability
                <= w.final_report.hardy_closed_form + 1e-12
            )
        assert checked >= 5

    def test_needs_three_subsystems(self, state_08_02):
        with pytest.raises(ValueError):
            hw.multipartite_witness(state_08_02)

    def test_four_party_chain(self, state_08_02):
        # phi1 x |0> x |0> keeps the two-qubit value through two peels
        amps = np.kron(np.kron(state_08_02.amps, [1.0, 0.0]), [1.0, 0.0])
        v = hw.make_state([2, 2, 2, 2], amps)
        w = hw.multipartite_witness(v)
        assert w.applicable
        assert [s.subsystem for s in w.steps] == [3, 2]
        assert [s.observable.label for s in w.steps] == ["T4", "T3"]
        assert abs(w.combined_probability - 4 / 45) < 1e-9

    def test_four_party_branching_compounds_marked_weights(self, state_08_02):
        # psi = sqrt(.7) chi x |0> + sqrt(.3) |1111>, with
        # chi = sqrt(.6) phi1 x |0> + sqrt(.4) |011>; both dead branches are
        # products, so the combined value is 0.7 * 0.6 * (4/45)
        phi1 = state_08_02.amps
        chi = np.zeros(8, complex)
        chi[[0, 6]] = 0.6**0.5 * phi1[[0, 3]]  # |000>, |110>
        chi[3] = 0.4**0.5  # |011>
        amps = np.zeros(16, complex)
        amps[0::2] = 0.7**0.5 * chi
        amps[15] = 0.3**0.5  # |1111>
        v = hw.make_state([2, 2, 2, 2], amps)
        w = hw.multipartite_witness(v)
        assert w.applicable
        assert [s.subsystem for s in w.steps] == [3, 2]
        assert [s.marked for s in w.steps] == [0, 0]
        assert abs(w.q_product - 0.42) < 1e-12
        assert abs(w.combined_probability - 0.42 * 4 / 45) < 1e-9
        flagged = w.conditions[-1]
        assert abs(flagged.measured - 0.42 * 4 / 45) < 1e-9
        table = hw.multipartite_table(v, w)
        assert len(table.entries) == 4 * 3 * 3 * 2 * 2
        cert = hw.certify(table)
        assert not cert.feasible


class TestMultipartiteTable:
    def test_entry_count_and_invariants(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example)
        table = hw.multipartite_table(tripartite_example, w)
        # 2x2x1 setting choices, 3*3*2 outcome tuples
        assert len(table.entries) == 72
        table.check(1e-10)

    def test_flagged_entry_matches_combined(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example)
        table = hw.multipartite_table(tripartite_example, w)
        value = table.prob(("Y1", "Y2", "T3"), (1, 1, 1))
        assert abs(value - w.combined_probability) < 1e-9

    def test_rejects_not_applicable(self):
        w = hw.multipartite_witness(hw.ghz_state(3))
        with pytest.raises(ValueError):
            hw.multipartite_table(hw.ghz_state(3), w)
