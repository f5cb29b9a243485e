import dataclasses
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hardywitness as hw
from hardywitness.states import PROJECTION_FLOOR

from conftest import random_state, random_unitary


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
            pairs = hw.distinct_weight_pairs(d.weights)
            best = hw.hardy_probability(*d.weights[list(pairs[0])]) if pairs else -1.0
            scores.append(b.weight**2 * best)
        assert hw.multipartite_witness(v).steps[0].marked == int(np.argmax(scores))

    def test_equal_scores_keep_first_branch(self, monkeypatch, state_08_02):
        # same weight and residual: the scores are bit-equal, and the strict
        # ">" keeps the first branch
        from hardywitness import multipartite as mp

        v = hw.make_state([2, 2, 2], np.kron(state_08_02.amps, [1.0, 1.0]))
        q = 0.5**0.5
        branches = tuple(
            hw.PeelBranch(q, state_08_02, np.eye(2, dtype=complex)[k]) for k in range(2)
        )
        monkeypatch.setattr(mp, "peel", lambda *args: branches)
        assert hw.multipartite_witness(v).steps[0].marked == 0


class TestTObservable:
    def test_labels_and_eigenvalues(self, tripartite_example):
        branches = hw.peel(tripartite_example, 2)
        obs = hw.build_t_observable(branches, 2)
        assert obs.label == "T3"
        assert [o for o, _ in obs.outcome_vectors] == [1, 2]
        # the two branch vectors span the qubit, so the table has no outcome 0
        w = hw.multipartite_witness(tripartite_example)
        assert w.table.party_settings[2] == ("T3",)
        assert w.table.party_outcomes[2] == (1, 2)

    def test_marked_probability_is_weight_squared(self, tripartite_example):
        branches = hw.peel(tripartite_example, 2)
        obs = hw.build_t_observable(branches, 2)
        split = hw.Bipartition((2,), (0, 1))
        prob, _ = hw.apply_local_projector(
            tripartite_example, split, obs.vector(1)
        )
        assert abs(prob - branches[0].weight ** 2) < 1e-10

    def test_single_branch_probability_one(self, state_08_02):
        amps = np.kron(state_08_02.amps, [1.0, 0.0])
        v = hw.make_state([2, 2, 2], amps)
        branches = hw.peel(v, 2)
        assert len(branches) == 1
        obs = hw.build_t_observable(branches, 2)
        split = hw.Bipartition((2,), (0, 1))
        prob, _ = hw.apply_local_projector(v, split, obs.vector(1))
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
        assert flagged.condition.label == "P(Y1=+1, Y2=+1, T3=1)"
        assert not flagged.condition.expect_zero
        assert abs(flagged.value - 2 / 45) < 1e-9
        for c in w.conditions[:-1]:
            assert c.condition.expect_zero and c.value < 1e-10

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

    @pytest.mark.parametrize("order", [(3.7,), (2.0,), ("2",), (None,)])
    def test_non_integer_peel_order_rejected(self, tripartite_example, order):
        # 3.7 used to be truncated to party 3
        with pytest.raises(ValueError, match="peel order .* invalid for 3 subsystems"):
            hw.multipartite_witness(tripartite_example, peel_order=order)

    def test_numpy_integer_peel_order(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example, peel_order=(np.int64(2),))
        assert w.applicable and w.steps[0].subsystem == 2
        assert type(w.steps[0].subsystem) is int

    @pytest.mark.parametrize("value", [float("nan"), math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["eps_deg", "zero_tol"])
    def test_tolerances_must_be_finite_and_positive(self, tripartite_example, name, value):
        for exhaustive in (False, True):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                hw.multipartite_witness(tripartite_example, exhaustive=exhaustive, **{name: value})

    def test_leaf_report_uses_zero_tol(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example, zero_tol=1e-3)
        assert w.final_report.zero_tol == 1e-3
        assert all(c.within_tolerance for c in w.final_report.zero_values)

    def test_table_failing_check_raises_at_witness_time(self, monkeypatch, tripartite_example):
        from hardywitness import multipartite as mp

        walk = mp._chain_probabilities

        def off_by_1e6(*args):
            probs = walk(*args)
            # P(X1=+1, X2=+1, T3=1), a zero condition: marked, not raised
            probs[(0,) * probs.ndim] += 1e-6
            return probs

        monkeypatch.setattr(mp, "_chain_probabilities", off_by_1e6)
        with pytest.raises(hw.NumericalFailure, match="normalization"):
            hw.multipartite_witness(tripartite_example)

    def test_peel_order_with_exhaustive_rejected(self, tripartite_example):
        # an invalid order too: it used to be ignored, not validated
        for order in [(2,), (7,)]:
            with pytest.raises(ValueError, match="cannot be combined"):
                hw.multipartite_witness(tripartite_example, peel_order=order, exhaustive=True)

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
        assert abs(flagged.value - 0.42 * 4 / 45) < 1e-9
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
        table.check()

    def test_flagged_entry_matches_combined(self, tripartite_example):
        w = hw.multipartite_witness(tripartite_example)
        table = hw.multipartite_table(tripartite_example, w)
        value = table.prob(("Y1", "Y2", "T3"), (1, 1, 1))
        assert abs(value - w.combined_probability) < 1e-9

    def test_rejects_not_applicable(self):
        w = hw.multipartite_witness(hw.ghz_state(3))
        with pytest.raises(ValueError):
            hw.multipartite_table(hw.ghz_state(3), w)

    def test_rejects_a_witness_of_other_dims(self, tripartite_example):
        w = hw.multipartite_witness(random_state(np.random.default_rng(104), (2, 2, 2)))
        with pytest.raises(ValueError, match=r"dims \(2, 2, 2\) cannot tabulate dims \(3, 3, 2\)"):
            hw.multipartite_table(tripartite_example, w)

    def test_rejects_a_witness_of_another_state(self):
        w = hw.multipartite_witness(random_state(np.random.default_rng(104), (2, 2, 2)))
        other = random_state(np.random.default_rng(3), (2, 2, 2))
        with pytest.raises(ValueError, match="the witness is for another state"):
            hw.multipartite_table(other, w)

    def test_is_the_witness_own_table(self, tripartite_example, tmp_path):
        w = hw.multipartite_witness(tripartite_example)
        assert w.state is tripartite_example
        assert hw.multipartite_table(tripartite_example, w) is w.table
        path = tmp_path / "state.json"
        hw.dump_state(tripartite_example, path)
        # loading the same file twice gives equal bits
        w_loaded = hw.multipartite_witness(hw.load_state(path))
        assert hw.multipartite_table(hw.load_state(path), w_loaded) is w_loaded.table

    def test_rejects_a_renormalized_copy_with_other_bits(self):
        v = random_state(np.random.default_rng(103), (2, 2, 2))
        copy = hw.make_state(v.dims, v.amps)
        assert not np.array_equal(copy.amps, v.amps)
        with pytest.raises(ValueError, match="the witness is for another state"):
            hw.multipartite_table(copy, hw.multipartite_witness(v))

    def test_rejects_another_state_with_the_same_flagged_probability(self, tripartite_example):
        # |221> moved to |211>: the branch on T3 = 2 is still orthogonal to
        # the first, so the combined probability stays 2/45, yet the state
        # and its table differ
        amps = tripartite_example.amps.copy()
        amps[15], amps[17] = amps[17], 0
        moved = hw.make_state([3, 3, 2], amps)
        w = hw.multipartite_witness(tripartite_example)
        assert w.combined_probability == pytest.approx(2 / 45, abs=1e-12)
        assert hw.multipartite_witness(moved).combined_probability == pytest.approx(
            2 / 45, abs=1e-12
        )
        with pytest.raises(ValueError, match="the witness is for another state"):
            hw.multipartite_table(moved, w)


# --- the search against a per-order oracle, and its work counts ---

LEAF_SPLIT = hw.Bipartition((0,), (1,))


def _oracle_recurse(v, labels, order):
    """Per-order search that peels afresh and builds a full report per leaf."""
    if len(labels) == 2:
        report = hw.make_witness_report(v, LEAF_SPLIT)
        if not report.applicable:
            return None
        return (), report, 1.0, float(report.hardy_closed_form)
    target = order[0]
    branches = hw.peel(v, labels.index(target))
    rest = tuple(l for l in labels if l != target)
    best, best_score = None, -1.0
    for k, br in enumerate(branches):
        sub = _oracle_recurse(br.residual, rest, order[1:])
        if sub is not None and br.weight * br.weight * sub[3] > best_score:
            best, best_score = (k, br, sub), br.weight * br.weight * sub[3]
    if best is None:
        return None
    k, br, (steps, report, q_prod, combined) = best
    step = (target, k, tuple(b.weight for b in branches), br.particle_vector)
    q_sq = br.weight * br.weight
    return (step,) + steps, report, q_sq * q_prod, q_sq * combined


def _oracle_measured(v, steps, final, report, cond):
    """Chain-rule probability of one joint condition, projector by projector."""
    n = len(v.dims)
    projections = []
    for subsystem, label, outcome in zip(final, cond.settings, cond.outcomes):
        obs = report.construction.observable(label)
        if outcome == 0:
            projections.append((subsystem, hw.apply_local_complement, obs.marked_vectors()))
        else:
            projections.append((subsystem, hw.apply_local_projector, obs.vector(outcome)))
    projections += [(s[0], hw.apply_local_projector, s[3]) for s in steps]
    total, current = 1.0, v
    for subsystem, project, payload in projections:
        split = hw.Bipartition((subsystem,), tuple(k for k in range(n) if k != subsystem))
        prob, current = project(current, split, payload)
        total *= prob
        if current is None:
            break
    return total


def _oracle_witness(v, orders):
    labels = tuple(range(len(v.dims)))
    best, best_combined = None, -1.0
    for order in orders:
        result = _oracle_recurse(v, labels, order)
        if result is not None and result[3] > best_combined:
            best, best_combined = result, result[3]
    return best


def _assert_matches_oracle(v, witness, orders):
    best = _oracle_witness(v, orders)
    if best is None:
        assert not witness.applicable
        assert witness.reason == "no peeling branch leads to an applicable two-party test"
        return
    steps, report, q_product, combined = best
    assert witness.applicable and witness.reason is None
    assert witness.combined_probability == combined
    assert witness.q_product == q_product
    assert type(witness.combined_probability) is float and type(witness.q_product) is float
    got = [(s.subsystem, s.marked, s.weights) for s in witness.steps]
    assert got == [s[:3] for s in steps]
    assert witness.final_report.weights == report.weights
    assert witness.final_report.pair == report.pair
    assert witness.final_report.hardy_closed_form == report.hardy_closed_form
    peeled = {s[0] for s in steps}
    final = tuple(k for k in range(len(v.dims)) if k not in peeled)
    assert witness.final_subsystems == final
    expected = [
        _oracle_measured(v, steps, final, report, cond)
        for cond in hw.ZERO_CONDITIONS + (hw.FLAGGED_CONDITION,)
    ]
    assert [c.value for c in witness.conditions] == expected


def _w_state(n):
    amps = np.zeros(2**n, complex)
    amps[[2**k for k in range(n)]] = 1.0
    return hw.make_state([2] * n, amps)


def _oracle_grid():
    """Seeded states: generic, zeroed amplitudes, product factors, GHZ and W."""
    rng = np.random.default_rng(5150)
    cases = []
    for dims in [(2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 2), (3, 3, 3),
                 (2, 2, 2, 2), (3, 2, 2, 2), (2, 2, 3, 3), (2, 2, 2, 2, 2)]:
        cases.append((f"generic{dims}", random_state(rng, dims)))
        v = random_state(rng, dims)
        amps = np.where(rng.random(v.amps.size) < 0.4, 0, v.amps)
        amps[0] = 1.0
        cases.append((f"zeroed{dims}", hw.make_state(dims, amps)))
    for dims, slot in [((2, 3, 2), 1), ((3, 2, 2, 2), 0), ((2, 2, 2, 2, 2), 2)]:
        rest = dims[:slot] + dims[slot + 1:]
        factor = rng.standard_normal(dims[slot]) + 1j * rng.standard_normal(dims[slot])
        amps = np.kron(random_state(rng, rest).amps, factor)
        amps = np.moveaxis(amps.reshape(rest + (dims[slot],)), -1, slot).reshape(-1)
        cases.append((f"product{dims}@{slot}", hw.make_state(dims, amps)))
    # exact ties between peel orders: the first order in permutation order wins
    phi = hw.make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5]).amps
    cases.append(("tied_phi00", hw.make_state([2] * 4, np.kron(np.kron(phi, [1, 0]), [1, 0]))))
    cases.append(("tied_phiphi", hw.make_state([2] * 4, np.kron(phi, phi))))
    # applicable states whose residuals repeat bit for bit across peel orders
    cases.append(("phiphi0", hw.make_state([2] * 5, np.kron(np.kron(phi, phi), [1, 0]))))
    cases.append(("phi_w3", hw.make_state([2] * 5, np.kron(phi, _w_state(3).amps))))
    for n in (3, 4, 5):
        cases.append((f"ghz{n}", hw.ghz_state(n)))
        cases.append((f"w{n}", _w_state(n)))
    cases.append(("ghz3_dim3", hw.ghz_state(3, 3)))
    return cases


ORACLE_GRID = _oracle_grid()
# the old search builds up to 480 reports per 5-party exhaustive call, so one
# generic, one GHZ and one W state cover that size
EXHAUSTIVE_GRID = [
    c for c in ORACLE_GRID
    if len(c[1].dims) < 5 or not c[0].startswith(("zeroed", "product"))
]


class TestSearchMatchesOracle:
    @pytest.mark.parametrize("name,v", ORACLE_GRID, ids=[c[0] for c in ORACLE_GRID])
    def test_default_and_explicit_order(self, name, v):
        n = len(v.dims)
        default = tuple(range(n - 1, 1, -1))
        _assert_matches_oracle(v, hw.multipartite_witness(v), [default])
        order = tuple(np.random.default_rng(n).permutation(n)[: n - 2])
        order = tuple(int(k) for k in order)
        _assert_matches_oracle(v, hw.multipartite_witness(v, peel_order=order), [order])

    @pytest.mark.parametrize("name,v", EXHAUSTIVE_GRID, ids=[c[0] for c in EXHAUSTIVE_GRID])
    def test_exhaustive(self, name, v):
        n = len(v.dims)
        orders = list(itertools.permutations(range(n), n - 2))
        _assert_matches_oracle(v, hw.multipartite_witness(v, exhaustive=True), orders)


class TestSearchWorkCounts:
    @pytest.fixture()
    def counts(self, monkeypatch):
        from hardywitness import multipartite as mp

        calls = {"peel": 0, "report": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(mp, "peel", counted("peel", mp.peel))
        monkeypatch.setattr(mp, "make_witness_report", counted("report", mp.make_witness_report))
        return calls

    @pytest.fixture()
    def qubits5(self):
        return random_state(np.random.default_rng(77), (2,) * 5)

    def test_exhaustive_peels_each_prefix_once(self, counts, qubits5):
        w = hw.multipartite_witness(qubits5, exhaustive=True)
        assert w.applicable
        assert counts == {"peel": 54, "report": 1}

    def test_default_order(self, counts, qubits5):
        w = hw.multipartite_witness(qubits5)
        assert w.applicable
        assert counts == {"peel": 1 + 2 + 4, "report": 1}

    @pytest.mark.parametrize(
        "name, peels, reports", [("ghz5", 19, 0), ("w5", 22, 0), ("phiphi0", 22, 1)]
    )
    def test_exhaustive_peels_each_residual_once(self, counts, name, peels, reports):
        # every peel order reaches the same few residuals, bit for bit
        v = dict(ORACLE_GRID)[name]
        assert hw.multipartite_witness(v, exhaustive=True).applicable == bool(reports)
        assert counts == {"peel": peels, "report": reports}

    @pytest.mark.parametrize("name", ["generic(2, 2, 2, 2, 2)", "ghz5", "w5", "phiphi0"])
    def test_leaves_build_no_vectors(self, monkeypatch, counts, name):
        from hardywitness import hardy
        from hardywitness import multipartite as mp

        decomposed = []

        def counted(v, split, _fn=mp.schmidt_decompose):
            decomposed.append(len(v.dims))
            return _fn(v, split)

        monkeypatch.setattr(mp, "schmidt_decompose", counted)
        monkeypatch.setattr(hardy, "schmidt_decompose", counted)
        hw.multipartite_witness(dict(ORACLE_GRID)[name], exhaustive=True)
        # one decomposition per peel, and one two-party one for the report
        assert len(decomposed) == counts["peel"] + counts["report"]
        assert decomposed.count(2) == counts["report"]

    def test_single_order_searches_compute_no_cap(self, monkeypatch, qubits5):
        from hardywitness import multipartite as mp

        caps = []

        def counted(v, positions, _fn=mp.peel_chain_cap):
            caps.append(positions)
            return _fn(v, positions)

        monkeypatch.setattr(mp, "peel_chain_cap", counted)
        for _, v in ORACLE_GRID + [("qubits5", qubits5)]:
            n = len(v.dims)
            hw.multipartite_witness(v)
            hw.multipartite_witness(v, peel_order=tuple(range(n - 2)))
        assert caps == []
        assert hw.multipartite_witness(qubits5, exhaustive=True).applicable
        assert caps

    def test_orders_above_the_cap_raise_before_any_peel(self, counts):
        from hardywitness import multipartite as mp

        n = next(n for n in itertools.count(3) if math.perm(n, n - 2) > mp.ORDER_CAP)
        v = hw.make_state([2] * n, np.eye(1, 2**n)[0])
        tracemalloc.start()
        try:
            with pytest.raises(hw.TooLarge) as caught:
                hw.multipartite_witness(v, exhaustive=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == (
            f"{math.perm(n, n - 2)} peel orders exceed the cap of {mp.ORDER_CAP}"
        )
        assert counts["peel"] == 0
        assert peak < 2**16

    def test_orders_are_drawn_lazily(self, monkeypatch):
        from hardywitness import multipartite as mp

        class FirstPeel(Exception):
            pass

        def first_peel(*args):
            raise FirstPeel

        monkeypatch.setattr(mp, "peel", first_peel)
        v = hw.make_state([2] * 8, np.eye(1, 2**8)[0])
        tracemalloc.start()
        try:
            with pytest.raises(FirstPeel):
                hw.multipartite_witness(v, exhaustive=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 20 160 orders of 8 parties take about 1.9 MB as a list
        assert peak < 2**18


@st.composite
def cap_states(draw):
    """States of 3-5 parties with dims 2-3, some with zeroed amplitudes."""
    dims = draw(
        st.lists(st.integers(2, 3), min_size=3, max_size=5).filter(lambda d: math.prod(d) <= 48)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = random_state(rng, dims)
    if draw(st.booleans()):
        amps = np.where(rng.random(v.amps.size) < draw(st.sampled_from([0.3, 0.6])), 0, v.amps)
        amps[rng.integers(amps.size)] = 1.0
        v = hw.make_state(dims, amps)
    return v


def _best_chain(v, labels, order, peels):
    """Largest product of q^2 over every branch chain that peels ``order``."""
    if not order:
        return 1.0
    key = (labels, v.amps.tobytes(), order[0])
    if key not in peels:
        peels[key] = hw.peel(v, labels.index(order[0]))
    rest = tuple(l for l in labels if l != order[0])
    return max(
        br.weight * br.weight * _best_chain(br.residual, rest, order[1:], peels)
        for br in peels[key]
    )


class TestPeelChainCap:
    @settings(max_examples=60, deadline=None)
    @given(cap_states())
    def test_caps_every_chain_of_every_order(self, v):
        from hardywitness import multipartite as mp

        n = len(v.dims)
        labels = tuple(range(n))
        peels = {}
        for still in itertools.combinations(labels, n - 2):
            cap = mp.peel_chain_cap(v, still)
            for order in itertools.permutations(still):
                assert cap >= _best_chain(v, labels, order, peels)
            # within a factor rank^(1/8) of the top eigenvalue it bounds
            rest = tuple(k for k in labels if k not in still)
            m = hw.reshape_bipartite(v, hw.Bipartition(still, rest))
            top = np.linalg.eigvalsh(m @ m.conj().T)[-1]
            assert top <= cap <= top * min(m.shape) ** 0.125 + 2e-12


# --- the pruned exhaustive search against the unpruned one, at n = 6 ---


def _unpruned_best_branch(branches, labels, order, eps_deg, peels, path):
    """Branch selection of the search without its bound: every branch recurses."""
    best = None
    best_score = -1.0
    for k, br in enumerate(branches):
        sub = _unpruned_recurse(br.residual, labels, order, eps_deg, peels, path + (k,))
        if sub is None:
            continue
        score = br.weight * br.weight * sub[3]
        if score > best_score:
            best = (k, br, sub)
            best_score = score
    return best


def _unpruned_recurse(v, labels, order, eps_deg, peels, path=()):
    """The search's recursion without its bound, peeling each prefix once."""
    if len(labels) == 2:
        d = hw.schmidt_decompose(v, LEAF_SPLIT)
        pairs = hw.distinct_weight_pairs(d.weights, eps_deg)
        if not pairs:
            return None
        i, j = pairs[0]
        return (), v, 1.0, hw.hardy_probability(float(d.weights[i]), float(d.weights[j]))
    target = order[0]
    position = labels.index(target)
    rest_labels = tuple(l for l in labels if l != target)
    key = path + (target,)
    branches = peels.get(key)
    if branches is None:
        branches = peels[key] = hw.peel(v, position)
    best = _unpruned_best_branch(branches, rest_labels, order[1:], eps_deg, peels, key)
    if best is None:
        return None
    k, br, (sub_steps, leaf, sub_qprod, sub_combined) = best
    step = hw.PeelStep(
        subsystem=target,
        weights=tuple(b.weight for b in branches),
        marked=k,
        observable=hw.build_t_observable(branches, target),
    )
    q_sq = br.weight * br.weight
    return (step,) + sub_steps, leaf, q_sq * sub_qprod, q_sq * sub_combined


def _assert_bit_equal(a, b, where="value"):
    """Recursive equality of dataclasses, arrays, containers and floats, bit for bit."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_bit_equal(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_bit_equal(x, y, f"{where}[{k}]")
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), where
    else:
        assert a == b, where


class TestPrunedSearchMatchesUnpruned:
    def test_six_qubits_exhaustive(self):
        v = random_state(np.random.default_rng(66), (2,) * 6)
        labels = tuple(range(6))
        best, best_combined, peels = None, -1.0, {}
        for order in itertools.permutations(labels, 4):
            result = _unpruned_recurse(v, labels, order, hw.hardy.DEFAULT_EPS_DEG, peels)
            if result is not None and result[3] > best_combined:
                best, best_combined = result, result[3]
        steps, leaf, q_product, combined = best
        peeled = {s.subsystem for s in steps}

        w = hw.multipartite_witness(v, exhaustive=True)
        assert w.applicable
        _assert_bit_equal(w.steps, steps, "steps")
        assert [s.marked for s in w.steps] == [s.marked for s in steps]
        _assert_bit_equal(w.q_product, q_product, "q_product")
        _assert_bit_equal(w.combined_probability, combined, "combined_probability")
        assert w.final_subsystems == tuple(k for k in labels if k not in peeled)
        _assert_bit_equal(
            w.final_report, hw.make_witness_report(leaf, LEAF_SPLIT), "final_report"
        )


# --- the table's shared projection chain against one chain per entry ---


def _chain_probability(v, w, settings, outcomes):
    """One entry's projector chain from the searched state, sharing nothing."""
    construction = w.final_report.construction
    observables = [construction.observable(label) for label in settings[:2]]
    observables += [step.observable for step in w.steps]
    subsystems = w.final_subsystems + tuple(s.subsystem for s in w.steps)
    n = len(v.dims)
    total, current = 1.0, v
    for subsystem, obs, outcome in zip(subsystems, observables, outcomes):
        split = hw.Bipartition((subsystem,), tuple(k for k in range(n) if k != subsystem))
        if outcome == 0:
            prob, current = hw.apply_local_complement(current, split, obs.marked_vectors())
        else:
            prob, current = hw.apply_local_projector(current, split, obs.vector(outcome))
        total *= prob
        if current is None:
            break
    return total


class TestTableSharedChain:
    @pytest.fixture()
    def qubits5(self):
        v = random_state(np.random.default_rng(77), (2,) * 5)
        return v, hw.multipartite_witness(v)

    def _assert_matches_per_entry(self, v, w):
        table = hw.multipartite_table(v, w)
        expected = [_chain_probability(v, w, *key) for key in table.ordered_keys()]
        assert np.array_equal(table.probs, np.array(expected).reshape(table.probs.shape))

    def test_tripartite_example(self, tripartite_example):
        v = tripartite_example
        self._assert_matches_per_entry(v, hw.multipartite_witness(v))

    def test_five_qubits(self, qubits5):
        self._assert_matches_per_entry(*qubits5)

    def test_each_prefix_projected_once(self, monkeypatch, qubits5):
        w, calls = _walk_calls(monkeypatch, qubits5[0])
        assert w.table.probs.size == 288
        # the distinct prefixes of the first four parties are 6 + 24 + 32 +
        # 64: a qubit's outcome 0 (the complement of both of its vectors) has
        # probability 0 and ends the chain after the first or second party.
        # The last party's 64 x 2 outcomes are probabilities only, with no
        # residual state.  One chain per entry takes 864 projections.
        assert sum(not last for last, _, _ in calls) == 126
        assert sum(last for last, _, _ in calls) == 128

    @pytest.mark.parametrize(
        "seed, dims, exhaustive",
        [(6, (2,) * 6, False), (8, (2,) * 8, False), (5, (3, 2, 3, 2, 2), True)],
        ids=["6-qubits", "8-qubits", "32322-exhaustive"],
    )
    def test_longer_chains(self, seed, dims, exhaustive):
        # each residual is transposed from one peeled party's layout to the next's
        v = random_state(np.random.default_rng(seed), dims)
        self._assert_matches_per_entry(v, hw.multipartite_witness(v, exhaustive=exhaustive))


def _walk_calls(monkeypatch, v, order=None):
    """The witness of ``v`` and its table walk's calls to the walk's two primitives.

    Each call of ``project_side1`` or ``complement_side1`` made while the
    witness is built is recorded as ``(on the last party, primitive name,
    probability)``.  A call is on the last party when its vector is one of
    that party's marked vectors; every other call carries a residual unless
    its probability is at the projection floor.  ``multipartite_table`` then
    returns the witness's own table and makes no call.
    """
    from hardywitness import multipartite as mp

    raw = []
    for name in ("project_side1", "complement_side1"):
        def counted(m, u, _fn=getattr(mp, name), _name=name):
            result = _fn(m, u)
            raw.append((u[0] if _name == "complement_side1" else u, _name, result[0]))
            return result

        monkeypatch.setattr(mp, name, counted)
    w = hw.multipartite_witness(v, order)
    walked = len(raw)
    assert w.applicable
    assert hw.multipartite_table(v, w) is w.table
    assert len(raw) == walked
    monkeypatch.undo()
    last = w.steps[-1].observable.marked_vectors()
    calls = [
        (any(np.array_equal(first, x) for x in last), name, prob) for first, name, prob in raw
    ]
    return w, calls


# --- the table walk against one chain per entry, on drawn chains ---


def _state_from_tensor(tensor):
    return hw.make_state(tensor.shape, tensor.reshape(-1))


def _random_tensor(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def _narrow(rng, dims, k):
    """A random state whose qutrit ``k`` lies in a random 2-dimensional subspace.

    Any peel of ``k`` has rank 2 at most, and its outcome 0 (the complement of
    the branch vectors) has probability at the projection floor.
    """
    small = _random_tensor(rng, dims[:k] + (2,) + dims[k + 1:])
    isometry = random_unitary(rng, 3)[:, :2]
    return _state_from_tensor(np.moveaxis(np.tensordot(isometry, small, axes=(1, k)), 0, k))


def _branches(rng, dims, j, k):
    """Two orthogonal branches on subsystem ``j``; qutrit ``k`` is on levels {0, 1}
    in the first and on level 2 in the second.

    Peeling ``j`` first recovers the branches, so a later peel of ``k`` has
    rank 2 or 1 and its outcome 0 has a probability well above the floor.
    """
    tensor = _random_tensor(rng, dims)
    index = [slice(None)] * len(dims)
    index[j], index[k] = slice(2, None), slice(None)
    tensor[tuple(index)] = 0
    for level, kept in ((0, [0, 1]), (1, [2])):
        index[j] = level
        index[k] = [x for x in range(3) if x not in kept]
        tensor[tuple(index)] = 0
    return _state_from_tensor(tensor)


@st.composite
def _chain_cases(draw):
    """(state, peel order) over 3-5 parties of dimension 2 or 3.

    Besides generic states: a qutrit peel of rank 2 (its outcome 0 sits at the
    projection floor, so a prefix ending there fills a sub-block), and a last
    peeled qutrit whose outcome 0 carries weight.
    """
    n = draw(st.integers(3, 5))
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n)))
    order = tuple(draw(st.permutations(range(n)))[: n - 2])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["generic", "narrow", "branches"]))
    qutrits = [k for k in order if dims[k] == 3]
    if kind == "narrow" and qutrits:
        return _narrow(rng, dims, draw(st.sampled_from(qutrits))), order
    if kind == "branches" and n > 3 and dims[order[-1]] == 3:
        return _branches(rng, dims, order[0], order[-1]), order
    return _state_from_tensor(_random_tensor(rng, dims)), order


def _assert_walk_matches_oracle(v, w, table):
    expected = [_chain_probability(v, w, *key) for key in table.ordered_keys()]
    assert np.array_equal(table.probs, np.array(expected).reshape(table.probs.shape))
    for c in w.conditions:
        oracle = _chain_probability(v, w, c.condition.settings, c.condition.outcomes)
        _assert_bit_equal(c.value, oracle, c.condition.label)
        entry = table.prob(c.condition.settings, c.condition.outcomes)
        _assert_bit_equal(c.value, entry, c.condition.label)


class TestTableWalkMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(_chain_cases())
    def test_drawn_chains(self, case):
        v, order = case
        w = hw.multipartite_witness(v, order)
        assume(w.applicable)
        _assert_walk_matches_oracle(v, w, hw.multipartite_table(v, w))

    def _walk_counts(self, monkeypatch, v, order):
        """The table, its witness, and the walk's floor hits and last-party complements."""
        w, calls = _walk_calls(monkeypatch, v, order)
        _assert_walk_matches_oracle(v, w, w.table)
        return w.table, {
            "floor": sum(not last and prob <= PROJECTION_FLOOR for last, _, prob in calls),
            "last_complement": sum(
                last and name == "complement_side1" for last, name, _ in calls
            ),
        }

    def test_rank_two_qutrit_peel_fills_at_the_floor(self, monkeypatch):
        # qutrit 3 is peeled first and has rank 2, so every prefix through its
        # outcome 0 stops at the floor one party before the last
        dims, order = (3, 3, 2, 3), (3, 2)
        v = _narrow(np.random.default_rng(11), dims, 3)
        table, calls = self._walk_counts(monkeypatch, v, order)
        assert table.party_outcomes[2] == (1, 2, 0)
        assert calls["floor"] > 0
        assert np.all(table.probs[..., 2, :] <= PROJECTION_FLOOR)

    def test_last_party_outcome_zero_has_weight(self, monkeypatch):
        dims, order = (2, 2, 2, 3), (2, 3)
        v = _branches(np.random.default_rng(12), dims, 2, 3)
        table, calls = self._walk_counts(monkeypatch, v, order)
        assert table.party_outcomes[-1][-1] == 0
        assert calls["last_complement"] > 0
        assert table.probs[..., -1].max() > 0.01
