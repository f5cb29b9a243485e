import dataclasses
import itertools
import struct

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
        assert obs.outcomes == (1, 2, 0)

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
        assert counts == {"peel": 89, "report": 1}

    def test_default_order(self, counts, qubits5):
        w = hw.multipartite_witness(qubits5)
        assert w.applicable
        assert counts == {"peel": 1 + 2 + 4, "report": 1}


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
        pairs = hw.distinct_weight_pairs(d, eps_deg)
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
        from hardywitness import multipartite as mp

        calls = {"n": 0}
        for name in ("apply_local_projector", "apply_local_complement"):
            def counted(*args, _fn=getattr(mp, name), **kwargs):
                calls["n"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mp, name, counted)
        table = hw.multipartite_table(*qubits5)
        assert table.probs.size == 288
        # the distinct chain prefixes are 6 + 24 + 32 + 64 + 128: a qubit's
        # outcome 0 (the complement of both of its vectors) has probability 0
        # and ends the chain after the first or second party.  One chain per
        # entry takes 864 projections.
        assert calls["n"] == 254
