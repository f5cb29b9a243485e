import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardywitness as hw
from conftest import random_state
from hardywitness.cli import machine_dumps
from hardywitness.hardy import FLAGGED_CONDITION
from hardywitness.errors import TooLarge
from hardywitness.sampling import (
    CHUNK,
    SCHEDULE,
    SHOT_CAP,
    records_to_csv,
    sample_from_table,
    splitmix64,
    uniform_chunk,
    uniform_unit,
)

SPLIT = hw.Bipartition((0,), (1,))


class TestGenerator:
    def test_known_words(self):
        # counter mode over seed 0 reproduces the published SplitMix64 stream
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
        assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
        assert splitmix64(42, 0) == 0xBDD732262FEB6E95
        assert splitmix64(2**64 - 1, 0) == 0xE4D971771B652C20

    def test_uniform_range(self):
        values = [uniform_unit(7, k) for k in range(1000)]
        assert all(0.0 <= u < 1.0 for u in values)
        assert 0.4 < np.mean(values) < 0.6

    def test_seed_masked_to_64_bits(self):
        assert splitmix64(2**64 + 5, 3) == splitmix64(5, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(0, 2**64 - 1),
            st.integers(-(2**70), -1),
            st.integers(2**64, 2**70),
        ),
        start=st.one_of(st.integers(0, 2 * CHUNK), st.integers(0, 2**64 - 1)),
        n=st.integers(0, 40),
    )
    def test_vector_uniforms_equal_scalar(self, seed, start, n):
        # counters past 2^64 - 1 wrap in both forms
        got = uniform_chunk(seed, start, start + n)
        assert got.dtype == np.float64
        assert got.tolist() == [uniform_unit(seed, k) for k in range(start, start + n)]


def _loop_sample(table, shots, seed):
    """Reference sampler, one shot at a time: the first edge of the running
    sum above u, else the last positive entry."""
    records = []
    for k in range(shots):
        pair = SCHEDULE[k % len(SCHEDULE)]
        row = table.row(pair)
        edges = list(itertools.accumulate(p for _, p in row))
        u = uniform_unit(seed, k)
        i = next((i for i, edge in enumerate(edges) if u < edge), None)
        if i is None:
            i = max(i for i, (_, p) in enumerate(row) if p > 0.0)
        records.append(hw.ShotRecord(k, *pair, *row[i][0]))
    return records


@st.composite
def sampling_cases(draw):
    """Two-party ternary tables with zero and tiny negative entries."""
    outcomes = list(itertools.product((1, -1, 0), repeat=2))
    entry = st.one_of(st.just(0.0), st.just(-1e-12), st.floats(1e-6, 1.0))
    entries = {}
    for pair in SCHEDULE:
        weights = draw(st.lists(entry, min_size=9, max_size=9))
        if max(weights) <= 0.0:
            weights[-1] = 1.0
        total = sum(w for w in weights if w > 0.0)
        entries.update({(pair, o): w / total for o, w in zip(outcomes, weights)})
    party_settings = (("X1", "Y1"), ("X2", "Y2"))
    probs = [entries[(pair, o)] for pair in itertools.product(*party_settings) for o in outcomes]
    table = hw.JointProbabilityTable(party_settings, ((1, -1, 0),) * 2, probs)
    return table, draw(st.integers(1, 300)), draw(st.integers(-(2**64), 2**65))


class TestSample:
    @settings(max_examples=100, deadline=None)
    @given(sampling_cases())
    def test_matches_per_shot_loop(self, case):
        table, shots, seed = case
        records = sample_from_table(table, shots, seed)
        expected = _loop_sample(table, shots, seed)
        assert list(records) == expected
        # each cell is the flat position of its record's entry in table.probs
        positions = [
            np.ravel_multi_index(
                table.index((r.setting1, r.setting2), (r.outcome1, r.outcome2)), table.probs.shape
            )
            for r in expected
        ]
        assert records.cells.tolist() == positions
        tally = np.bincount(positions, minlength=table.probs.size).tolist()
        assert [c.count for c in hw.analyze(records, table).cells] == tally

    def test_deterministic_records(self, report_08_02):
        a = sample_from_table(report_08_02.table, 500, 123)
        b = sample_from_table(report_08_02.table, 500, 123)
        assert a == b
        c = sample_from_table(report_08_02.table, 500, 124)
        assert a != c

    def test_product_state_outcomes_stay_on_row_support(self, report_08_02):
        product = hw.basis_state([2, 2], (0, 0))
        table = hw.joint_table(product, report_08_02.construction)
        records = sample_from_table(table, 1600, 9)
        outcomes = {
            (r.outcome1, r.outcome2) for r in records if (r.setting1, r.setting2) == ("X1", "X2")
        }
        support = {out for out, p in table.row(("X1", "X2")) if p > 1e-12}
        assert outcomes and outcomes <= support

    def test_deterministic_distribution_yields_single_pair(self):
        # |22> sits in the null manifold of observables built on levels {0,1},
        # so every shot lands on the (0, 0) outcome pair for any seed
        w = [0.8, 0.5, 0.11**0.5]
        amps = np.zeros(9, dtype=complex)
        amps[0], amps[4], amps[8] = w
        v = hw.make_state([3, 3], amps)
        d = hw.schmidt_decompose(v, SPLIT)
        con = hw.build_construction(d, (0, 1))
        table = hw.joint_table(hw.basis_state([3, 3], (2, 2)), con)
        for seed in (0, 1, 99):
            records = sample_from_table(table, 50, seed)
            assert {(r.outcome1, r.outcome2) for r in records} == {(0, 0)}

    def test_zero_probability_pairs_never_occur(self, report_08_02):
        v = hw.make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5])
        records = sample_from_table(hw.joint_table(v, report_08_02.construction), 20000, 7)
        table = report_08_02.table
        for r in records:
            p = table.prob((r.setting1, r.setting2), (r.outcome1, r.outcome2))
            assert p > 1e-12

    def test_flagged_frequency_near_exact(self, report_08_02):
        records = sample_from_table(report_08_02.table, 100000, 42)
        hits = sum(
            1
            for r in records
            if (r.setting1, r.setting2) == ("Y1", "Y2")
            and (r.outcome1, r.outcome2) == (1, 1)
        )
        n_pair = sum(1 for r in records if (r.setting1, r.setting2) == ("Y1", "Y2"))
        assert n_pair == 25000
        assert abs(hits / n_pair - 4 / 45) < 0.0036

    def test_round_robin_schedule(self, report_08_02):
        assert SCHEDULE == (("X1", "X2"), ("X1", "Y2"), ("Y1", "X2"), ("Y1", "Y2"))
        # a chunk's offset j is its schedule slot
        assert CHUNK % len(SCHEDULE) == 0
        records = sample_from_table(report_08_02.table, 8, 1)
        assert [(r.setting1, r.setting2) for r in records] == list(SCHEDULE + SCHEDULE)

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("on_edge", (1, -1)),  # u equal to an edge belongs to the next pair
            ("beyond_last_edge", (1, -1)),  # the last positive entry takes it
            ("negative_entry", (1, 1)),  # the first edge above u, though edges dip
        ],
    )
    def test_edge_rules(self, report_08_02, case, expected):
        u = uniform_unit(1, 0)
        rows = {
            "on_edge": [u, 1.0 - u],
            "beyond_last_edge": [0.0, u / 2],
            "negative_entry": [u + 1e-12, -2e-12, 1.0 - u],
        }
        table = report_08_02.table
        entries = dict(table.entries)
        row = rows[case] + [0.0] * (9 - len(rows[case]))
        for outcomes, p in zip(table.outcome_tuples(), row):
            entries[(("X1", "X2"), outcomes)] = p
        edited = hw.JointProbabilityTable(
            table.party_settings, table.party_outcomes, [entries[k] for k in table.ordered_keys()]
        )
        (record,) = sample_from_table(edited, 1, 1)
        assert (record.outcome1, record.outcome2) == expected

    def test_bad_inputs(self, report_08_02):
        with pytest.raises(ValueError):
            sample_from_table(report_08_02.table, 0, 1)

    def test_names_a_missing_setting_pair(self):
        table = hw.JointProbabilityTable(
            (("X1", "Y1"), ("X2", "Z2")), ((1, -1),) * 2, np.full((2, 2, 2, 2), 0.25)
        )
        with pytest.raises(ValueError, match=r"\('X1', 'Y2'\) is not a setting choice"):
            sample_from_table(table, 10, 1)

    @pytest.mark.parametrize(
        "index, value, message",
        [
            ((0, 0, 0, 1), np.nan, "a non-finite table entry"),
            ((0, 0), 0.0, "no positive table entry"),
            ((0, 0), np.nan, "a non-finite table entry"),
        ],
        ids=["nan_entry", "all_zero_row", "all_nan_row"],
    )
    def test_rejects_rows_it_cannot_draw_from(self, report_08_02, index, value, message):
        # a table built directly skips check(), so sampling checks its rows
        probs = report_08_02.table.probs.copy()
        probs[index] = value
        table = hw.JointProbabilityTable(
            report_08_02.table.party_settings, report_08_02.table.party_outcomes, probs
        )
        with pytest.raises(ValueError, match=rf"\('X1', 'X2'\) has {message}"):
            sample_from_table(table, 2000, 3)

    def test_rejects_tables_that_are_not_two_party(self, tripartite_example):
        witness = hw.multipartite_witness(tripartite_example)
        table = hw.multipartite_table(tripartite_example, witness)
        with pytest.raises(ValueError, match="two-party table, got 3 parties"):
            sample_from_table(table, 10, 1)


class TestAnalyze:
    def test_zero_condition_passes_with_no_hits(self, report_08_02):
        records = sample_from_table(report_08_02.table, 4000, 5)
        report = hw.analyze(records, report_08_02.table)
        for c in report.conditions:
            if c.condition.expect_zero:
                assert c.count == 0 and c.passed

    def test_hand_built_violation_flags_failure(self, report_08_02):
        records = hw.ShotRecords(np.zeros(1, dtype=np.uint8), report_08_02.table)
        report = hw.analyze(records, report_08_02.table)
        first = report.conditions[0]
        assert first.condition.label == "P(X1=+1, X2=+1)"
        assert first.count == 1 and first.passed is False

    def test_records_of_a_table_with_other_outcomes_raise(self, report_08_02):
        table = report_08_02.table
        binary = hw.JointProbabilityTable(
            table.party_settings, ((1, -1),) * 2, np.full((2, 2, 2, 2), 0.25)
        )
        records = sample_from_table(binary, 100, 1)
        with pytest.raises(ValueError, match="other settings or outcomes"):
            hw.analyze(records, table)

    def test_flagged_condition_passes_at_scale(self, report_08_02):
        records = sample_from_table(report_08_02.table, 100000, 42)
        report = hw.analyze(records, report_08_02.table)
        flagged = report.conditions[-1]
        assert not flagged.condition.expect_zero
        assert flagged.passed
        assert report.all_passed

    def test_single_shot_leaves_unsampled_pairs_unevaluated(self, report_08_02):
        records = sample_from_table(report_08_02.table, 1, 3)
        report = hw.analyze(records, report_08_02.table)
        evaluated = [c for c in report.conditions if c.passed is not None]
        unevaluated = [c for c in report.conditions if c.passed is None]
        assert len(evaluated) == 1  # only (X1, X2) received a shot
        assert len(unevaluated) == 5
        assert report.shots == 1

    @pytest.mark.parametrize("case", ["entry-below-zero", "flagged-above-one"])
    def test_entries_just_outside_unit_interval_give_real_errors(self, report_08_02, case):
        """``check`` tolerates entries a hair outside [0, 1]; their variance is 0."""
        table = report_08_02.table
        probs = table.probs.copy()
        if case == "entry-below-zero":
            probs[table.index(("X1", "X2"), (1, 1))] = -1e-12
        else:
            # every party answers +1 for sure, the flagged entry by 1 + 5e-13
            probs[...] = 0.0
            probs[:, :, 0, 0] = 1.0
            probs[table.index(FLAGGED_CONDITION.settings, (1, 1))] += 5e-13
            probs[table.index(FLAGGED_CONDITION.settings, (1, -1))] -= 5e-13
        edited = hw.JointProbabilityTable(table.party_settings, table.party_outcomes, probs)
        edited.check()
        report = hw.analyze(sample_from_table(edited, 400, 42), edited)
        assert all(isinstance(c.std_error, float) for c in report.cells)
        outside = [c.std_error for c in report.cells if not 0 <= c.exact <= 1]
        assert outside and set(outside) == {0.0}
        assert all(c.passed in (True, False) for c in report.conditions)
        machine_dumps([[c.settings, c.outcomes, c.exact, c.std_error] for c in report.cells])

    def test_convergence_over_many_seeds(self, report_08_02):
        # 100 independent seeds at 1e4 shots: essentially every condition
        # check stays inside the sigma band
        failures = 0
        checks = 0
        for seed in range(100):
            records = sample_from_table(report_08_02.table, 10000, seed)
            report = hw.analyze(records, report_08_02.table)
            for c in report.conditions:
                if c.passed is None:
                    continue
                checks += 1
                if not c.passed:
                    failures += 1
        assert checks == 600
        assert failures <= 1


class TestCsv:
    def test_layout_and_stability(self, report_08_02, tmp_path):
        records = sample_from_table(report_08_02.table, 10, 2)
        text = records_to_csv(records)
        lines = text.split("\n")
        first = next(iter(records))
        assert lines[0] == "shot,setting1,setting2,outcome1,outcome2"
        assert lines[1] == "0,X1,X2,{},{}".format(first.outcome1, first.outcome2)
        assert text == records_to_csv(sample_from_table(report_08_02.table, 10, 2))
        out = tmp_path / "records.csv"
        hw.export_csv(records, out)
        assert out.read_bytes() == text.encode()


class TestRecords:
    def test_list_behaviour(self, report_08_02):
        records = sample_from_table(report_08_02.table, 10, 2)
        as_list = list(records)
        assert len(records) == 10
        assert [r.index for r in as_list] == list(range(10))

    def test_csv_and_counts_match_per_record_loops(self, report_08_02):
        # the per-record loops below are the reference for the chunked paths
        records = sample_from_table(report_08_02.table, 2000, 4)
        text = records_to_csv(records)
        assert text == "\n".join(
            ["shot,setting1,setting2,outcome1,outcome2"]
            + [f"{r.index},{r.setting1},{r.setting2},{r.outcome1},{r.outcome2}" for r in records]
        ) + "\n"
        report = hw.analyze(records, report_08_02.table)
        assert report.shots == len(records)
        for c in report.cells:
            assert c.count == sum(
                1
                for r in records
                if ((r.setting1, r.setting2), (r.outcome1, r.outcome2)) == (c.settings, c.outcomes)
            )

    def test_at_most_one_byte_per_shot(self, report_08_02):
        shots = 3 * CHUNK + 1
        records = sample_from_table(report_08_02.table, shots, 5)
        arrays = [v for v in vars(records).values() if isinstance(v, np.ndarray)]
        assert len(records) == shots
        assert sum(a.nbytes for a in arrays) <= shots
        # counting allocates per chunk, not per shot (8 bytes per shot would
        # be 24 * CHUNK here)
        tracemalloc.start()
        try:
            hw.analyze(records, report_08_02.table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * CHUNK

    def test_compare_in_bounded_memory(self, report_08_02):
        """Records of equal runs compare equal, in bounded memory."""
        shots = 3 * CHUNK + 1
        one = sample_from_table(report_08_02.table, shots, 6)
        two = sample_from_table(report_08_02.table, shots, 6)
        shorter = sample_from_table(report_08_02.table, shots - 1, 6)
        tracemalloc.start()
        try:
            assert one == two
            assert one != shorter
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        changed = sample_from_table(report_08_02.table, shots, 7)
        assert one != changed


class TestShotCap:
    def test_past_cap_raises_before_allocating(self, report_08_02):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="exceed the cap"):
                sample_from_table(report_08_02.table, SHOT_CAP + 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _random_3x3_table():
    v = random_state(np.random.default_rng(3), [3, 3])
    return hw.make_witness_report(v, SPLIT).table


class TestPinnedRecords:
    """CSV sha256, every analyze cell count, and the cells' dtype and sha256,
    pinned bit for bit.

    The second case runs past two chunk edges and ends three shots into a
    chunk, so chunked drawing, the slot phase across chunks and a chunk
    that leaves a slot empty are all covered.
    """

    PINNED = {
        "hardy_08_02_seed42": (
            10**5,
            42,
            "747bdfcb989ba7fd8f4f2d6dd781e7efeb24c5cda62e07f6dd96715a51ab413c",
            [0, 10094, 0, 10032, 4874, 0, 0, 0, 0, 6645, 3371, 0, 0, 14984, 0, 0, 0, 0,
             6661, 0, 0, 3374, 14965, 0, 0, 0, 0, 2265, 4362, 0, 4365, 14008, 0, 0, 0, 0],
            "4c46d68ea368e98835cc4555ed636da3436b683176b981e1708cb9d84cc58005",
        ),
        "random_3x3_three_chunks": (
            2 * CHUNK + 3,
            7,
            "6ca403b3f8f1eec3d09fd4b6eaaa519a384ca071c49123a6ab3adf30509eaf22",
            [0, 11863, 0, 11659, 8889, 0, 0, 0, 358, 6755, 5148, 0, 0, 20505, 0, 0, 0, 361,
             6662, 0, 0, 5092, 20707, 0, 0, 0, 308, 2913, 3854, 0, 3758, 21905, 0, 0, 0, 338],
            "38d72ac13a7619c486a1f3be115b56ef674887a6fc14f5aa1584f8ff38f535f6",
        ),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_bit_identical(self, name, report_08_02, tmp_path):
        table = report_08_02.table if name == "hardy_08_02_seed42" else _random_3x3_table()
        shots, seed, digest, counts, cells_digest = self.PINNED[name]
        records = sample_from_table(table, shots, seed)
        assert records.cells.dtype == np.uint8
        assert hashlib.sha256(records.cells.tobytes()).hexdigest() == cells_digest
        text = records_to_csv(records)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert [c.count for c in hw.analyze(records, table).cells] == counts
        out = tmp_path / "records.csv"
        hw.export_csv(records, out)
        assert out.read_bytes() == text.encode()
