"""Finite-shot simulation of the test with a reproducible counter-based RNG.

The generator is SplitMix64 used in counter mode: shot k under seed s draws
the 64-bit word mix64((s + (k+1) * 0x9E3779B97F4A7C15) mod 2^64) where mix64
is the standard SplitMix64 finalizer (xor-shift 30, multiply
0xBF58476D1CE4E5B9, xor-shift 27, multiply 0x94D049BB133111EB, xor-shift
31).  Uniform variates take the top 53 bits over 2^53.  Records are thus a
pure function of (seed, shots, schedule, table) and identical across runs
and platforms.

Shots are drawn, stored, counted and exported as whole arrays.  The
generator uses only wrapping uint64 arithmetic, so ``uniform_chunk`` gives
numpy arrays equal bit for bit to the scalar ``uniform_unit``.  Shots are
drawn ``CHUNK`` counters at a time, and a run is kept as a ``ShotRecords``
column with one small-integer cell per shot (1 byte per shot for the
default schedule).  ``analyze`` counts the column with ``np.bincount`` and
the CSV export writes it, both ``CHUNK`` shots at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hardy import (
    FLAGGED_CONDITION,
    ZERO_CONDITIONS,
    HardyCondition,
    HardyConstruction,
    JointProbabilityTable,
    joint_table,
)
from .states import StateVector

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB
MASK64 = (1 << 64) - 1

# Shots drawn, iterated and exported per step: bounds the working arrays
# (about 1 MB at this size) whatever the shot count.
CHUNK = 1 << 16

DEFAULT_SCHEDULE = (("X1", "X2"), ("X1", "Y2"), ("Y1", "X2"), ("Y1", "Y2"))
DEFAULT_SIGMA = 4.0

CSV_HEADER = "shot,setting1,setting2,outcome1,outcome2"


def splitmix64(seed: int, counter: int) -> int:
    """The counter-th 64-bit word of the SplitMix64 stream for this seed."""
    z = (seed + (counter + 1) * GOLDEN_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * MIX_MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MULT_2) & MASK64
    return z ^ (z >> 31)


def uniform_unit(seed: int, counter: int) -> float:
    """Uniform double in [0, 1) from the counter-th word."""
    return (splitmix64(seed, counter) >> 11) * 2.0**-53


def uniform_chunk(seed: int, start: int, stop: int) -> np.ndarray:
    """``[uniform_unit(seed, k) for k in range(start, stop)]`` as one array."""
    z = np.arange(stop - start, dtype=np.uint64) + np.uint64((start + 1) & MASK64)
    z = np.uint64(seed & MASK64) + z * np.uint64(GOLDEN_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX_MULT_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX_MULT_2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class ShotRecord:
    index: int
    setting1: str
    setting2: str
    outcome1: int
    outcome2: int


def _cell_dtype(n_cells: int) -> np.dtype:
    return np.min_scalar_type(max(n_cells - 1, 0))


class ShotRecords(Sequence):
    """Shots as one column of cells, read like a list of ``ShotRecord``.

    Cell ``slot * len(outcome_pairs) + i`` is a shot that used setting pair
    ``schedule[slot]`` and got ``outcome_pairs[i]``.  Shot numbers are the
    positions 0, 1, ... unless ``index`` lists them.
    """

    def __init__(self, cells: np.ndarray, schedule, outcome_pairs, index=None):
        self.cells = cells
        self.schedule = tuple(schedule)
        self.outcome_pairs = tuple(outcome_pairs)
        self.index = index
        self._fields = [
            (pair[0], pair[1], outcomes[0], outcomes[1])
            for pair in self.schedule
            for outcomes in self.outcome_pairs
        ]

    @classmethod
    def from_records(cls, records) -> ShotRecords:
        """Column form of any iterable of ``ShotRecord``s."""
        records = list(records)
        slots: dict = {}
        outcome_index: dict = {}
        for r in records:
            slots.setdefault((r.setting1, r.setting2), len(slots))
            outcome_index.setdefault((r.outcome1, r.outcome2), len(outcome_index))
        n = len(outcome_index)
        cells = np.array(
            [
                slots[(r.setting1, r.setting2)] * n + outcome_index[(r.outcome1, r.outcome2)]
                for r in records
            ],
            dtype=_cell_dtype(len(slots) * n),
        )
        return cls(cells, slots, outcome_index, [r.index for r in records])

    def _shot_numbers(self, start: int, stop: int):
        return range(start, stop) if self.index is None else self.index[start:stop]

    def _chunks(self):
        """(shot numbers, cells as ints) for every CHUNK shots in order."""
        for start in range(0, len(self), CHUNK):
            stop = min(start + CHUNK, len(self))
            yield self._shot_numbers(start, stop), self.cells[start:stop].tolist()

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = range(len(self))[k]
        return ShotRecord(self._shot_numbers(k, k + 1)[0], *self._fields[int(self.cells[k])])

    def __iter__(self):
        for shots, cells in self._chunks():
            for k, c in zip(shots, cells):
                yield ShotRecord(k, *self._fields[c])

    def _labels(self):
        return self.schedule, self.outcome_pairs, self.index

    def __eq__(self, other):
        if isinstance(other, ShotRecords) and self._labels() == other._labels():
            return np.array_equal(self.cells, other.cells)
        if isinstance(other, (ShotRecords, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def _columns(records) -> ShotRecords:
    return records if isinstance(records, ShotRecords) else ShotRecords.from_records(records)


def sample_from_table(
    table: JointProbabilityTable,
    shots: int,
    seed: int,
    schedule=None,
) -> ShotRecords:
    """Draw shots by inverse CDF over the outcome pairs of each setting pair.

    Shot k uses counter k of the seed's stream and the schedule entry
    k mod len(schedule).  Outcome pairs are scanned in the table's fixed
    outcome order and shot k takes the first pair whose running sum exceeds
    its uniform u, so a zero-probability pair owns an empty interval and is
    never taken while u lies below the row's last edge.  When u lies at or
    beyond that edge (the row sums to slightly less than 1), the shot takes
    the last pair whose running sum is positive: normally the row's last
    pair, even when that pair's own probability is zero.

    Only two-party tables can be sampled; a table of any other number of
    parties raises ``ValueError``.
    """
    if table.n_parties != 2:
        raise ValueError(
            f"sampling needs a two-party table, got {table.n_parties} parties"
        )
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if schedule is None:
        schedule = DEFAULT_SCHEDULE
    schedule = [tuple(pair) for pair in schedule]
    if not schedule:
        raise ValueError("schedule must not be empty")
    choices = set(table.setting_choices())
    for pair in schedule:
        if pair not in choices:
            raise ValueError(f"schedule entry {pair} is not a setting choice")
    outcome_pairs = tuple(table.outcome_tuples())
    n_pairs = len(outcome_pairs)
    cdfs = [np.cumsum(table.probs[table.index(pair)]) for pair in schedule]
    # The first edge above u is also the first running maximum above u, and
    # searchsorted needs sorted edges (a table may hold tiny negative entries).
    edges = [np.maximum.accumulate(cdf) for cdf in cdfs]
    # u landed beyond the (~1.0) last edge: take the last positive edge
    beyond = [int(np.flatnonzero(cdf > 0.0)[-1]) for cdf in cdfs]
    period = len(schedule)
    cells = np.empty(shots, dtype=_cell_dtype(period * n_pairs))
    for start in range(0, shots, CHUNK):
        stop = min(start + CHUNK, shots)
        u = uniform_chunk(seed, start, stop)
        for j in range(min(period, stop - start)):
            slot = (start + j) % period
            chosen = np.searchsorted(edges[slot], u[j::period], side="right")
            chosen[chosen == n_pairs] = beyond[slot]
            cells[start + j : stop : period] = slot * n_pairs + chosen
    return ShotRecords(cells, schedule, outcome_pairs)


def sample(
    v: StateVector,
    construction: HardyConstruction,
    shots: int,
    seed: int,
    schedule=None,
) -> ShotRecords:
    """Simulate the experiment on ``v`` with the construction's observables."""
    return sample_from_table(joint_table(v, construction), shots, seed, schedule)


@dataclass(frozen=True)
class CellStats:
    settings: tuple[str, str]
    outcomes: tuple[int, int]
    count: int
    pair_shots: int
    frequency: float | None
    exact: float
    std_error: float | None


@dataclass(frozen=True)
class ConditionStats:
    condition: HardyCondition
    count: int
    pair_shots: int
    frequency: float | None
    exact: float
    passed: bool | None  # None when the setting pair was never sampled


@dataclass(frozen=True)
class FrequencyReport:
    shots: int
    sigma: float
    cells: tuple[CellStats, ...]
    conditions: tuple[ConditionStats, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions if c.passed is not None)


def analyze(
    records, exact_table: JointProbabilityTable, sigma: float = DEFAULT_SIGMA
) -> FrequencyReport:
    """Compare empirical frequencies against the exact table.

    A zero condition passes iff its outcome pair never occurred.  The flagged
    condition passes iff it occurred at least once and its frequency sits
    within ``sigma`` binomial standard errors of the exact value.  Conditions
    whose setting pair received no shots are reported unevaluated.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    records = _columns(records)
    n_pairs = len(records.outcome_pairs)
    n_cells = len(records.schedule) * n_pairs
    # bincount casts its input to intp: one chunk at a time keeps that copy
    # at CHUNK * 8 bytes instead of 8 bytes per shot
    per_cell = np.zeros(n_cells, dtype=np.int64)
    for start in range(0, len(records), CHUNK):
        per_cell += np.bincount(records.cells[start : start + CHUNK], minlength=n_cells)
    pair_shots: dict = {}
    counts: dict = {}
    for cell, count in enumerate(per_cell.tolist()):
        pair = records.schedule[cell // n_pairs]
        key = (pair, records.outcome_pairs[cell % n_pairs])
        pair_shots[pair] = pair_shots.get(pair, 0) + count
        counts[key] = counts.get(key, 0) + count
    cells = []
    for choice in exact_table.setting_choices():
        n = pair_shots.get(choice, 0)
        for outcomes, exact in exact_table.row(choice):
            count = counts.get((choice, outcomes), 0)
            freq = count / n if n else None
            se = (exact * (1.0 - exact) / n) ** 0.5 if n else None
            cells.append(CellStats(choice, outcomes, count, n, freq, exact, se))
    verdicts = []
    for cond in ZERO_CONDITIONS + (FLAGGED_CONDITION,):
        n = pair_shots.get(cond.settings, 0)
        count = counts.get((cond.settings, cond.outcomes), 0)
        exact = exact_table.prob(cond.settings, cond.outcomes)
        freq = count / n if n else None
        if n == 0:
            passed = None
        elif cond.expect_zero:
            passed = count == 0
        else:
            se = (exact * (1.0 - exact) / n) ** 0.5
            passed = count > 0 and abs(freq - exact) <= sigma * se
        verdicts.append(ConditionStats(cond, count, n, freq, exact, passed))
    return FrequencyReport(len(records), sigma, tuple(cells), tuple(verdicts))


def _csv_chunks(records):
    """The CSV text in pieces: the header, then one piece per CHUNK shots."""
    records = _columns(records)
    suffixes = [f",{s1},{s2},{o1},{o2}\n" for s1, s2, o1, o2 in records._fields]
    yield CSV_HEADER + "\n"
    for shots, cells in records._chunks():
        yield "".join([f"{k}{suffixes[c]}" for k, c in zip(shots, cells)])


def records_to_csv(records) -> str:
    """CSV export: header plus one line per shot, LF line endings."""
    return "".join(_csv_chunks(records))


def export_csv(records, path) -> None:
    """Write ``records_to_csv(records)`` to ``path``, one chunk at a time."""
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_chunks(records))
