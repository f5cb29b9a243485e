"""Finite-shot simulation of the test with a reproducible counter-based RNG.

The generator is SplitMix64 used in counter mode: shot k under seed s draws
the 64-bit word mix64((s + (k+1) * 0x9E3779B97F4A7C15) mod 2^64) where mix64
is the standard SplitMix64 finalizer (xor-shift 30, multiply
0xBF58476D1CE4E5B9, xor-shift 27, multiply 0x94D049BB133111EB, xor-shift
31).  Uniform variates take the top 53 bits over 2^53.

Shot k measures ``SCHEDULE[k % 4]``: the construction's four setting pairs
(X1, X2), (X1, Y2), (Y1, X2), (Y1, Y2) in turn, the only measurements the
test needs.  Records are thus a pure function of (seed, shots, table) and
identical across runs and platforms.

Shots are drawn, stored, counted and exported as whole arrays.  The
generator uses only wrapping uint64 arithmetic, so ``uniform_chunk`` gives
numpy arrays equal bit for bit to the scalar ``uniform_unit``.  Shots are
drawn ``CHUNK`` counters at a time, and a run is kept as a ``ShotRecords``:
its table and one column with one small-integer cell per shot, the flat
position of the shot's entry in ``table.probs`` (1 byte per shot for a
two-party construction table).  Shot k is cell k, and iterating a run
yields one ``ShotRecord`` per shot.  ``analyze`` counts the column with
``np.bincount`` and the CSV export writes it, both ``CHUNK`` shots at a
time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge
from .hardy import (
    FLAGGED_CONDITION,
    SIDE1_SETTINGS,
    SIDE2_SETTINGS,
    ZERO_CONDITIONS,
    HardyCondition,
    JointProbabilityTable,
    _as_integer,
)

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB
MASK64 = (1 << 64) - 1

# Shots drawn, iterated and exported per step: bounds the working arrays
# (about 1 MB at this size) whatever the shot count.  A multiple of 4.
CHUNK = 1 << 16
# Most shots one run may hold: its cells take at least 1 byte per shot.
SHOT_CAP = 10**9

# The setting pair of shot k is SCHEDULE[k % 4].
SCHEDULE = tuple(itertools.product(SIDE1_SETTINGS, SIDE2_SETTINGS))
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


class ShotRecords:
    """One run of shots drawn from ``table``, as a column of cells.

    A cell is the flat position of the shot's entry in ``table.probs``,
    ``row * n_outcome_pairs + outcome_index`` in ``table.ordered_keys()``
    order.  Shot k is position k of ``cells``; iterating yields one
    ``ShotRecord`` per shot, in order.
    """

    def __init__(self, cells: np.ndarray, table: JointProbabilityTable):
        self.cells = cells
        self.table = table
        self._fields = [(*settings, *outcomes) for settings, outcomes in table.ordered_keys()]

    def _chunks(self):
        """(first shot number, cells as ints) for every CHUNK shots in order."""
        for start in range(0, len(self), CHUNK):
            yield start, self.cells[start : start + CHUNK].tolist()

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        for start, cells in self._chunks():
            for k, c in enumerate(cells, start):
                yield ShotRecord(k, *self._fields[c])

    def __eq__(self, other):
        if not isinstance(other, ShotRecords):
            return NotImplemented
        return self._fields == other._fields and np.array_equal(self.cells, other.cells)

    __hash__ = None


def sample_from_table(table: JointProbabilityTable, shots: int, seed: int) -> ShotRecords:
    """Draw shots by inverse CDF over the outcome pairs of each setting pair.

    Shot k uses counter k of the seed's stream and the setting pair
    ``SCHEDULE[k % 4]``, and its cell is the flat position of the drawn
    entry in ``table.probs``.  Outcome pairs are scanned in the table's fixed
    outcome order and shot k takes the first pair whose running sum exceeds
    its uniform u, so a zero-probability pair owns an empty interval and is
    never taken while u lies below the row's last edge.  When u lies at or
    beyond that edge (the row sums to slightly less than 1), the shot takes
    the last pair with a positive entry, so a zero-probability pair is never
    taken at all.

    Only two-party tables can be sampled; a table of any other number of
    parties raises ``ValueError``, and so does a table without one of the
    four setting pairs or with a row holding a non-finite entry or no
    positive entry.  ``shots`` and ``seed`` must be integers (numpy integers
    pass), or ``ValueError`` is raised.  More than ``SHOT_CAP`` shots raise
    ``TooLarge``.  All are checked before anything is allocated.
    """
    if table.n_parties != 2:
        raise ValueError(
            f"sampling needs a two-party table, got {table.n_parties} parties"
        )
    shots, seed = _as_integer("shots", shots), _as_integer("seed", seed)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > SHOT_CAP:
        raise TooLarge(f"{shots} shots exceed the cap of {SHOT_CAP}")
    rows = {choice: r for r, choice in enumerate(table.setting_choices())}
    n_pairs = table.probs[0, 0].size
    edges, beyond, offsets = [], [], []
    for pair in SCHEDULE:
        if pair not in rows:
            raise ValueError(f"setting pair {pair} is not a setting choice of the table")
        row = table.probs[table.index(pair)].ravel()
        if not np.isfinite(row).all():
            raise ValueError(f"setting pair {pair} has a non-finite table entry")
        positive = np.flatnonzero(row > 0.0)
        if not positive.size:
            raise ValueError(f"setting pair {pair} has no positive table entry")
        # The first edge above u is also the first running maximum above u, and
        # searchsorted needs sorted edges (a table may hold tiny negative entries).
        edges.append(np.maximum.accumulate(np.cumsum(row)))
        # u landed beyond the (~1.0) last edge: take the last positive entry
        beyond.append(int(positive[-1]))
        offsets.append(rows[pair] * n_pairs)
    cells = np.empty(shots, dtype=np.min_scalar_type(table.probs.size - 1))
    for start in range(0, shots, CHUNK):
        stop = min(start + CHUNK, shots)
        u = uniform_chunk(seed, start, stop)
        # CHUNK is a multiple of 4, so shots j, j + 4, ... of every chunk
        # measure SCHEDULE[j]
        for j in range(4):
            chosen = np.searchsorted(edges[j], u[j::4], side="right")
            chosen[chosen == n_pairs] = beyond[j]
            cells[start + j : stop : 4] = offsets[j] + chosen
    return ShotRecords(cells, table)


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
    cells: tuple[CellStats, ...]
    conditions: tuple[ConditionStats, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions if c.passed is not None)


def analyze(records: ShotRecords, exact_table: JointProbabilityTable) -> FrequencyReport:
    """Compare empirical frequencies against the exact table.

    A zero condition passes iff its outcome pair never occurred.  The flagged
    condition passes iff it occurred at least once and its frequency sits
    within ``DEFAULT_SIGMA`` binomial standard errors of the exact value.  Conditions
    whose setting pair received no shots are reported unevaluated.  An exact
    entry a hair outside [0, 1], as ``check`` tolerates, has standard error 0.

    Cells are counted per table entry, one ``np.bincount`` per ``CHUNK``
    shots, and read back one row per setting choice.  Records drawn from a
    table with other settings or outcomes than ``exact_table`` raise
    ``ValueError``.
    """
    axes = (exact_table.party_settings, exact_table.party_outcomes)
    if (records.table.party_settings, records.table.party_outcomes) != axes:
        raise ValueError("records were drawn from a table with other settings or outcomes")
    # bincount casts its input to intp: one chunk at a time keeps that copy
    # at CHUNK * 8 bytes instead of 8 bytes per shot
    per_entry = np.zeros(exact_table.probs.size, dtype=np.int64)
    for start in range(0, len(records), CHUNK):
        per_entry += np.bincount(records.cells[start : start + CHUNK], minlength=per_entry.size)
    counts = per_entry.reshape(-1, exact_table.probs[0, 0].size).tolist()
    cells = {}
    for choice, row_counts in zip(exact_table.setting_choices(), counts):
        n = sum(row_counts)
        for (outcomes, exact), count in zip(exact_table.row(choice), row_counts):
            freq = count / n if n else None
            se = (max(exact * (1.0 - exact), 0.0) / n) ** 0.5 if n else None
            cells[choice, outcomes] = CellStats(choice, outcomes, count, n, freq, exact, se)
    verdicts = []
    for cond in ZERO_CONDITIONS + (FLAGGED_CONDITION,):
        c = cells[cond.settings, cond.outcomes]
        if c.pair_shots == 0:
            passed = None
        elif cond.expect_zero:
            passed = c.count == 0
        else:
            passed = c.count > 0 and abs(c.frequency - c.exact) <= DEFAULT_SIGMA * c.std_error
        verdicts.append(ConditionStats(cond, c.count, c.pair_shots, c.frequency, c.exact, passed))
    return FrequencyReport(len(records), tuple(cells.values()), tuple(verdicts))


def _csv_chunks(records: ShotRecords):
    """The CSV text in pieces: the header, then one piece per CHUNK shots."""
    suffixes = [f",{s1},{s2},{o1},{o2}\n" for s1, s2, o1, o2 in records._fields]
    yield CSV_HEADER + "\n"
    for start, cells in records._chunks():
        yield "".join([f"{k}{suffixes[c]}" for k, c in enumerate(cells, start)])


def records_to_csv(records: ShotRecords) -> str:
    """CSV export: header plus one line per shot, LF line endings.

    The whole text is held in memory, the shot number's digits plus 11
    bytes per line for a construction table (about 19 B per shot at 10^8
    shots); :func:`export_csv` streams the same bytes to a file.
    """
    return "".join(_csv_chunks(records))


def export_csv(records: ShotRecords, path) -> None:
    """Write ``records_to_csv(records)`` to ``path``, one chunk at a time."""
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_chunks(records))
