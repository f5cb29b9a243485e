"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls into hardywitness: the closed form, the strategy columns
of the local-model LP and the SplitMix64 sampler are re-implemented from
their definitions, so a check compares the program against a second source.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

EPS_DEG = 1e-9  # the program's default eps_deg
WEIGHT_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
DUAL_SLACK_TOL = 1e-12
MIN_MARGIN = 1e-9
MIXTURE_TOL = 1e-8
CLEAR_VIOLATION = 1e-6
CSV_HEADER = "shot,setting1,setting2,outcome1,outcome2"
SCHEDULE = (("X1", "X2"), ("X1", "Y2"), ("Y1", "X2"), ("Y1", "Y2"))

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT_2 = np.uint64(0x94D049BB133111EB)


def hardy_probability(p1: float, p2: float) -> float:
    """p1^2 p2^2 (p1 - p2)^2 / (p1^2 + p2^2 - p1 p2)^2."""
    return (p1 * p2) ** 2 * (p1 - p2) ** 2 / (p1 * p1 + p2 * p2 - p1 * p2) ** 2


def best_pair_probability(weights) -> float | None:
    """Largest closed form over weight pairs farther apart than EPS_DEG."""
    values = [
        hardy_probability(a, b)
        for a, b in itertools.combinations(weights, 2)
        if abs(a - b) > EPS_DEG
    ]
    return max(values) if values else None


def certificate_problems(table, cert, flagged: float) -> list[str]:
    """Check a certificate against the table's known flagged probability.

    A flagged probability above CLEAR_VIOLATION is far outside the LP's
    1e-9 feasibility tolerance, so the only right verdict is infeasible with
    a valid Farkas vector.  Below it the violation is within the solver's
    resolution and either verdict is accepted once its evidence re-verifies.
    """
    if not cert.feasible:
        return farkas_problems(table, cert)
    if flagged > CLEAR_VIOLATION:
        return [f"certificate says feasible, but the flagged probability is {flagged:.3e}"]
    return mixture_problems(table, cert)


def mixture_problems(table, cert) -> list[str]:
    """Re-verify a feasible certificate: its mixture must reproduce the table."""
    keys = list(cert.entry_keys)
    w = np.asarray(cert.weights, dtype=float)
    if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
        return ["mixture weights are not a probability vector"]
    mixed = np.zeros(len(keys))
    for strategy, weight in zip(cert.strategies, w):
        if weight == 0.0:
            continue
        mixed += weight * np.array([
            all(
                strategy.assignments[p][table.party_settings[p].index(choice[p])] == outs[p]
                for p in range(len(choice))
            )
            for choice, outs in keys
        ])
    residual = np.max(np.abs(mixed - [table.entries[k] for k in keys]))
    return [] if residual <= MIXTURE_TOL else [f"mixture misses the table by {residual:.3e}"]


def farkas_problems(table, cert) -> list[str]:
    """Re-verify an infeasibility certificate with locally built strategy columns.

    Each deterministic local strategy fixes one outcome per setting per
    party; its LP column is 1 on every table entry it produces, and 1 on the
    trailing normalization row.  The dual must have y.column <= 1e-12 for
    every strategy and y.b >= 1e-9 on the table itself.
    """
    y = np.asarray(cert.dual, dtype=float)
    keys = list(cert.entry_keys)
    if y.shape != (len(keys) + 1,):
        return [f"dual has shape {y.shape}, expected ({len(keys) + 1},)"]
    # hits[row, strategy] = 1 when the strategy produces that entry; built
    # party by party, since a local strategy is a product of party answers.
    hits = np.ones((len(keys), 1))
    for party, (labels, outcomes) in enumerate(
        zip(table.party_settings, table.party_outcomes)
    ):
        local = np.array(list(itertools.product(outcomes, repeat=len(labels))))
        setting = np.array([labels.index(choice[party]) for choice, _ in keys])
        wanted = np.array([outs[party] for _, outs in keys])
        party_hits = (local[:, setting].T == wanted[:, None]).astype(float)
        hits = (hits[:, :, None] * party_hits[:, None, :]).reshape(len(keys), -1)
    dots = y[:-1] @ hits + y[-1]
    b = np.array([table.entries[key] for key in keys] + [1.0])
    margin = float(y @ b)
    problems = []
    if dots.max() > DUAL_SLACK_TOL:
        problems.append(f"Farkas dual exceeds a strategy column by {dots.max():.3e}")
    if margin < MIN_MARGIN:
        problems.append(f"Farkas margin {margin:.3e} below {MIN_MARGIN}")
    return problems


def _uniforms(seed: int, shots: int) -> np.ndarray:
    counters = np.arange(1, shots + 1, dtype=np.uint64)
    z = np.uint64(seed % 2**64) + counters * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MULT_1
    z = (z ^ (z >> np.uint64(27))) * _MULT_2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def reference_sample(table, shots: int, seed: int):
    """Counts per (setting pair, outcome pair) and the CSV sha256 of a run.

    Shot k uses SplitMix64 word k of the seed's stream and schedule entry
    k mod 4; the outcome is the first pair whose cumulative probability
    exceeds the uniform variate, else the last pair with a positive edge.
    """
    outcome_pairs = list(itertools.product(*table.party_outcomes))
    u = _uniforms(seed, shots)
    pair_of_shot = np.arange(shots) % len(SCHEDULE)
    chosen = np.empty(shots, dtype=np.int64)
    for p, choice in enumerate(SCHEDULE):
        cdf = np.cumsum([table.entries[(choice, o)] for o in outcome_pairs])
        mask = pair_of_shot == p
        idx = np.searchsorted(cdf, u[mask], side="right")
        idx[idx == len(cdf)] = int(np.flatnonzero(cdf > 0.0)[-1])
        chosen[mask] = idx
    cell = pair_of_shot * len(outcome_pairs) + chosen
    counts = np.bincount(cell, minlength=len(SCHEDULE) * len(outcome_pairs))
    suffixes = [
        f",{s1},{s2},{o1},{o2}" for s1, s2 in SCHEDULE for o1, o2 in outcome_pairs
    ]
    digest = hashlib.sha256((CSV_HEADER + "\n").encode())
    chunk = 1 << 16
    for start in range(0, shots, chunk):
        stop = min(start + chunk, shots)
        rows = cell[start:stop].tolist()
        digest.update(
            "".join(
                f"{k}{suffixes[c]}\n" for k, c in zip(range(start, stop), rows)
            ).encode()
        )
    labelled = {
        (choice, outcomes): int(counts[p * len(outcome_pairs) + i])
        for p, choice in enumerate(SCHEDULE)
        for i, outcomes in enumerate(outcome_pairs)
    }
    return labelled, digest.hexdigest()
