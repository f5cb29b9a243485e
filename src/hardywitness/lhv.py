"""Local-model certification by deterministic-strategy enumeration and LP.

A local hidden-variable model for a joint probability table is, without loss
of generality, a probability mixture of deterministic local strategies: one
outcome pinned per setting per party, sides independent.  Whether such a
mixture reproduces the table exactly is a linear-programming feasibility
question over the strategy weights; infeasibility comes with a Farkas dual
vector, which reads as a Bell-type linear inequality every local model obeys
and the quantum table violates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, TooLarge
from .hardy import FLAGGED_CONDITION, ZERO_CONDITIONS, JointProbabilityTable
from .simplex import solve_equality_feasibility

STRATEGY_CAP = 10**6
# Strategy-side dual slack allowed on a verified infeasibility certificate.
DUAL_SLACK_TOL = 1e-12
# Quantum-side violation a certificate must exhibit to count.
MIN_MARGIN = 1e-9
# A feasible mixture must reproduce every table entry this well.
MIXTURE_TOL = 1e-8
# A flagged probability above this counts as positive.
FLAGGED_VALUE_TOL = 1e-12


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per setting per party; parties answer independently."""

    assignments: tuple[tuple[int, ...], ...]

    def outcome(self, party: int, setting_index: int) -> int:
        return self.assignments[party][setting_index]


def enumerate_strategies(
    settings_per_party, outcomes_per_party
) -> tuple[DeterministicStrategy, ...]:
    """Full Cartesian enumeration of deterministic local strategies.

    ``settings_per_party`` counts the settings of each party;
    ``outcomes_per_party`` gives each party's outcome alphabet.
    """
    counts = [int(s) for s in settings_per_party]
    alphabets = [tuple(o) for o in outcomes_per_party]
    if len(counts) != len(alphabets):
        raise ValueError("settings and outcomes must list the same parties")
    total = 1
    for s, outs in zip(counts, alphabets):
        total *= len(outs) ** s
    if total > STRATEGY_CAP:
        raise TooLarge(f"{total} strategies exceed the cap of {STRATEGY_CAP}")
    per_party = [
        tuple(itertools.product(outs, repeat=s)) for s, outs in zip(counts, alphabets)
    ]
    return tuple(
        DeterministicStrategy(tuple(assignment))
        for assignment in itertools.product(*per_party)
    )


def strategies_for_table(table: JointProbabilityTable) -> tuple[DeterministicStrategy, ...]:
    return enumerate_strategies(
        [len(s) for s in table.party_settings], table.party_outcomes
    )


@dataclass
class LhvCertificate:
    """Feasibility verdict for a table, with the evidence either way.

    Feasible: ``weights`` is a probability vector over ``strategies`` whose
    mixture reproduces every entry.  Infeasible: ``dual`` (indexed by
    ``entry_keys`` plus a trailing normalization component) satisfies
    dual . column <= 0 for every strategy and dual . table = ``margin`` > 0.
    """

    feasible: bool
    strategies: tuple[DeterministicStrategy, ...]
    entry_keys: tuple
    weights: np.ndarray | None = None
    dual: np.ndarray | None = None
    margin: float | None = None
    max_strategy_dot: float | None = None


def _constraint_system(table: JointProbabilityTable):
    """LP rows ``ordered_keys()`` plus normalization, one column per strategy.

    A strategy hits ``(choice, outcomes)`` when every party answers its own
    setting with its own outcome, so the matrix is the product over parties
    of one-hot (setting, outcome, local strategy) indicators.  Strategies
    come in ``itertools.product`` order over the parties' local answer
    tables, so party p's k-th table is held by strategy k * stride, where
    stride counts the strategies of the parties after p.
    """
    keys = tuple(table.ordered_keys())
    strategies = strategies_for_table(table)
    n = table.n_parties
    counts = [
        len(outs) ** len(labels)
        for labels, outs in zip(table.party_settings, table.party_outcomes)
    ]
    hits = np.ones((1,) * (3 * n))
    for party, outs in enumerate(table.party_outcomes):
        stride = math.prod(counts[party + 1 :])
        local = strategies[: counts[party] * stride : stride]
        answers = np.array([strategy.assignments[party] for strategy in local])
        onehot = answers.T[:, None, :] == np.array(outs)[None, :, None]
        shape = [1] * (3 * n)
        shape[party], shape[n + party], shape[2 * n + party] = onehot.shape
        hits = hits * onehot.reshape(shape)
    a = np.vstack([hits.reshape(len(keys), len(strategies)), np.ones(len(strategies))])
    b = np.append(table.probs.ravel(), 1.0)
    return keys, strategies, a, b


def certify(table: JointProbabilityTable) -> LhvCertificate:
    """Decide whether any local mixture reproduces the table exactly.

    The table is certified as measured, tiny entries included.  Both outcomes
    are verified against the raw constraint data before being returned;
    failing that verification raises, since it means the solver (not the
    physics) broke.
    """
    keys, strategies, a, b = _constraint_system(table)
    result = solve_equality_feasibility(a, b)
    if result.feasible:
        weights = np.asarray(result.x)
        if weights.min() < -1e-12:
            raise NumericalFailure(f"negative strategy weight {weights.min()!r}")
        weights = np.clip(weights, 0.0, None)
        weights = weights / weights.sum()
        residual = float(np.max(np.abs(a[:-1] @ weights - b[:-1])))
        if residual > MIXTURE_TOL:
            raise NumericalFailure(
                f"feasible mixture misses the table by {residual!r}"
            )
        return LhvCertificate(True, strategies, keys, weights=weights)
    y = np.asarray(result.dual)
    dots = y @ a
    max_dot = float(dots.max())
    margin = float(y @ b)
    if max_dot > DUAL_SLACK_TOL or margin < MIN_MARGIN:
        raise NumericalFailure(
            f"Farkas certificate failed verification: max strategy dot "
            f"{max_dot!r}, margin {margin!r}"
        )
    return LhvCertificate(
        False, strategies, keys, dual=y, margin=margin, max_strategy_dot=max_dot
    )


def idealized_table(table: JointProbabilityTable) -> JointProbabilityTable:
    """Copy of the table with the five zero-condition entries snapped to exact 0."""
    probs = table.probs.copy()
    for cond in ZERO_CONDITIONS:
        probs[table.index(cond.settings, cond.outcomes)] = 0.0
    return JointProbabilityTable(table.party_settings, table.party_outcomes, probs)


@dataclass(frozen=True)
class StrategyClassification:
    strategy: DeterministicStrategy
    targets_flagged: bool
    violated: tuple[str, ...]
    region: str  # "A": X1 != +1, "B": X2 != +1, "C": both +1


@dataclass(frozen=True)
class ContradictionTrace:
    """Exhaustive check that no local strategy survives the zero conditions.

    ``contradiction`` is true exactly when the flagged outcome is required to
    have positive probability while every strategy producing it violates at
    least one zero condition, i.e. when no local mixture can work.
    """

    contradiction: bool
    flagged_value: float
    rows: tuple[StrategyClassification, ...]
    n_targeting: int
    n_surviving_targeting: int


def verify_no_deterministic_model(flagged_value: float) -> ContradictionTrace:
    """Check every two-party deterministic strategy against the Hardy conditions.

    ``flagged_value`` is the probability the table gives the flagged outcome.
    Each strategy assigning +1 to both flagged settings is reported together
    with the zero condition it violates; strategies compatible with all five
    zero conditions never produce the flagged outcome, so a required positive
    flagged probability is a contradiction.
    """
    strategies = enumerate_strategies([2, 2], [(1, -1, 0), (1, -1, 0)])
    side_settings = (("X1", "Y1"), ("X2", "Y2"))

    def outcome_of(strategy, label):
        party = 0 if label in side_settings[0] else 1
        return strategy.outcome(party, side_settings[party].index(label))

    rows = []
    n_targeting = 0
    n_surviving_targeting = 0
    for strategy in strategies:
        violated = tuple(
            c.label
            for c in ZERO_CONDITIONS
            if outcome_of(strategy, c.settings[0]) == c.outcomes[0]
            and outcome_of(strategy, c.settings[1]) == c.outcomes[1]
        )
        targets = (
            outcome_of(strategy, FLAGGED_CONDITION.settings[0]) == FLAGGED_CONDITION.outcomes[0]
            and outcome_of(strategy, FLAGGED_CONDITION.settings[1]) == FLAGGED_CONDITION.outcomes[1]
        )
        if outcome_of(strategy, "X1") == 1 and outcome_of(strategy, "X2") == 1:
            region = "C"
        elif outcome_of(strategy, "X1") != 1:
            region = "A"
        else:
            region = "B"
        if targets:
            n_targeting += 1
            if not violated:
                n_surviving_targeting += 1
        rows.append(StrategyClassification(strategy, targets, violated, region))
    contradiction = flagged_value > FLAGGED_VALUE_TOL and n_surviving_targeting == 0
    return ContradictionTrace(
        contradiction,
        flagged_value,
        tuple(rows),
        n_targeting,
        n_surviving_targeting,
    )
