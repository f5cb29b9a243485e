"""Local-model certification by deterministic-strategy enumeration and LP.

A local hidden-variable model for a joint probability table is, without loss
of generality, a probability mixture of deterministic local strategies: one
outcome pinned per setting per party, parties independent.  A table's
strategies form one ``StrategySpace`` of per-party answer-table arrays, whose
order the LP columns and a certificate's weights share.  Whether a mixture
reproduces the table exactly is a linear-programming feasibility question;
infeasibility comes with a Farkas dual vector, which reads as a Bell-type
linear inequality every local model obeys and the quantum table violates.

A party with a single setting can be folded into the hidden variable: its
one answer is part of the strategy, so the table has a local model exactly
when every slice of it does, where a slice fixes one outcome per
single-setting party.  This is the paper's many-particle argument, which
conditions on the outcomes of the peeled particles and runs the two-party
argument on what remains.  ``certify`` therefore solves one small LP per
slice over the remaining (core) parties' strategies and never forms the
dense system of the whole table.

The paper's set-theoretic argument is one such dual, with integer entries:
P(Y1=+1, Y2=+1) <= P(X1=+1, X2=+1) + P(Y1=+1, X2=-1) + P(X1=-1, Y2=+1) +
P(Y1=+1, X2=0) + P(X1=0, Y2=+1) on every slice; ``paper_inequality`` checks it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import NumericalFailure, TooLarge
from .hardy import (
    FLAGGED_CONDITION,
    SIDE1_SETTINGS,
    SIDE2_SETTINGS,
    TERNARY_OUTCOMES,
    ZERO_CONDITIONS,
    JointProbabilityTable,
)
from .simplex import FEAS_TOL, solve_equality_feasibility

if TYPE_CHECKING:
    from fractions import Fraction

STRATEGY_CAP = 10**6
# Strategy-side dual slack allowed on a verified infeasibility certificate.
DUAL_SLACK_TOL = 1e-12
# Quantum-side violation a certificate must exhibit to count.
MIN_MARGIN = 1e-9
# A feasible mixture must reproduce every table entry this well.
MIXTURE_TOL = 1e-8


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per setting per party; parties answer independently."""

    assignments: tuple[tuple[int, ...], ...]

    def outcome(self, party: int, setting_index: int) -> int:
        return self.assignments[party][setting_index]


class StrategySpace(Sequence):
    """Every deterministic local strategy of a table shape, in one fixed order.

    ``answers[p]`` holds party p's answer tables as integer rows, in
    ``itertools.product(outcomes, repeat=n_settings)`` order; item k, built only
    when read, takes row ``np.unravel_index(k, shape)[p]`` of each party p, and
    iteration yields the items in that order from a product over the rows.
    """

    def __init__(self, answers):
        self.answers = tuple(answers)
        self.shape = tuple(len(a) for a in self.answers)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, k) -> DeterministicStrategy:
        rows = np.unravel_index(range(len(self))[operator.index(k)], self.shape)
        return DeterministicStrategy(
            tuple(tuple(a[r].tolist()) for a, r in zip(self.answers, rows))
        )

    def __iter__(self):
        rows = [list(map(tuple, a.tolist())) for a in self.answers]
        return map(DeterministicStrategy, itertools.product(*rows))


def enumerate_strategies(settings_per_party, outcomes_per_party) -> StrategySpace:
    """Every deterministic local strategy of the given parties, as one ``StrategySpace``.

    ``settings_per_party`` counts the settings of each party (integers, numpy
    integers included, or ``ValueError``); ``outcomes_per_party`` gives each
    party's outcome alphabet.
    """
    try:
        counts = [operator.index(s) for s in settings_per_party]
    except TypeError:
        raise ValueError("setting counts must be integers") from None
    alphabets = [tuple(o) for o in outcomes_per_party]
    if len(counts) != len(alphabets):
        raise ValueError("settings and outcomes must list the same parties")
    total = math.prod(len(outs) ** s for s, outs in zip(counts, alphabets))
    if total > STRATEGY_CAP:
        raise TooLarge(f"{total} strategies exceed the cap of {STRATEGY_CAP}")
    return StrategySpace(
        np.array(list(itertools.product(outs, repeat=s))).reshape(-1, s)
        for s, outs in zip(counts, alphabets)
    )


def strategies_for_table(table: JointProbabilityTable) -> StrategySpace:
    return enumerate_strategies(
        [len(s) for s in table.party_settings], table.party_outcomes
    )


@dataclass
class LhvCertificate:
    """Feasibility verdict for a table, with the evidence either way.

    ``table`` is the certified table itself and ``strategies`` its
    ``StrategySpace``.  Feasible: ``weights`` is a probability vector over it
    whose mixture reproduces every entry.  Infeasible: ``dual`` (indexed by
    ``table.probs.ravel()``, that is ``entry_keys``, plus a trailing
    normalization component) satisfies dual . column <= 0 for every
    strategy and dual . table = ``margin`` > 0; for a table with
    single-setting parties it weighs one slice only (see ``certify``) and
    its normalization component is 0.
    """

    feasible: bool
    table: JointProbabilityTable
    strategies: StrategySpace
    weights: np.ndarray | None = None
    dual: np.ndarray | None = None
    margin: float | Fraction | None = None
    max_strategy_dot: float | None = None

    @property
    def entry_keys(self) -> tuple:
        """The table's ``ordered_keys()``, built when read."""
        return tuple(self.table.ordered_keys())


def _constraint_system(table: JointProbabilityTable, space: StrategySpace):
    """LP matrix ``a`` and right-hand side ``b``: rows ``ordered_keys()`` plus
    normalization, one column per strategy of ``space`` (the table's
    ``StrategySpace``), in its order.

    A strategy hits ``(choice, outcomes)`` when every party answers its own
    setting with its own outcome, so the matrix is the product over parties
    of one-hot (setting, outcome, local answer table) indicators, read from
    the space's answer arrays without building any strategy.  ``_sliced``
    passes the core parties' rows of the one space it enumerates, so each
    certificate builds one strategy space.
    """
    n = table.n_parties
    hits = np.ones((1,) * (3 * n))
    for party, (answers, outs) in enumerate(zip(space.answers, table.party_outcomes)):
        onehot = answers.T[:, None, :] == np.array(outs)[None, :, None]
        shape = [1] * (3 * n)
        shape[party], shape[n + party], shape[2 * n + party] = onehot.shape
        hits = hits * onehot.reshape(shape)
    hits = hits.reshape(table.probs.size, -1)
    a = np.vstack([hits, np.ones(hits.shape[1])])
    b = np.append(table.probs.ravel(), 1.0)
    return a, b


class _Slicing(NamedTuple):
    """A table's slices, each fixing one outcome per single-setting party.

    ``slices[s]`` and ``rows[s]`` hold the flat positions in ``probs`` and the
    values of slice s's entries, in ``core_table``'s key order; ``a`` is its
    constraint system over the core parties' rows of ``strategies``.
    """

    strategies: StrategySpace
    single: list[int]
    core: list[int]
    slices: np.ndarray
    rows: np.ndarray
    core_table: JointProbabilityTable
    a: np.ndarray

    def lift(self, s: int, y: np.ndarray) -> np.ndarray:
        """Slice s's dual ``y``, zero elsewhere; a last extra entry is the normalization's."""
        dual = np.zeros(self.slices.size + 1)
        dual[np.append(self.slices[s], -1)[: len(y)]] = y
        return dual


def _sliced(table: JointProbabilityTable) -> _Slicing:
    if not np.isfinite(table.probs).all():
        raise ValueError("cannot certify a table with a non-finite entry")
    strategies = strategies_for_table(table)
    n = table.n_parties
    single = [p for p in range(n) if len(table.party_settings[p]) == 1]
    core = [p for p in range(n) if p not in single]
    positions = np.arange(table.probs.size).reshape(table.probs.shape)
    positions = positions[tuple(0 if p in single else slice(None) for p in range(n))]
    k = len(core)
    slices = positions.transpose(
        [k + p for p in single] + list(range(k)) + [k + p for p in core]
    ).reshape(math.prod(len(table.party_outcomes[p]) for p in single), -1)
    rows = table.probs.ravel()[slices]
    axes = [tuple(axis[p] for p in core) for axis in (table.party_settings, table.party_outcomes)]
    core_table = JointProbabilityTable(*axes, rows[0])
    a, _ = _constraint_system(core_table, StrategySpace(strategies.answers[p] for p in core))
    return _Slicing(strategies, single, core, slices, rows, core_table, a)


def certify(table: JointProbabilityTable) -> LhvCertificate:
    """Decide whether any local mixture reproduces the table exactly.

    The table is certified as measured, tiny entries included, one slice at
    a time: a slice fixes one outcome per single-setting party, and its
    entries must lie in the cone of the other (core) parties' deterministic
    strategies.  Slices are solved in C order and the first infeasible one
    decides: its Farkas dual, lifted to the whole table with zeros on every
    other entry and on the normalization component, is ``dual``, so a full
    strategy outside that slice has dot exactly 0.  If every slice is
    feasible but their masses do not add up to 1, ``dual`` pairs the first
    setting block of every slice with the normalization component.
    Otherwise the slices' weights combine into one mixture over
    ``strategies``.  A table with no single-setting party is its own one
    slice and keeps the normalization row, so its LP is the dense one.
    Each slice's evidence is verified against that slice's own data before
    anything is returned; failing that verification raises, since it means
    the solver (not the physics) broke.  A table with a non-finite entry
    raises ``ValueError`` before any LP is built.
    """
    sliced = _sliced(table)
    strategies, single, core, rows = sliced.strategies, sliced.single, sliced.core, sliced.rows
    if single:
        # A slice's total weight is its own mass, which its setting blocks
        # already fix (each column has one hit per block), so sliced LPs
        # drop the normalization row.
        lp_rows, lp_rhs = sliced.a[:-1], rows
    else:
        lp_rows, lp_rhs = sliced.a, np.append(rows[0], 1.0)[None, :]
    solved, dual = [], None
    for s, rhs in enumerate(lp_rhs):
        result = solve_equality_feasibility(lp_rows, rhs)
        if result.feasible:
            solved.append(np.asarray(result.x))
            continue
        y = np.asarray(result.dual)
        dual = sliced.lift(s, y)
        max_dot = float((y @ lp_rows).max())
        if len(rows) > 1:
            max_dot = max(max_dot, 0.0)  # the other slices' strategies
        margin = float(y @ rhs)
        break
    else:
        # Every slice has a local model, but the normalization row that the
        # sliced LPs drop still asks that their masses add up to 1.  Where
        # they do not, the first setting block of every slice against that
        # row separates the table: each full strategy hits that block once.
        block = math.prod(len(table.party_outcomes[p]) for p in core)
        excess = float(rows[:, :block].sum()) - 1.0
        if abs(excess) > FEAS_TOL:
            dual = np.zeros(table.probs.size + 1)
            dual[sliced.slices[:, :block]] = math.copysign(1.0, excess)
            dual[-1] = -math.copysign(1.0, excess)
            max_dot, margin = 0.0, abs(excess)
    if dual is not None:
        if max_dot > DUAL_SLACK_TOL or margin < MIN_MARGIN:
            raise NumericalFailure(
                f"Farkas certificate failed verification: max strategy dot "
                f"{max_dot!r}, margin {margin!r}"
            )
        return LhvCertificate(
            False, table, strategies, dual=dual, margin=margin, max_strategy_dot=max_dot
        )
    weights = np.array(solved)
    if weights.min() < -1e-12:
        raise NumericalFailure(f"negative strategy weight {weights.min()!r}")
    weights = np.clip(weights, 0.0, None)
    weights = weights / weights.sum()
    residual = float(np.max(np.abs(weights @ sliced.a[:-1].T - rows)))
    if residual > MIXTURE_TOL:
        raise NumericalFailure(f"feasible mixture misses the table by {residual!r}")
    # A single-setting party's answer table is its slice outcome.
    counts = [strategies.shape[p] for p in single + core]
    weights = weights.reshape(counts).transpose(np.argsort(single + core)).ravel()
    return LhvCertificate(True, table, strategies, weights=weights)


def paper_inequality(table: JointProbabilityTable) -> LhvCertificate | None:
    """The paper's inequality as an exact certificate of a construction table, or ``None``.

    On each slice the integer dual is +1 on the flagged entry and -1 on the
    five zero-condition entries; its ``int64`` dot with every core strategy
    column must be at most 0, or ``NumericalFailure`` is raised.  A slice's
    ``margin`` is its flagged entry minus its zero entries, summed exactly as
    ``Fraction``s of the stored floats.  The first slice in C order whose
    margin reaches ``MIN_MARGIN`` is certified, its dual lifted as in
    ``certify``.  A table that is not construction-shaped raises ``ValueError``.
    """
    from fractions import Fraction  # loads decimal, which certify does without
    _check_construction_axes(table, "the paper's inequality", peeled=True)
    sliced = _sliced(table)
    y = np.zeros(sliced.slices.shape[1], dtype=np.int64)
    for cond, sign in [(FLAGGED_CONDITION, 1)] + [(c, -1) for c in ZERO_CONDITIONS]:
        position = sliced.core_table.index(cond.settings, cond.outcomes)
        y[np.ravel_multi_index(position, sliced.core_table.probs.shape)] = sign
    max_dot = int((y @ sliced.a[:-1].astype(np.int64)).max())
    if max_dot > 0:
        raise NumericalFailure(f"the paper's inequality exceeds a strategy column by {max_dot}")
    for s, row in enumerate(sliced.rows):
        margin = sum(int(y[k]) * Fraction(row[k]) for k in np.flatnonzero(y))
        if margin >= MIN_MARGIN:
            return LhvCertificate(
                False, table, sliced.strategies, dual=sliced.lift(s, y.astype(float)),
                margin=margin, max_strategy_dot=float(max_dot),
            )
    return None


def _check_construction_axes(table: JointProbabilityTable, needs: str, peeled: bool) -> None:
    """Name the requirement in a ``ValueError`` unless the multi-setting parties are the
    construction's two and the others, none unless ``peeled``, have one setting."""
    core = [p for p, labels in enumerate(table.party_settings) if len(labels) > 1]
    axes = tuple(tuple(a[p] for p in core) for a in (table.party_settings, table.party_outcomes))
    construction = ((SIDE1_SETTINGS, SIDE2_SETTINGS), (TERNARY_OUTCOMES, TERNARY_OUTCOMES))
    if axes != construction or (table.n_parties > 2 and not peeled):
        raise ValueError(
            f"{needs} needs a {'' if peeled else 'two-party '}construction table (settings "
            f"X1, Y1 | X2, Y2; outcomes 1, -1, 0{'; one setting for each other party' * peeled}), "
            f"got {table.n_parties} parties with settings "
            f"{table.party_settings} and outcomes {table.party_outcomes}"
        )


def idealized_table(table: JointProbabilityTable) -> JointProbabilityTable:
    """Copy of a ``joint_table`` table with the five zero-condition entries snapped to 0."""
    _check_construction_axes(table, "idealizing", peeled=False)
    probs = table.probs.copy()
    for cond in ZERO_CONDITIONS:
        probs[table.index(cond.settings, cond.outcomes)] = 0.0
    return JointProbabilityTable(table.party_settings, table.party_outcomes, probs)
