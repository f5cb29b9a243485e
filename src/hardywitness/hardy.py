"""Hardy-type nonlocality test construction for bipartite pure states.

Given a Schmidt decomposition with two distinct weights, this module builds
the pair of rotated measurement bases on each side, the four ternary
observables X1, Y1, X2, Y2, the exact joint probability table, and the set
of conditions that make the test work: five joint outcomes with probability
exactly zero plus one flagged outcome (Y1=+1, Y2=+1) whose probability has
a closed form and is strictly positive whenever the chosen weights differ.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, NonPositiveWeight, NumericalFailure, TooLarge
from .schmidt import SchmidtDecomposition, schmidt_decompose
from .states import Bipartition, StateVector, reshape_bipartite

SIDE1_SETTINGS = ("X1", "Y1")
SIDE2_SETTINGS = ("X2", "Y2")
TERNARY_OUTCOMES = (1, -1, 0)

DEFAULT_EPS_DEG = 1e-9
DEFAULT_ZERO_TOL = 1e-10

# Tiny negative entries produced by cancellation in complement projections
# are clamped to zero; anything below this is a bug, not roundoff.
NEGATIVE_ENTRY_TOL = -1e-10
# Measured and closed-form flagged probabilities must agree this well.
CLOSED_FORM_TOL = 1e-9
# Supremum of hardy_probability(p1, p2) over p1^2 + p2^2 <= 1: the two-qubit
# maximum ((sqrt(5) - 1) / 2)^5.  The closed form is homogeneous of degree 2,
# so hardy_probability(p1, p2) <= HARDY_MAX * (p1^2 + p2^2) up to rounding.
HARDY_MAX = ((math.sqrt(5.0) - 1.0) / 2.0) ** 5
# Most grid points one scan may take: the sweep scores the (grid + 1) // 2
# points of the lower half, about 32 bytes per grid point in all, and the
# refinement only needs the grid to bracket the maximum.
GRID_CAP = 10**7


def hardy_probability(p1: float, p2: float) -> float:
    """Closed-form probability of the flagged (Y1=+1, Y2=+1) outcome.

    Symmetric in its arguments (exactly, including rounding: only commutative
    float operations see both weights) and zero exactly when they coincide.
    """
    cross = p1 * p2
    diff = p1 - p2
    den = (p1 * p1 + p2 * p2) - cross
    return (cross * cross) * (diff * diff) / (den * den)


def max_hardy_probability_qubit(grid: int = 10**6) -> tuple[float, float]:
    """Grid-plus-refinement maximum of the flagged probability for two qubits.

    The grid is ``k / (grid + 1)`` for ``k = 1 .. grid`` in the squared
    first weight t.  ``hardy_probability`` is symmetric in its two weights,
    so the probability at t equals the one at 1 - t, and the sweep scores
    only the ``(grid + 1) // 2`` points with t <= 1/2; it then refines
    around the best of them by golden-section search.  Returns
    ``(best_p1_squared, best_probability)``, always with the lower of the two
    mirror maxima, so ``best_p1_squared < 1/2``.  A ``grid`` that is not an
    integer (numpy integers pass) or below 2 raises ``ValueError``, and more
    than ``GRID_CAP`` points raise ``TooLarge``, before anything is allocated.
    """
    grid = _as_integer("grid", grid)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if grid > GRID_CAP:
        raise TooLarge(f"{grid} grid points exceed the cap of {GRID_CAP}")
    t = np.arange(1, (grid + 1) // 2 + 1, dtype=float) / (grid + 1)
    k = int(np.argmax(hardy_probability(np.sqrt(t), np.sqrt(1.0 - t))))
    step = 1.0 / (grid + 1)
    lo = max(t[k] - step, 0.0)
    hi = min(t[k] + step, 1.0)

    def f(x: float) -> float:
        return hardy_probability(math.sqrt(x), math.sqrt(1.0 - x))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-13:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    best_t = (a + b) / 2.0
    return best_t, f(best_t)


def _as_integer(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_tolerances(**tolerances: float) -> None:
    """Reject a tolerance (by keyword name) that is NaN, infinite, zero or negative."""
    for name, value in tolerances.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive")


def distinct_weight_pairs(
    weights: np.ndarray, eps_deg: float = DEFAULT_EPS_DEG
) -> list[tuple[int, int]]:
    """Index pairs of Schmidt ``weights`` that are distinct, best flagged probability first.

    ``weights`` are nonincreasing, as a decomposition stores them.  An empty
    list means the construction does not apply to this state (single
    Schmidt term, or all weights equal within ``eps_deg``).
    """
    _check_tolerances(eps_deg=eps_deg)
    # Python floats do the same IEEE arithmetic as numpy scalars, at a
    # fraction of the cost per operation.
    w = [float(x) for x in weights]
    rank = len(w)
    pairs = [
        (i, j)
        for i in range(rank)
        for j in range(i + 1, rank)
        if abs(w[i] - w[j]) > eps_deg
    ]
    pairs.sort(key=lambda ij: -hardy_probability(w[ij[0]], w[ij[1]]))
    return pairs


def no_pair_reason(rank: int) -> str:
    """Why a decomposition of this rank with no distinct weight pair is not applicable."""
    if rank == 1:
        return "rank 1 (product across this split)"
    return "all Schmidt weights equal within eps_deg"


def choose_pair(weights: np.ndarray, eps_deg: float = DEFAULT_EPS_DEG) -> tuple:
    """``(pair, None)`` for the best distinct pair of Schmidt ``weights``, else ``(None, reason)``.

    The reason is the not-applicable verdict every command reports.
    """
    pairs = distinct_weight_pairs(weights, eps_deg)
    return (pairs[0], None) if pairs else (None, no_pair_reason(len(weights)))


def build_unitaries(p1: float, p2: float) -> tuple[np.ndarray, np.ndarray]:
    """The two 2x2 unitaries of the construction for positive weights p1, p2.

    Returns ``(x_from_schmidt, y_from_x)``: the first maps the Schmidt pair
    to the x basis on either side, the second maps the x basis to the y basis.
    """
    if p1 <= 0 or p2 <= 0:
        raise NonPositiveWeight(f"weights must be positive, got ({p1}, {p2})")
    u = np.array(
        [
            [math.sqrt(p2), -1j * math.sqrt(p1)],
            [-1j * math.sqrt(p1), math.sqrt(p2)],
        ],
        dtype=np.complex128,
    ) / math.sqrt(p1 + p2)
    denom = math.sqrt(p1 * p1 + p2 * p2 - p1 * p2)
    v = np.array(
        [
            [-1j * (p2 - p1), math.sqrt(p1 * p2)],
            [math.sqrt(p1 * p2), -1j * (p2 - p1)],
        ],
        dtype=np.complex128,
    ) / denom
    u.setflags(write=False)
    v.setflags(write=False)
    return u, v


@dataclass(frozen=True)
class Observable:
    """Local observable: one marked unit eigenvector per nonzero outcome, plus a rest bin.

    ``outcome_vectors`` pairs each nonzero outcome with its eigenvector; the
    outcome 0 belongs to the orthogonal complement of all listed vectors and
    its projector is only ever applied implicitly.  The outcome alphabet is
    the table's: a peeled party whose vectors span its subsystem has no
    outcome 0 there.
    """

    label: str
    outcome_vectors: tuple[tuple[int, np.ndarray], ...]

    def vector(self, outcome: int) -> np.ndarray | None:
        for o, vec in self.outcome_vectors:
            if o == outcome:
                return vec
        if outcome == 0:
            return None
        raise ValueError(f"{self.label} has no outcome {outcome}")

    def marked_vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(vec for _, vec in self.outcome_vectors)


@dataclass(frozen=True)
class HardyConstruction:
    """Everything derived from one Schmidt decomposition and weight pair.

    ``observables`` are X1, Y1 (side 1) and X2, Y2 (side 2), in that order.
    """

    schmidt: SchmidtDecomposition
    pair: tuple[int, int]
    p1: float
    p2: float
    observables: tuple[Observable, Observable, Observable, Observable]

    @property
    def split(self) -> Bipartition:
        return self.schmidt.split

    def observable(self, label: str) -> Observable:
        for obs in self.observables:
            if obs.label == label:
                return obs
        raise ValueError(f"unknown observable {label!r}")


def _rotated_pair(rotation: np.ndarray, first: np.ndarray, second: np.ndarray):
    plus = rotation[0, 0] * first + rotation[0, 1] * second
    minus = rotation[1, 0] * first + rotation[1, 1] * second
    plus.setflags(write=False)
    minus.setflags(write=False)
    return plus, minus


def build_construction(
    d: SchmidtDecomposition,
    pair: tuple[int, int],
    eps_deg: float = DEFAULT_EPS_DEG,
    *,
    allow_degenerate: bool = False,
) -> HardyConstruction:
    """Build bases and observables for one weight pair of a decomposition.

    ``allow_degenerate`` skips the distinctness guard; with equal weights the
    y bases collapse onto the swapped x bases and the flagged probability is
    zero, which is occasionally useful as a control case.  ``eps_deg`` must
    be finite and positive either way, as for ``distinct_weight_pairs``.
    ``pair`` must be two distinct integers (numpy integers pass) below the
    rank, or ``ValueError`` is raised.
    """
    _check_tolerances(eps_deg=eps_deg)
    try:
        i, j = map(operator.index, pair)
    except (TypeError, ValueError):
        raise ValueError(f"pair {pair} invalid for rank {d.rank}") from None
    if not (0 <= i < d.rank and 0 <= j < d.rank) or i == j:
        raise ValueError(f"pair {pair} invalid for rank {d.rank}")
    p1 = float(d.weights[i])
    p2 = float(d.weights[j])
    if not allow_degenerate and abs(p1 - p2) <= eps_deg:
        raise DegeneratePair(
            f"weights {p1!r} and {p2!r} agree within eps_deg={eps_deg!r}"
        )
    x_from_schmidt, y_from_x = build_unitaries(p1, p2)
    yu = y_from_x @ x_from_schmidt
    a1, a2 = d.left_vectors[:, i], d.left_vectors[:, j]
    b1, b2 = d.right_vectors[:, i], d.right_vectors[:, j]
    x_plus_1, x_minus_1 = _rotated_pair(x_from_schmidt, a1, a2)
    y_plus_1, y_minus_1 = _rotated_pair(yu, a1, a2)
    x_plus_2, x_minus_2 = _rotated_pair(x_from_schmidt, b1, b2)
    y_plus_2, y_minus_2 = _rotated_pair(yu, b1, b2)
    observables = (
        Observable("X1", ((1, x_plus_1), (-1, x_minus_1))),
        Observable("Y1", ((1, y_plus_1), (-1, y_minus_1))),
        Observable("X2", ((1, x_plus_2), (-1, x_minus_2))),
        Observable("Y2", ((1, y_plus_2), (-1, y_minus_2))),
    )
    return HardyConstruction(d, (i, j), p1, p2, observables)


@dataclass(frozen=True)
class JointProbabilityTable:
    """Joint outcome distributions for every choice of one setting per party.

    ``probs`` is one read-only float64 array with one setting axis per party
    followed by one outcome axis per party: ``probs[s1, ..., sn, o1, ..., on]``
    is the probability that party k answers ``party_outcomes[k][ok]`` when it
    measures ``party_settings[k][sk]``.  Its C-order ravel follows
    :meth:`ordered_keys`, and the constructor accepts any array or sequence
    with that ravel (a flat list in key order included).  ``prob``, ``row``
    and the ``entries`` mapping are read from ``probs``.  Every party uses a
    single outcome alphabet across its settings.
    """

    party_settings: tuple[tuple[str, ...], ...]
    party_outcomes: tuple[tuple[int, ...], ...]
    probs: np.ndarray

    def __post_init__(self):
        shape = tuple(len(axis) for axis in (*self.party_settings, *self.party_outcomes))
        probs = np.array(self.probs, dtype=np.float64).reshape(shape)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_parties(self) -> int:
        return len(self.party_settings)

    @property
    def entries(self) -> Mapping:
        """Read-only ``{(settings, outcomes): probability}`` view, in key order."""
        return _TableEntries(self)

    def setting_choices(self):
        return itertools.product(*self.party_settings)

    def outcome_tuples(self):
        return itertools.product(*self.party_outcomes)

    def ordered_keys(self) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
        return [
            (choice, outcomes)
            for choice in self.setting_choices()
            for outcomes in self.outcome_tuples()
        ]

    def index(self, settings, outcomes=()) -> tuple[int, ...]:
        """Position in ``probs`` of one entry, or of a setting choice's row."""
        axes = (*self.party_settings, *self.party_outcomes)
        return tuple(axis.index(x) for axis, x in zip(axes, (*settings, *outcomes)))

    def prob(self, settings, outcomes) -> float:
        return float(self.probs[self.index(settings, outcomes)])

    def row(self, choice) -> list[tuple[tuple[int, ...], float]]:
        values = self.probs[self.index(choice)].ravel().tolist()
        return list(zip(self.outcome_tuples(), values))

    def check(self) -> None:
        """Validate entry range, per-choice normalization, and no-signalling.

        Each bound is ``DEFAULT_ZERO_TOL`` (the largest entry may exceed 1 by
        1e-12).  Each failure names the check and its worst value.  The
        comparisons are written so that a NaN entry fails them.
        """
        tol = DEFAULT_ZERO_TOL
        n = self.n_parties
        outcome_axes = tuple(range(n, 2 * n))
        low, high = float(self.probs.min()), float(self.probs.max())
        if not -tol <= low:
            raise NumericalFailure(f"entry range: smallest entry is {low!r}")
        if not high <= 1.0 + 1e-12:
            raise NumericalFailure(f"entry range: largest entry is {high!r}")
        totals = self.probs.sum(axis=outcome_axes)
        off = float(np.abs(totals - 1.0).max())
        if not off <= tol:
            raise NumericalFailure(f"normalization: a row sum misses 1 by {off!r}")
        for party in range(n):
            marginals = self.probs.sum(axis=tuple(a for a in outcome_axes if a != n + party))
            others = tuple(a for a in range(n) if a != party)
            spread = float((marginals.max(axis=others) - marginals.min(axis=others)).max())
            if not spread <= tol:
                raise NumericalFailure(
                    f"no-signalling: party {party}'s marginal moves with the "
                    f"other parties' settings by {spread!r}"
                )


class _TableEntries(Mapping):
    """Mapping view of a table: each lookup reads ``probs`` through ``prob``."""

    def __init__(self, table: JointProbabilityTable):
        self._table = table

    def __getitem__(self, key) -> float:
        try:
            return self._table.prob(*key)
        except (TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self):
        return iter(self._table.ordered_keys())

    def __len__(self) -> int:
        return self._table.probs.size


def _clamped(value: float) -> float:
    if value < NEGATIVE_ENTRY_TOL:
        raise NumericalFailure(f"probability {float(value)!r} below the roundoff floor")
    return max(value, 0.0)


def joint_table(v: StateVector, construction: HardyConstruction) -> JointProbabilityTable:
    """Exact joint probabilities of all four setting pairs on ``v``.

    Outcome-0 probabilities are computed by subtracting the two marked
    projections from the relevant marginal, so the complement projector is
    never materialized.
    """
    m = reshape_bipartite(v, construction.split)
    probs = np.empty((2, 2, 3, 3))
    for i1, s1 in enumerate(SIDE1_SETTINGS):
        a = construction.observable(s1).marked_vectors()
        for i2, s2 in enumerate(SIDE2_SETTINGS):
            b = construction.observable(s2).marked_vectors()
            # Amplitudes for the four (marked, marked) outcome pairs plus the
            # conditional side vectors needed for the 0 bins.
            w = [u.conj() @ m for u in a]
            z = [m @ u.conj() for u in b]
            p = probs[i1, i2]  # outcome index 0, 1, 2 is outcome +1, -1, 0
            for k1 in range(2):
                for k2 in range(2):
                    p[k1, k2] = float(abs(w[k1] @ b[k2].conj()) ** 2)
            for k in range(2):
                p[k, 2] = _clamped(float(np.vdot(w[k], w[k]).real) - p[k, 0] - p[k, 1])
                p[2, k] = _clamped(float(np.vdot(z[k], z[k]).real) - p[0, k] - p[1, k])
            rest = m.copy()
            for u, wk in zip(a, w):
                rest -= np.outer(u, wk)
            for u in b:
                rest -= np.outer(rest @ u.conj(), u)
            p[2, 2] = _clamped(float(np.linalg.norm(rest) ** 2))
    table = JointProbabilityTable(
        (SIDE1_SETTINGS, SIDE2_SETTINGS), (TERNARY_OUTCOMES, TERNARY_OUTCOMES), probs
    )
    table.check()
    return table


@dataclass(frozen=True)
class HardyCondition:
    """One joint-outcome condition of the test: a setting and an outcome per party."""

    settings: tuple[str, ...]
    outcomes: tuple[int, ...]
    expect_zero: bool

    @property
    def label(self) -> str:
        return entry_label(self.settings, self.outcomes)


def entry_label(settings, outcomes) -> str:
    """``P(X1=+1, X2=0, T3=2)``: X/Y outcomes signed, 0 and T branch numbers plain."""
    parts = (
        f"{s}={o}" if o == 0 or s.startswith("T") else f"{s}={o:+d}"
        for s, o in zip(settings, outcomes)
    )
    return f"P({', '.join(parts)})"


ZERO_CONDITIONS = (
    HardyCondition(("X1", "X2"), (1, 1), True),
    HardyCondition(("Y1", "X2"), (1, -1), True),
    HardyCondition(("X1", "Y2"), (-1, 1), True),
    HardyCondition(("Y1", "X2"), (1, 0), True),
    HardyCondition(("X1", "Y2"), (0, 1), True),
)
FLAGGED_CONDITION = HardyCondition(("Y1", "Y2"), (1, 1), False)


@dataclass(frozen=True)
class ConditionValue:
    condition: HardyCondition
    value: float
    within_tolerance: bool


def verify_equivalent_decompositions(
    v: StateVector, construction: HardyConstruction
) -> tuple[float, float, float]:
    """Max-norm residuals of the state's re-expansion in the three rotated forms."""
    d = construction.schmidt
    i, j = construction.pair
    p1, p2 = construction.p1, construction.p2
    m = reshape_bipartite(v, construction.split)
    tail = np.zeros_like(m)
    for k in range(d.rank):
        if k in (i, j):
            continue
        tail += d.weights[k] * np.outer(d.left_vectors[:, k], d.right_vectors[:, k])
    x_plus_1, x_minus_1 = construction.observable("X1").marked_vectors()
    x_plus_2, x_minus_2 = construction.observable("X2").marked_vectors()
    y_minus_1 = construction.observable("Y1").vector(-1)
    y_minus_2 = construction.observable("Y2").vector(-1)
    root_cross = 1j * math.sqrt(p1 * p2)
    root_mixed = 1j * math.sqrt(p1 * p1 + p2 * p2 - p1 * p2)
    form1 = (
        root_cross * (np.outer(x_plus_1, x_minus_2) + np.outer(x_minus_1, x_plus_2))
        + (p2 - p1) * np.outer(x_minus_1, x_minus_2)
        + tail
    )
    form2 = (
        root_mixed * np.outer(y_minus_1, x_minus_2)
        + root_cross * np.outer(x_minus_1, x_plus_2)
        + tail
    )
    form3 = (
        root_cross * np.outer(x_plus_1, x_minus_2)
        + root_mixed * np.outer(x_minus_1, y_minus_2)
        + tail
    )
    return tuple(float(np.max(np.abs(form - m))) for form in (form1, form2, form3))


@dataclass(frozen=True)
class WitnessReport:
    """Applicability verdict plus every quantity the test rests on."""

    applicable: bool
    reason: str | None
    split: Bipartition
    weights: tuple[float, ...]
    eps_deg: float
    zero_tol: float
    pair: tuple[int, int] | None = None
    p1: float | None = None
    p2: float | None = None
    zero_values: tuple[ConditionValue, ...] = ()
    hardy_measured: float | None = None
    hardy_closed_form: float | None = None
    residuals: tuple[float, float, float] | None = None
    table: JointProbabilityTable | None = None
    construction: HardyConstruction | None = None

    @property
    def all_conditions_hold(self) -> bool:
        return self.applicable and all(c.within_tolerance for c in self.zero_values)


def make_witness_report(
    v: StateVector,
    split: Bipartition,
    pair: tuple[int, int] | None = None,
    eps_deg: float = DEFAULT_EPS_DEG,
    zero_tol: float = DEFAULT_ZERO_TOL,
    *,
    allow_degenerate: bool = False,
) -> WitnessReport:
    """Build the full test report for one state and bipartition.

    With ``pair=None`` the pair comes from :func:`choose_pair`; when no
    distinct pair exists the state is reported as not applicable, with its
    reason (nothing can be concluded about it).  ``allow_degenerate`` goes
    to :func:`build_construction`.  The table has passed the closed-form
    check, or ``NumericalFailure`` is raised.  ``eps_deg`` and ``zero_tol``
    must be finite and positive, or ``ValueError`` is raised.
    """
    _check_tolerances(eps_deg=eps_deg, zero_tol=zero_tol)
    d = schmidt_decompose(v, split)
    weights = tuple(float(w) for w in d.weights)
    if pair is None:
        pair, reason = choose_pair(d.weights, eps_deg)
        if pair is None:
            return WitnessReport(False, reason, split, weights, eps_deg, zero_tol)
    construction = build_construction(d, pair, eps_deg, allow_degenerate=allow_degenerate)
    table = joint_table(v, construction)
    values = [table.prob(c.settings, c.outcomes) for c in ZERO_CONDITIONS]
    zero_values = tuple(
        ConditionValue(c, x, x < zero_tol) for c, x in zip(ZERO_CONDITIONS, values)
    )
    measured = table.prob(FLAGGED_CONDITION.settings, FLAGGED_CONDITION.outcomes)
    closed = hardy_probability(construction.p1, construction.p2)
    if abs(measured - closed) > CLOSED_FORM_TOL:
        raise NumericalFailure(
            f"measured flagged probability {measured!r} disagrees with "
            f"closed form {closed!r}"
        )
    residuals = verify_equivalent_decompositions(v, construction)
    return WitnessReport(
        applicable=True,
        reason=None,
        split=split,
        weights=weights,
        eps_deg=eps_deg,
        zero_tol=zero_tol,
        pair=pair,
        p1=construction.p1,
        p2=construction.p2,
        zero_values=zero_values,
        hardy_measured=measured,
        hardy_closed_form=closed,
        residuals=residuals,
        table=table,
        construction=construction,
    )
