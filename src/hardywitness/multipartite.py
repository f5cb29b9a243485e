"""Single-particle reduction of the test to states of three or more parts.

One subsystem at a time is split off by a Schmidt decomposition; each branch
pairs a weight q_k with a residual state on the remaining subsystems and a
single-particle vector on the peeled one.  A branch whose residual (after
full recursion) admits the two-party test is marked, the peeled subsystem
gets a ternary-or-wider observable whose marked eigenvalue is nondegenerate
by construction, and the flagged joint outcome keeps a closed-form
probability: the product of the marked q_k^2 factors times the two-party
value.

The search does only the work its answer needs.  A two-party leaf is scored
by its Schmidt weights (``choose_pair`` and ``hardy_probability``, the same
float the full report's closed form gives), and one full
``make_witness_report`` is built, for the winning leaf.  Within one call each
residual is peeled once per (path, target) prefix, so orders that share a
prefix share its peels.

The search is also a branch-and-bound (Land & Doig, 1960).  The closed form
is homogeneous of degree 2, so a leaf never scores more than ``HARDY_MAX``
(the two-qubit maximum) times its weights' squared sum, which is at most 1.
The marked q^2 below a branch are at most 1 too, so a branch of weight q
scores at most q^2 * HARDY_MAX.  A branch whose cap, widened by
:data:`BOUND_SLACK`, cannot beat an earlier sibling, or whose marked-weight
prefix times that cap cannot beat the best order already finished, is
skipped unvisited.  A skipped branch could at best tie, and ties keep the
first result, so the answer is the unpruned search's, bit for bit.  For a
generic 5-qubit state the exhaustive search makes about 90 peel calls
instead of 285 (and 420 when every order peeled afresh) and one report
instead of 480; the default order makes 7 peel calls and one report.

Each table (and each witness's condition values) builds its measurement
chain once: every party's single-subsystem split and its setting-to-observable
map.  The entries share their projector chains: each prefix of (setting,
outcome) choices is projected once per table, so the 288 entries of a
5-qubit table take 254 local projections instead of 864.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .hardy import (
    CLOSED_FORM_TOL,
    DEFAULT_EPS_DEG,
    DEFAULT_ZERO_TOL,
    FLAGGED_CONDITION,
    HARDY_MAX,
    TERNARY_OUTCOMES,
    ZERO_CONDITIONS,
    ConditionValue,
    HardyCondition,
    JointProbabilityTable,
    Observable,
    WitnessReport,
    choose_pair,
    hardy_probability,
    make_witness_report,
)
from .schmidt import schmidt_decompose
from .states import (
    Bipartition,
    StateVector,
    apply_local_complement,
    apply_local_projector,
)

# Widens the branch cap q^2 * HARDY_MAX of the search's bound to cover
# rounding: marked q^2 multiplied top-down against bottom-up, and weights
# whose squares sum to slightly more than 1.
BOUND_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class PeelBranch:
    """One term of a single-subsystem Schmidt split."""

    weight: float
    residual: StateVector
    particle_vector: np.ndarray


@dataclass(frozen=True)
class PeelStep:
    """A peeled subsystem with its branch weights and marked branch."""

    subsystem: int  # original 0-based index
    weights: tuple[float, ...]
    marked: int
    observable: Observable

    @property
    def marked_eigenvalue(self) -> int:
        """The T observable's eigenvalue of the marked branch (see build_t_observable)."""
        return self.marked + 1


def peel(v: StateVector, subsystem: int) -> tuple[PeelBranch, ...]:
    """Schmidt-split one subsystem off the rest.

    Branch weights are nonincreasing; residuals are normalized states on the
    remaining subsystems in their original order.
    """
    n = len(v.dims)
    if n < 3:
        raise ValueError("peeling needs at least three subsystems")
    others = tuple(k for k in range(n) if k != subsystem)
    split = Bipartition(others, (subsystem,))
    d = schmidt_decompose(v, split)
    residual_dims = tuple(v.dims[k] for k in others)
    branches = []
    for k in range(d.rank):
        residual = StateVector(
            residual_dims, np.ascontiguousarray(d.left_vectors[:, k])
        )
        residual.amps.setflags(write=False)
        tau = np.ascontiguousarray(d.right_vectors[:, k])
        tau.setflags(write=False)
        branches.append(PeelBranch(float(d.weights[k]), residual, tau))
    return tuple(branches)


def build_t_observable(
    branches: tuple[PeelBranch, ...], subsystem: int
) -> Observable:
    """Observable on the peeled subsystem with one eigenvalue per branch.

    Eigenvalues are the integers 1..r in branch order, so every one of them
    (in particular any marked one) is nondegenerate; 0 is reserved for the
    complement of the branch vectors.
    """
    vectors = tuple((k + 1, br.particle_vector) for k, br in enumerate(branches))
    return Observable(f"T{subsystem + 1}", vectors)


def _recurse(
    v: StateVector,
    labels: tuple[int, ...],
    order: tuple[int, ...],
    eps_deg: float,
    peels: dict,
    path: tuple[int, ...],
    prefix: float,
    floor: float,
):
    """Return (steps, leaf_state, q_product, combined) or None.

    ``labels`` are the original subsystem indices of ``v``'s factors;
    ``order`` lists the original indices still to peel.  A two-party leaf is
    scored by its Schmidt weights alone: ``combined`` carries the same
    ``hardy_probability`` float that ``make_witness_report`` returns as
    ``hardy_closed_form``, and no report is built here.  ``path`` lists the
    (target, branch index) choices that led from the searched state to
    ``v``; with the next target it keys ``peels``, so orders sharing a prefix
    peel each residual once.

    A branch scores weight^2 x its downstream combined probability, and the
    strict ``>`` keeps the first of equal scores.  Branch ``k`` is skipped
    unvisited when its cap, ``q_k^2 * HARDY_MAX`` widened by
    :data:`BOUND_SLACK`, is at most the best score of an earlier branch here,
    or when ``prefix`` (the product of the marked q^2 above this node) times
    the cap is at most ``floor`` (the best combined probability of the
    orders already finished).  The cap bounds the branch's score, so a
    skipped branch could at best tie the one kept, and the strict ``>``
    never lets a tie replace it.  A result scoring at most ``floor / prefix``
    may come back worse than the full search's, or as None, but such a
    result never wins.
    """
    if len(labels) == 2:
        d = schmidt_decompose(v, Bipartition((0,), (1,)))
        pair, _ = choose_pair(d, eps_deg)
        if pair is None:
            return None
        i, j = pair
        return (), v, 1.0, hardy_probability(float(d.weights[i]), float(d.weights[j]))
    target = order[0]
    key = path + (target,)
    branches = peels.get(key)
    if branches is None:
        branches = peels[key] = peel(v, labels.index(target))
    rest_labels = tuple(l for l in labels if l != target)
    best = None
    best_score = -1.0
    for k, br in enumerate(branches):
        q_sq = br.weight * br.weight
        cap = q_sq * HARDY_MAX * BOUND_SLACK
        if cap <= best_score or prefix * cap <= floor:
            continue
        sub = _recurse(
            br.residual, rest_labels, order[1:], eps_deg, peels, key + (k,), prefix * q_sq, floor
        )
        if sub is not None and q_sq * sub[3] > best_score:
            best = (k, q_sq, sub)
            best_score = q_sq * sub[3]
    if best is None:
        return None
    k, q_sq, (sub_steps, leaf, sub_qprod, sub_combined) = best
    step = PeelStep(
        subsystem=target,
        weights=tuple(b.weight for b in branches),
        marked=k,
        observable=build_t_observable(branches, target),
    )
    return (step,) + sub_steps, leaf, q_sq * sub_qprod, q_sq * sub_combined


@dataclass(frozen=True)
class MultipartiteWitness:
    """Peeling chain, final two-party report, and the combined probability."""

    applicable: bool
    reason: str | None
    dims: tuple[int, ...]
    steps: tuple[PeelStep, ...] = ()
    final_subsystems: tuple[int, int] | None = None
    final_report: WitnessReport | None = None
    q_product: float | None = None
    combined_probability: float | None = None
    conditions: tuple[ConditionValue, ...] = ()


def _chain(n: int, construction, final_subsystems, steps) -> tuple:
    """Each party's single-subsystem split and {setting label: observable} map.

    Parties are ordered as in :func:`multipartite_table`: the final pair's
    sides 1 and 2 (X1, Y1 and X2, Y2, the construction's observables in
    order), then the peeled subsystems in peel order, each with its single T
    observable.
    """
    x1, y1, x2, y2 = construction.observables
    parties = [
        (final_subsystems[0], {x1.label: x1, y1.label: y1}),
        (final_subsystems[1], {x2.label: x2, y2.label: y2}),
    ]
    parties += [(s.subsystem, {s.observable.label: s.observable}) for s in steps]
    return tuple(
        (Bipartition((k,), tuple(j for j in range(n) if j != k)), observables)
        for k, observables in parties
    )


def _entry_probability(v: StateVector, chain, settings, outcomes, memo: dict) -> float:
    """Probability of one joint outcome of the final pair and the peeled parties.

    Outcome 0 projects onto the orthogonal complement of the observable's
    marked vectors.  Projectors on distinct subsystems commute, so the chain
    rule over normalized residuals applies.

    ``memo`` maps a chain prefix ``(settings[:i + 1], outcomes[:i + 1])`` to
    its (running total, residual), so entries that share a prefix project it
    once.  Each entry still gets the float operations of its own chain, in
    the same order.
    """
    total = 1.0
    current: StateVector | None = v
    for i, ((split, observables), outcome) in enumerate(zip(chain, outcomes)):
        key = (settings[: i + 1], outcomes[: i + 1])
        hit = memo.get(key)
        if hit is not None:
            total, current = hit
        else:
            obs = observables[settings[i]]
            if outcome == 0:
                prob, current = apply_local_complement(current, split, obs.marked_vectors())
            else:
                prob, current = apply_local_projector(current, split, obs.vector(outcome))
            total *= prob
            memo[key] = (total, current)
        if current is None:
            break
    return total


def _evaluate_conditions(
    v: StateVector, chain, steps: tuple[PeelStep, ...], combined: float, zero_tol: float
) -> tuple[ConditionValue, ...]:
    """The six conditions, each widened by every peeled party's marked outcome."""
    values = []
    t_settings = tuple(s.observable.label for s in steps)
    t_outcomes = tuple(s.marked_eigenvalue for s in steps)
    memo: dict = {}
    for cond in ZERO_CONDITIONS + (FLAGGED_CONDITION,):
        joint = HardyCondition(
            cond.settings + t_settings, cond.outcomes + t_outcomes, cond.expect_zero
        )
        measured = _entry_probability(v, chain, joint.settings, joint.outcomes, memo)
        if cond.expect_zero:
            ok = measured < zero_tol
        else:
            ok = abs(measured - combined) < CLOSED_FORM_TOL
        values.append(ConditionValue(joint, measured, ok))
        if not ok:
            raise NumericalFailure(
                f"joint condition {joint.label} measured {measured!r}, "
                f"expected {'0' if cond.expect_zero else repr(combined)}"
            )
    return tuple(values)


def multipartite_witness(
    v: StateVector,
    peel_order: tuple[int, ...] | None = None,
    *,
    exhaustive: bool = False,
    eps_deg: float = DEFAULT_EPS_DEG,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> MultipartiteWitness:
    """Reduce an n-part state (n >= 3) to single-particle observables.

    By default subsystems are peeled highest index first.  ``peel_order``
    overrides the default with explicit original indices (n - 2 of them);
    ``exhaustive`` tries every peel order and keeps the most probable one; it
    cannot be combined with ``peel_order``.
    Not-applicable verdicts carry no claim that the state admits a local
    model; they only mean this construction found no usable branch.

    Candidate leaves are scored from their Schmidt weights only; the full
    two-party report (construction, joint table and its checks) is built
    once, for the winning leaf, and raises :class:`NumericalFailure` as
    before if that leaf fails its checks.  A losing leaf never gets a
    report, so a numerical failure that only its report would have shown
    no longer aborts the call.
    """
    n = len(v.dims)
    if n < 3:
        raise ValueError("multipartite reduction needs at least three subsystems")
    labels = tuple(range(n))
    if exhaustive:
        if peel_order is not None:
            raise ValueError("peel_order cannot be combined with exhaustive (every order is tried)")
        orders = list(itertools.permutations(labels, n - 2))
    elif peel_order is not None:
        order = tuple(int(k) for k in peel_order)
        if len(order) != n - 2 or len(set(order)) != len(order) or not all(
            0 <= k < n for k in order
        ):
            raise ValueError(f"peel order {order} invalid for {n} subsystems")
        orders = [order]
    else:
        orders = [tuple(range(n - 1, 1, -1))]
    best = None
    best_combined = -1.0
    peels: dict = {}
    for order in orders:
        # the floor is the best finished order, never a partial one
        result = _recurse(v, labels, order, eps_deg, peels, (), 1.0, best_combined)
        if result is not None and result[3] > best_combined:
            best = result
            best_combined = result[3]
    if best is None:
        return MultipartiteWitness(
            applicable=False,
            reason="no peeling branch leads to an applicable two-party test",
            dims=v.dims,
        )
    steps, leaf, q_product, combined = best
    report = make_witness_report(leaf, Bipartition((0,), (1,)), pair=None, eps_deg=eps_deg)
    peeled = {s.subsystem for s in steps}
    final = tuple(k for k in range(n) if k not in peeled)
    chain = _chain(n, report.construction, final, steps)
    return MultipartiteWitness(
        applicable=True,
        reason=None,
        dims=v.dims,
        steps=steps,
        final_subsystems=final,
        final_report=report,
        q_product=q_product,
        combined_probability=combined,
        conditions=_evaluate_conditions(v, chain, steps, combined, zero_tol),
    )


def multipartite_table(v: StateVector, witness: MultipartiteWitness) -> JointProbabilityTable:
    """Joint probability table over the final pair plus every peeled observable.

    Parties are ordered (final side 1, final side 2, peeled subsystems in
    peel order).  Peeled parties have a single setting; their outcome 0 (the
    complement of the branch vectors) appears only when the branch vectors do
    not already span the subsystem.
    """
    if not witness.applicable:
        raise ValueError("cannot tabulate a non-applicable witness")
    chain = _chain(
        len(v.dims), witness.final_report.construction, witness.final_subsystems, witness.steps
    )
    party_settings = tuple(tuple(observables) for _, observables in chain)
    party_outcomes: list[tuple[int, ...]] = [TERNARY_OUTCOMES, TERNARY_OUTCOMES]
    for step in witness.steps:
        outcomes = tuple(range(1, len(step.weights) + 1))
        if len(step.weights) < v.dims[step.subsystem]:
            outcomes += (0,)
        party_outcomes.append(outcomes)
    memo: dict = {}
    probs = [
        _entry_probability(v, chain, choice, outcomes, memo)
        for choice in itertools.product(*party_settings)
        for outcomes in itertools.product(*party_outcomes)
    ]
    table = JointProbabilityTable(party_settings, tuple(party_outcomes), probs)
    table.check()
    return table
