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
by its Schmidt weights (``distinct_weight_pairs`` and ``hardy_probability``,
the same float the full report's closed form gives), and one full
``make_witness_report`` is built, for the winning leaf.  Within one call each
residual is peeled once per (path, target) prefix, so orders that share a
prefix share its peels.  For a generic 5-qubit state the exhaustive search
makes 285 peel calls (5 + 40 + 240) instead of 420 and one report instead of
480; the default order makes 7 peel calls and one report instead of 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure
from .hardy import (
    DEFAULT_EPS_DEG,
    DEFAULT_ZERO_TOL,
    FLAGGED_CONDITION,
    ZERO_CONDITIONS,
    JointProbabilityTable,
    Observable,
    WitnessReport,
    distinct_weight_pairs,
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

COMBINED_TOL = 1e-9


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
    vectors: tuple[np.ndarray, ...]
    marked: int
    marked_eigenvalue: int
    observable: Observable


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
    return Observable(f"T{subsystem + 1}", subsystem + 1, vectors)


def select_branch(
    branches: tuple[PeelBranch, ...],
    eps_deg: float = DEFAULT_EPS_DEG,
) -> int | None:
    """Index of the usable branch maximizing weight^2 x downstream probability.

    A branch is usable when its residual, after recursing through any further
    peeling, admits an applicable two-party test.  Returns ``None`` when no
    branch qualifies.
    """
    labels = tuple(range(len(branches[0].residual.dims))) if branches else ()
    best = _best_branch(branches, labels, None, eps_deg, {}, ())
    return None if best is None else best[0]


def _best_branch(
    branches: tuple[PeelBranch, ...],
    labels: tuple[int, ...],
    order: tuple[int, ...] | None,
    eps_deg: float,
    peels: dict,
    path: tuple[int, ...],
):
    """(index, branch, recursion result) of the best usable branch, or None.

    Scores are weight^2 x downstream combined probability; the strict ``>``
    keeps the first of equal scores.  Branch ``k`` continues ``path`` with
    ``k`` (see :func:`_recurse`).
    """
    best = None
    best_score = -1.0
    for k, br in enumerate(branches):
        sub = _recurse(br.residual, labels, order, eps_deg, peels, path + (k,))
        if sub is None:
            continue
        score = br.weight * br.weight * sub[3]
        if score > best_score:
            best = (k, br, sub)
            best_score = score
    return best


def _recurse(
    v: StateVector,
    labels: tuple[int, ...],
    order: tuple[int, ...] | None,
    eps_deg: float,
    peels: dict,
    path: tuple[int, ...] = (),
):
    """Return (steps, leaf_state, q_product, combined) or None.

    ``labels`` are the original subsystem indices of ``v``'s factors;
    ``order`` lists the original indices still to peel (None means default:
    highest label first).  A two-party leaf is scored by its Schmidt weights
    alone: ``combined`` carries the same ``hardy_probability`` float that
    ``make_witness_report`` returns as ``hardy_closed_form``, and no report
    is built here.  ``path`` lists the (target, branch index) choices that
    led from the searched state to ``v``; with the next target it keys
    ``peels``, so orders sharing a prefix peel each residual once.
    """
    if len(labels) == 2:
        d = schmidt_decompose(v, Bipartition((0,), (1,)))
        pairs = distinct_weight_pairs(d, eps_deg)
        if not pairs:
            return None
        i, j = pairs[0]
        return (), v, 1.0, hardy_probability(float(d.weights[i]), float(d.weights[j]))
    target = max(labels) if order is None else order[0]
    rest_order = None if order is None else order[1:]
    position = labels.index(target)
    rest_labels = tuple(l for l in labels if l != target)
    key = path + (target,)
    branches = peels.get(key)
    if branches is None:
        branches = peels[key] = peel(v, position)
    best = _best_branch(branches, rest_labels, rest_order, eps_deg, peels, key)
    if best is None:
        return None
    k, br, (sub_steps, leaf, sub_qprod, sub_combined) = best
    step = PeelStep(
        subsystem=target,
        weights=tuple(b.weight for b in branches),
        vectors=tuple(b.particle_vector for b in branches),
        marked=k,
        marked_eigenvalue=k + 1,
        observable=build_t_observable(branches, target),
    )
    q_sq = br.weight * br.weight
    return (step,) + sub_steps, leaf, q_sq * sub_qprod, q_sq * sub_combined


@dataclass(frozen=True)
class MultiConditionValue:
    label: str
    expect_zero: bool
    measured: float
    predicted: float
    within_tolerance: bool


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
    conditions: tuple[MultiConditionValue, ...] = ()


def _single_subsystem_split(n: int, subsystem: int) -> Bipartition:
    return Bipartition(
        (subsystem,), tuple(k for k in range(n) if k != subsystem)
    )


def _joint_probability(v: StateVector, projections) -> float:
    """Probability of a joint outcome given as (subsystem, kind, payload) steps.

    ``kind`` is "vector" (rank-1 projector onto payload) or "complement"
    (orthogonal complement of the payload vectors).  Projectors on distinct
    subsystems commute, so the chain rule over normalized residuals applies.
    """
    n = len(v.dims)
    total = 1.0
    current: StateVector | None = v
    for subsystem, kind, payload in projections:
        split = _single_subsystem_split(n, subsystem)
        if kind == "vector":
            prob, current = apply_local_projector(current, split, 1, payload)
        else:
            prob, current = apply_local_complement(current, split, 1, payload)
        total *= prob
        if current is None:
            break
    return total


def _condition_projections(witness: MultipartiteWitness, settings, outcomes):
    a, b = witness.final_subsystems
    construction = witness.final_report.construction
    projections = []
    for subsystem, label, outcome in (
        (a, settings[0], outcomes[0]),
        (b, settings[1], outcomes[1]),
    ):
        obs = construction.observable(label)
        if outcome == 0:
            projections.append((subsystem, "complement", obs.marked_vectors()))
        else:
            projections.append((subsystem, "vector", obs.vector(outcome)))
    for step in witness.steps:
        projections.append((step.subsystem, "vector", step.vectors[step.marked]))
    return projections


def _evaluate_conditions(
    v: StateVector, witness: MultipartiteWitness, zero_tol: float
) -> tuple[MultiConditionValue, ...]:
    values = []
    t_suffix = ", ".join(
        f"{s.observable.label}={s.marked_eigenvalue}" for s in witness.steps
    )
    for cond in ZERO_CONDITIONS + (FLAGGED_CONDITION,):
        measured = _joint_probability(
            v, _condition_projections(witness, cond.settings, cond.outcomes)
        )
        base = cond.label[:-1]  # strip ")"
        label = f"{base}, {t_suffix})"
        if cond.expect_zero:
            ok = measured < zero_tol
            predicted = 0.0
        else:
            predicted = witness.combined_probability
            ok = abs(measured - predicted) < COMBINED_TOL
        values.append(MultiConditionValue(label, cond.expect_zero, measured, predicted, ok))
        if not ok:
            raise NumericalFailure(
                f"joint condition {label} measured {measured!r}, "
                f"expected {'0' if cond.expect_zero else repr(predicted)}"
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
    ``exhaustive`` tries every peel order and keeps the most probable one.
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
        result = _recurse(v, labels, order, eps_deg, peels)
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
    report = make_witness_report(
        leaf, Bipartition((0,), (1,)), pair=None, eps_deg=eps_deg
    )
    peeled = {s.subsystem for s in steps}
    remaining = tuple(k for k in range(n) if k not in peeled)
    witness = MultipartiteWitness(
        applicable=True,
        reason=None,
        dims=v.dims,
        steps=steps,
        final_subsystems=(remaining[0], remaining[1]),
        final_report=report,
        q_product=q_product,
        combined_probability=combined,
    )
    return replace(witness, conditions=_evaluate_conditions(v, witness, zero_tol))


def multipartite_table(v: StateVector, witness: MultipartiteWitness) -> JointProbabilityTable:
    """Joint probability table over the final pair plus every peeled observable.

    Parties are ordered (final side 1, final side 2, peeled subsystems in
    peel order).  Peeled parties have a single setting; their outcome 0 (the
    complement of the branch vectors) appears only when the branch vectors do
    not already span the subsystem.
    """
    if not witness.applicable:
        raise ValueError("cannot tabulate a non-applicable witness")
    a, b = witness.final_subsystems
    construction = witness.final_report.construction
    party_settings: list[tuple[str, ...]] = [("X1", "Y1"), ("X2", "Y2")]
    party_outcomes: list[tuple[int, ...]] = [(1, -1, 0), (1, -1, 0)]
    for step in witness.steps:
        party_settings.append((step.observable.label,))
        outcomes = tuple(range(1, len(step.vectors) + 1))
        if len(step.vectors) < v.dims[step.subsystem]:
            outcomes += (0,)
        party_outcomes.append(outcomes)

    def projector_for(party: int, label: str, outcome: int):
        if party == 0 or party == 1:
            obs = construction.observable(label)
            subsystem = a if party == 0 else b
            if outcome == 0:
                return (subsystem, "complement", obs.marked_vectors())
            return (subsystem, "vector", obs.vector(outcome))
        step = witness.steps[party - 2]
        if outcome == 0:
            return (step.subsystem, "complement", step.vectors)
        return (step.subsystem, "vector", step.vectors[outcome - 1])

    entries: dict = {}
    for choice in itertools.product(*party_settings):
        for outcomes in itertools.product(*party_outcomes):
            projections = [
                projector_for(party, choice[party], outcomes[party])
                for party in range(len(choice))
            ]
            entries[(choice, outcomes)] = _joint_probability(v, projections)
    table = JointProbabilityTable(tuple(party_settings), tuple(party_outcomes), entries)
    table.check()
    return table
