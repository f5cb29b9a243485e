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
by its Schmidt weights alone (``schmidt_weights``, which builds no vectors,
then ``choose_pair`` and ``hardy_probability``: the same float the full
report's closed form gives), and one full ``make_witness_report`` is built,
for the winning leaf.  Within one call the search keeps one memo keyed by
content: a residual's amplitude bytes and dimensions, with the local index
of the peeled factor for a peel.  Every path that reaches the same residual,
bit for bit, shares its peel and its leaf score, so the GHZ, W and product
states whose peel orders meet in a few residuals are solved once each.  An
exhaustive search draws its orders lazily, and more than :data:`ORDER_CAP`
orders raise ``TooLarge`` before any peel.

The search is also a branch-and-bound (Land & Doig, 1960).  The closed form
is homogeneous of degree 2, so a leaf never scores more than ``HARDY_MAX``
(the two-qubit maximum) times its weights' squared sum, which is at most 1.
The marked q^2 below a branch are at most 1 too, so a branch of weight q
scores at most q^2 * HARDY_MAX.  A branch whose cap, widened by
:data:`BOUND_SLACK`, cannot beat an earlier sibling, or whose marked-weight
prefix times that cap cannot beat the best order already finished, is
skipped unvisited.  A skipped branch could at best tie, and ties keep the
first result, so the answer is the unpruned search's, bit for bit.

Once an order has finished, a node is also capped before it is peeled.
Along any chain of peels below it, the marked q^2 of the parties still to
peel multiply to the squared overlap of its residual with a product vector
on those parties, which is at most the top eigenvalue of their reduced state
(the geometric-measure bound; Wei & Goldbart, PRA 68, 042307, 2003).
:func:`peel_chain_cap` bounds that eigenvalue from above with three small
matrix products and no eigensolver, and a node whose prefix times that cap
times ``HARDY_MAX`` cannot beat the best finished order is skipped unpeeled.
For a generic 5-qubit state the exhaustive search makes 54 peel calls and
one report; the default order makes 7 peel calls, one report and no cap.
For GHZ5 it makes 19 peel calls and for W5 22: neither finishes an
applicable order, so neither is ever capped.

An applicable witness measures the joint table of its winning order once
and keeps it: its six conditions are entries of that table, which has passed
``check()``, and :func:`multipartite_table` returns it without walking the
state again.  One depth-first walk over the measurement chain (each party's
subsystem and its observables) fills the table: each prefix of (setting,
outcome) choices is projected once, and the last party, a peeled one with a
single setting, gets outcome probabilities only, with no residual.  The 288
entries of a 5-qubit table take 126 residual-carrying projections and 128
probability-only evaluations instead of 864 projections.  Each residual
stays the coefficient matrix of the party just projected, and one transposed
copy makes it the next party's, with no state vector rebuilt in between.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, TooLarge
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
    _check_tolerances,
    choose_pair,
    hardy_probability,
    make_witness_report,
)
from .schmidt import schmidt_decompose, schmidt_weights
# apply_local_projector and apply_local_complement are unused here: perfbench/tracing.py
# patches them.
from .states import (
    PROJECTION_FLOOR,
    Bipartition,
    StateVector,
    _check_side_vector,
    apply_local_complement,
    apply_local_projector,
    complement_side1,
    project_side1,
    reshape_bipartite,
)

# Widens the branch cap q^2 * HARDY_MAX of the search's bound to cover
# rounding: marked q^2 multiplied top-down against bottom-up, and weights
# whose squares sum to slightly more than 1.
BOUND_SLACK = 1.0 + 1e-9
# Added to the spectral cap of :func:`peel_chain_cap` to cover the rounding
# of its matrix products and of the Jacobi weights a chain multiplies.
CAP_ROUNDING = 1e-12
# Most peel orders one exhaustive search may try: n!/2 orders for n parties,
# so up to 8 parties (20 160 orders) are searched and 9 (181 440) are refused.
ORDER_CAP = 10**5
# The split of every two-party leaf.
LEAF_SPLIT = Bipartition((0,), (1,))


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


def peel_chain_cap(v: StateVector, positions: tuple[int, ...]) -> float:
    """A cap on the product of marked q^2 along any chain that peels ``positions``.

    Peeling the factors at the local ``positions`` one after another, in any
    order and through any branches, multiplies q^2 factors whose product is
    the squared overlap of ``v`` with a product vector on those factors.  That
    overlap is at most the top eigenvalue of their reduced state (the
    geometric-measure bound; Wei & Goldbart, PRA 68, 042307, 2003).  The cap
    needs no eigensolver: with G the Gram matrix of the smaller side of the
    split (``positions`` | the rest), whose nonzero eigenvalues are the
    reduced state's, ``||G^2 G^2||_F^(1/4) = (sum of lambda^8)^(1/8)`` is at
    least lambda_max, and :data:`CAP_ROUNDING` is added for rounding.
    """
    rest = tuple(k for k in range(len(v.dims)) if k not in positions)
    side = math.prod(v.dims[k] for k in positions)
    split = Bipartition(positions, rest)
    m = reshape_bipartite(v, split if side * side <= v.amps.size else split.swapped())
    g = m @ m.conj().T
    g2 = g @ g
    return float(np.linalg.norm(g2 @ g2)) ** 0.25 + CAP_ROUNDING


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
    memo: dict,
    prefix: float,
    floor: float,
):
    """Return (steps, leaf_state, q_product, combined) or None.

    ``labels`` are the original subsystem indices of ``v``'s factors;
    ``order`` lists the original indices still to peel.  A two-party leaf is
    scored by its Schmidt weights alone (:func:`schmidt_weights`, no
    vectors): ``combined`` carries the same ``hardy_probability`` float that
    ``make_witness_report`` returns as ``hardy_closed_form``, and no report
    is built here.  ``memo`` is keyed by content: ``(dims, amplitude
    bytes)`` holds a leaf's score, ``(dims, amplitude bytes, local index)``
    the peel of that factor and ``(dims, amplitude bytes, local positions)``
    the :func:`peel_chain_cap` of the factors still to peel, which depends
    on their set and not their order.  Peels, scores and caps are
    deterministic functions of those bytes, so every path that reaches a
    residual with the same bytes shares them.

    A branch scores weight^2 x its downstream combined probability, and the
    strict ``>`` keeps the first of equal scores.  Branch ``k`` is skipped
    unvisited when its cap, ``q_k^2 * HARDY_MAX`` widened by
    :data:`BOUND_SLACK`, is at most the best score of an earlier branch here,
    or when ``prefix`` (the product of the marked q^2 above this node) times
    the cap is at most ``floor`` (the best combined probability of the
    orders already finished).  The cap bounds the branch's score, so a
    skipped branch could at best tie the one kept, and the strict ``>``
    never lets a tie replace it.

    Once an order has finished (``floor > 0``), a node that still has a
    party to peel is skipped before its peel when ``prefix`` times its
    ``peel_chain_cap`` R times ``HARDY_MAX``, widened by
    :data:`BOUND_SLACK`, is at most ``floor``.  Every result below the node
    multiplies marked q^2 whose product is at most R, and a leaf score at
    most ``HARDY_MAX``, so the node could at best tie the order already
    finished, and the strict ``>`` between orders keeps that one.  Default
    and explicit-order searches finish no order before their only one, so
    they never compute R.  A result scoring at most ``floor / prefix`` may
    come back worse than the full search's, or as None, but such a result
    never wins.
    """
    content = (v.dims, v.amps.tobytes())
    if len(labels) == 2:
        if content not in memo:
            w = schmidt_weights(v, LEAF_SPLIT)
            pair, _ = choose_pair(w, eps_deg)
            memo[content] = None if pair is None else hardy_probability(
                float(w[pair[0]]), float(w[pair[1]])
            )
        score = memo[content]
        return None if score is None else ((), v, 1.0, score)
    if floor > 0:
        still = tuple(i for i, label in enumerate(labels) if label in order)
        cap_key = content + (still,)
        chain_cap = memo.get(cap_key)
        if chain_cap is None:
            chain_cap = memo[cap_key] = peel_chain_cap(v, still)
        if prefix * chain_cap * HARDY_MAX * BOUND_SLACK <= floor:
            return None
    target = order[0]
    position = labels.index(target)
    key = content + (position,)
    branches = memo.get(key)
    if branches is None:
        branches = memo[key] = peel(v, position)
    rest_labels = labels[:position] + labels[position + 1:]
    best = None
    best_score = -1.0
    for k, br in enumerate(branches):
        q_sq = br.weight * br.weight
        cap = q_sq * HARDY_MAX * BOUND_SLACK
        if cap <= best_score or prefix * cap <= floor:
            continue
        sub = _recurse(br.residual, rest_labels, order[1:], eps_deg, memo, prefix * q_sq, floor)
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
    """Peeling chain, final two-party report, combined probability and checked table.

    ``state`` is the state the witness was searched on.  An applicable
    witness carries ``table``, the joint table of its observables measured
    on ``state`` (see :func:`multipartite_table`), and each of its six
    ``conditions`` is an entry of that table.
    """

    applicable: bool
    reason: str | None
    state: StateVector
    steps: tuple[PeelStep, ...] = ()
    final_subsystems: tuple[int, int] | None = None
    final_report: WitnessReport | None = None
    q_product: float | None = None
    combined_probability: float | None = None
    conditions: tuple[ConditionValue, ...] = ()
    table: JointProbabilityTable | None = None

    @property
    def dims(self) -> tuple[int, ...]:
        return self.state.dims


def _chain_probabilities(v: StateVector, parties, party_outcomes) -> np.ndarray:
    """Joint outcome probabilities of the final pair and the peeled parties.

    ``parties`` lists each party's subsystem and its observables, one per
    setting.  Returns an array with one setting axis per party followed by
    one outcome axis per party, as :class:`JointProbabilityTable` stores
    them.  One depth-first walk over the parties projects each (setting,
    outcome) prefix once and carries its running product of probabilities.
    Outcome 0 projects onto the orthogonal complement of the observable's
    marked vectors.  Projectors on distinct subsystems commute, so the chain
    rule over normalized residuals applies.  A prefix whose probability is at
    ``PROJECTION_FLOOR`` leaves no residual, and its whole sub-block gets its
    running product.  The last party (a peeled one, with a single setting)
    gets only its outcome probabilities.

    Each node holds its state as the C-contiguous coefficient matrix of the
    party it projects: that party's subsystem first, the others in ascending
    order, as :func:`reshape_bipartite` lays out the party's split.  A
    residual becomes the next party's matrix by one transposed copy, whose
    axis order is computed once per depth, and each party's checked
    projector vectors are looked up once per call.  Each entry gets the
    float operations of its own chain, in the same order and on operands
    with the same layout as :func:`apply_local_projector` and
    :func:`apply_local_complement` give it.
    """
    n = len(parties)
    probs = np.empty([len(obs) for _, obs in parties] + [len(o) for o in party_outcomes])
    # the walk's axis order: (setting, outcome) of party 1, of party 2, ...
    walk = probs.transpose([a for k in range(n) for a in (k, n + k)])
    layouts = [(k,) + tuple(j for j in range(n) if j != k) for k, _ in parties]
    shapes = [tuple(v.dims[k] for k in layout) for layout in layouts]
    moves = [tuple(map(prev.index, layout)) for prev, layout in zip(layouts, layouts[1:])]
    projectors = []
    for (_, observables), outcomes, shape in zip(parties, party_outcomes, shapes):
        party = []
        for i, obs in enumerate(observables):
            for j, outcome in enumerate(outcomes):
                if outcome == 0:
                    u = [_check_side_vector(x, shape[0]) for x in obs.marked_vectors()]
                    party.append((i, j, complement_side1, u))
                else:
                    u = _check_side_vector(obs.vector(outcome), shape[0])
                    party.append((i, j, project_side1, u))
        projectors.append(party)

    def visit(m: np.ndarray, depth: int, total: float, index: tuple[int, ...]) -> None:
        if depth == n - 1:
            for i, j, project, u in projectors[depth]:
                walk[index + (i, j)] = total * project(m, u)[0]
            return
        for i, j, project, u in projectors[depth]:
            prob, w = project(m, u)
            if prob <= PROJECTION_FLOOR:
                walk[index + (i, j)] = total * prob
                continue
            # a complement returns the residual itself, a projection its side-2 factor
            residual = w if project is complement_side1 else u[:, None] * w
            tensor = (residual / math.sqrt(prob)).reshape(shapes[depth]).transpose(moves[depth])
            nxt = np.ascontiguousarray(tensor).reshape(shapes[depth + 1][0], -1)
            visit(nxt, depth + 1, total * prob, index + (i, j))

    visit(reshape_bipartite(v, Bipartition(layouts[0][:1], layouts[0][1:])), 0, 1.0, ())
    return probs


def _measured_table(
    v: StateVector, construction, final_subsystems, steps: tuple[PeelStep, ...]
) -> JointProbabilityTable:
    """The table of the final pair's and the peeled parties' observables on ``v``, unchecked.

    Parties are ordered (final side 1, final side 2, peeled subsystems in
    peel order): X1, Y1 and X2, Y2 (the construction's observables in
    order), then each peeled subsystem's single T observable.  A peeled
    party's outcome 0 (the complement of the branch vectors) appears only
    when the branch vectors do not already span the subsystem.  ``v`` need
    not be the state the observables were built for: a product state
    measured this way gives a table that a local model reproduces.
    """
    x1, y1, x2, y2 = construction.observables
    parties = [(final_subsystems[0], (x1, y1)), (final_subsystems[1], (x2, y2))]
    parties += [(s.subsystem, (s.observable,)) for s in steps]
    party_outcomes: list[tuple[int, ...]] = [TERNARY_OUTCOMES, TERNARY_OUTCOMES]
    for step in steps:
        outcomes = tuple(range(1, len(step.weights) + 1))
        if len(step.weights) < v.dims[step.subsystem]:
            outcomes += (0,)
        party_outcomes.append(outcomes)
    probs = _chain_probabilities(v, parties, party_outcomes)
    party_settings = tuple(tuple(obs.label for obs in observables) for _, observables in parties)
    return JointProbabilityTable(party_settings, tuple(party_outcomes), probs)


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
    cannot be combined with ``peel_order``, and more than :data:`ORDER_CAP`
    orders raise :class:`TooLarge` before any peel.
    Not-applicable verdicts carry no claim that the state admits a local
    model; they only mean this construction found no usable branch.

    Candidate leaves are scored from their Schmidt weights only; the full
    two-party report (construction, joint table and its checks) is built
    once, for the winning leaf, at the call's ``eps_deg`` and ``zero_tol``,
    and raises :class:`NumericalFailure` as before if that leaf fails its
    checks.  A losing leaf never gets a report, so a numerical failure that
    only its report would have shown no longer aborts the call.

    The joint table of the winning order's observables on ``v`` is then
    measured once and stored as ``table``, with ``v`` as ``state``.  The six
    conditions, each widened by every peeled party's marked outcome, are
    entries of that table.  A flagged value more than ``CLOSED_FORM_TOL``
    from the combined probability, or a table that fails ``check()``, raises
    :class:`NumericalFailure`.  ``zero_tol`` judges the joint zero
    conditions and the final report's: a value at or above it is marked not
    within tolerance and never raises.
    ``eps_deg`` and ``zero_tol`` must be finite and positive, and every
    ``peel_order`` entry an integer (numpy integers included), or
    ``ValueError`` is raised before any peel.
    """
    n = len(v.dims)
    if n < 3:
        raise ValueError("multipartite reduction needs at least three subsystems")
    _check_tolerances(eps_deg=eps_deg, zero_tol=zero_tol)
    labels = tuple(range(n))
    if exhaustive:
        if peel_order is not None:
            raise ValueError("peel_order cannot be combined with exhaustive (every order is tried)")
        count = math.perm(n, n - 2)
        if count > ORDER_CAP:
            raise TooLarge(f"{count} peel orders exceed the cap of {ORDER_CAP}")
        orders = itertools.permutations(labels, n - 2)
    elif peel_order is not None:
        order = tuple(peel_order)
        try:
            order = tuple(operator.index(k) for k in order)
        except TypeError:
            valid = False
        else:
            valid = len(order) == n - 2 and len(set(order)) == len(order) and all(
                0 <= k < n for k in order
            )
        if not valid:
            raise ValueError(f"peel order {order} invalid for {n} subsystems")
        orders = [order]
    else:
        orders = [tuple(range(n - 1, 1, -1))]
    best = None
    best_combined = -1.0
    memo: dict = {}
    for order in orders:
        # the floor is the best finished order, never a partial one
        result = _recurse(v, labels, order, eps_deg, memo, 1.0, best_combined)
        if result is not None and result[3] > best_combined:
            best = result
            best_combined = result[3]
    if best is None:
        return MultipartiteWitness(
            applicable=False,
            reason="no peeling branch leads to an applicable two-party test",
            state=v,
        )
    steps, leaf, q_product, combined = best
    report = make_witness_report(leaf, LEAF_SPLIT, eps_deg=eps_deg, zero_tol=zero_tol)
    peeled = {s.subsystem for s in steps}
    final = tuple(k for k in range(n) if k not in peeled)
    table = _measured_table(v, report.construction, final, steps)
    values = []
    for cond in ZERO_CONDITIONS + (FLAGGED_CONDITION,):
        joint = HardyCondition(
            cond.settings + tuple(s.observable.label for s in steps),
            cond.outcomes + tuple(s.marked_eigenvalue for s in steps),
            cond.expect_zero,
        )
        measured = table.prob(joint.settings, joint.outcomes)
        if not cond.expect_zero and abs(measured - combined) > CLOSED_FORM_TOL:
            raise NumericalFailure(
                f"joint condition {joint.label} measured {measured!r}, expected {combined!r}"
            )
        values.append(ConditionValue(joint, measured, not cond.expect_zero or measured < zero_tol))
    table.check()
    return MultipartiteWitness(
        applicable=True,
        reason=None,
        state=v,
        steps=steps,
        final_subsystems=final,
        final_report=report,
        q_product=q_product,
        combined_probability=combined,
        conditions=tuple(values),
        table=table,
    )


def multipartite_table(v: StateVector, witness: MultipartiteWitness) -> JointProbabilityTable:
    """Joint probability table over the final pair plus every peeled observable.

    The table is ``witness.table``, measured and checked when the witness
    was built; nothing is walked here.  Parties are ordered (final side 1,
    final side 2, peeled subsystems in peel order).  Peeled parties have a
    single setting; their outcome 0 (the complement of the branch vectors)
    appears only when the branch vectors do not already span the subsystem.
    ``witness`` must be ``v``'s own: ``ValueError`` is raised when it is not
    applicable, when its dims differ from ``v``'s, and when ``v``'s
    amplitudes are not bit for bit those of the state it was searched on
    (a re-normalized copy included).
    """
    if not witness.applicable:
        raise ValueError("cannot tabulate a non-applicable witness")
    if witness.dims != v.dims:
        raise ValueError(f"a witness for dims {witness.dims} cannot tabulate dims {v.dims}")
    if not np.array_equal(v.amps, witness.state.amps):
        raise ValueError(
            "the state's amplitudes differ from the ones the witness was searched on: "
            "the witness is for another state"
        )
    return witness.table
