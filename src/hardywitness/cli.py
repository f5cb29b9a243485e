"""Command-line interface: schmidt, witness, certify, simulate, scan.

Each ``cmd_*`` computes one output tree and returns it; its ``show_*``
renders the human format from that tree alone, so both formats show the
same values.  Only ``main`` loads the state, writes stdout and picks the
exit code.  Machine output is the tree as JSON with a fixed field order and
floats printed to 12 significant digits, so identical invocations produce
identical bytes.

A command imports the ``lhv``, ``multipartite`` or ``sampling`` layer where
it runs and calls it through that module (``lhv.certify(table)``), so
``schmidt``, bipartite ``witness`` and ``scan`` load none of them and
``certify`` never loads ``sampling``.  The names ``certify``,
``multipartite_witness``, ``multipartite_table``, ``sample_from_table``,
``analyze``, ``build_construction`` and ``joint_table`` stay importable from
here for the benchmark's tracer, but the commands do not call them.

Exit codes: 0 success (including a Feasible certificate), 3 Infeasible
certificate, 1 usage or input errors, 2 numerical failures.  A closed
stdout pipe drops the output silently and keeps the command's exit code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadPartition, HardyWitnessError, NumericalFailure
# build_construction and joint_table are unused here: perfbench/tracing.py patches them.
from .hardy import (
    DEFAULT_EPS_DEG,
    DEFAULT_ZERO_TOL,
    FLAGGED_CONDITION,
    JointProbabilityTable,
    WitnessReport,
    build_construction,
    distinct_weight_pairs,
    entry_label,
    hardy_probability,
    joint_table,
    make_witness_report,
    max_hardy_probability_qubit,
    no_pair_reason,
)
from .schmidt import schmidt_decompose
from .statefile import load_state
from .states import Bipartition

if TYPE_CHECKING:
    from .lhv import LhvCertificate
    from .multipartite import MultipartiteWitness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_INFEASIBLE = 3


def _owner_call(module: str, name: str):
    """``module.name`` as a function of this module that imports ``module`` when called.

    The commands call the owner module directly, so a tracer that patches
    both this name and the owner's records each call once.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, imported on first call."
    return call


certify = _owner_call("lhv", "certify")
multipartite_witness = _owner_call("multipartite", "multipartite_witness")
multipartite_table = _owner_call("multipartite", "multipartite_table")
sample_from_table = _owner_call("sampling", "sample_from_table")
analyze = _owner_call("sampling", "analyze")


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def machine_dumps(obj) -> str:
    """JSON with insertion-ordered keys and 12-significant-digit floats."""
    pieces: list[str] = []

    def emit(node):
        if node is None:
            pieces.append("null")
        elif node is True:
            pieces.append("true")
        elif node is False:
            pieces.append("false")
        elif isinstance(node, int):
            pieces.append(str(node))
        elif isinstance(node, float):
            pieces.append(fmt(node))
        elif isinstance(node, str):
            pieces.append(json.dumps(node))
        elif isinstance(node, dict):
            pieces.append("{")
            for k, (key, value) in enumerate(node.items()):
                if k:
                    pieces.append(", ")
                pieces.append(json.dumps(str(key)))
                pieces.append(": ")
                emit(value)
            pieces.append("}")
        elif isinstance(node, (list, tuple)):
            pieces.append("[")
            for k, value in enumerate(node):
                if k:
                    pieces.append(", ")
                emit(value)
            pieces.append("]")
        else:
            raise TypeError(f"cannot serialize {type(node)!r}")

    emit(obj)
    return "".join(pieces)


def _subsystem_indices(part: str, what: str) -> tuple[int, ...]:
    """Parse "1,2" (1-based subsystem indices of ``what``) into 0-based indices."""
    indices = []
    for token in part.split(","):
        token = token.strip()
        if not token.isdigit() or int(token) < 1:
            raise ValueError(f"{what}: bad subsystem index {token!r}")
        indices.append(int(token) - 1)
    return tuple(indices)


def parse_split(spec: str) -> Bipartition:
    """Parse "1,2|3" (1-based subsystem indices) into a 0-based bipartition."""
    parts = spec.split("|")
    if len(parts) != 2:
        raise ValueError(f"split {spec!r} must contain exactly one '|'")
    return Bipartition(*(_subsystem_indices(part, f"split {spec!r}") for part in parts))


def parse_peel_order(spec: str, n: int) -> tuple[int, ...]:
    """Parse "4,3" (1-based) into a 0-based peel order, named as typed if invalid."""
    order = _subsystem_indices(spec, f"peel order {spec!r}")
    if n >= 3 and (len(order) != n - 2 or len(set(order)) != len(order) or max(order) >= n):
        raise ValueError(f"peel order {spec!r} invalid for {n} subsystems")
    return order


def split_display(split: Bipartition) -> str:
    return "|".join(",".join(str(i + 1) for i in side) for side in (split.side1, split.side2))


def parse_pair(spec: str | None):
    if spec is None or spec == "auto":
        return None
    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(f"pair {spec!r} must be 'auto' or two indices like '0,1'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"pair {spec!r} must be 'auto' or two indices") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hardywitness",
        description=(
            "Build Hardy-type nonlocality tests for entangled pure states, "
            "certify them against local hidden-variable models, and simulate "
            "the corresponding experiment."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_split=True):
        p.add_argument("--state", required=True, help="path to a JSON state file")
        p.add_argument(
            "--split",
            required=needs_split,
            help="bipartition of 1-based subsystem indices, e.g. '1,2|3'",
        )
        p.add_argument("--eps-deg", type=float, default=DEFAULT_EPS_DEG,
                       help="weights closer than this count as equal")
        p.add_argument("--format", choices=("human", "machine"), default="human")

    def pair_flag(p):
        p.add_argument(
            "--pair",
            default=None,
            help="Schmidt weight pair '0,1' (0-based) or 'auto' (default)",
        )

    def mode_flags(p):
        pair_flag(p)
        p.add_argument(
            "--zero-tol",
            type=float,
            default=None,
            help=f"threshold for the five zero conditions (default {DEFAULT_ZERO_TOL:g})",
        )
        p.add_argument("--mode", choices=("bipartite", "multipartite"), default="bipartite")
        p.add_argument("--peel-order", default=None,
                       help="multipartite: 1-based subsystems to peel, e.g. '3' or '4,3'")
        p.add_argument("--exhaustive-orders", action="store_true",
                       help="multipartite: try every peel order, keep the best")

    p = sub.add_parser("schmidt", help="Schmidt weights across a bipartition")
    common(p)

    p = sub.add_parser("witness", help="build the test and report its conditions")
    common(p, needs_split=False)
    mode_flags(p)

    p = sub.add_parser("certify", help="decide local-model feasibility of the table")
    common(p, needs_split=False)
    mode_flags(p)
    p.add_argument("--idealized", action="store_true",
                   help="bipartite: snap the five zero-condition entries to exact 0 first")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="bipartite: permit an explicitly chosen equal-weight pair")

    p = sub.add_parser("simulate", help="finite-shot simulation of the test")
    common(p)
    pair_flag(p)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--export", default=None, help="write shot records to this CSV path")

    p = sub.add_parser("scan", help="two-qubit sweep of the flagged probability")
    p.add_argument("--grid", type=int, default=10**6,
                   help="number of uniform grid points in (0, 1) for p1^2")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    return parser


def _require_positive(args) -> None:
    for name in ("eps_deg", "zero_tol"):
        x = getattr(args, name, None)
        if x is not None and not 0 < x < math.inf:
            raise ValueError(f"--{name.replace('_', '-')} must be finite and positive")
    if getattr(args, "shots", 1) < 1:
        raise ValueError("--shots must be at least 1")


# Flags (by argparse destination) that witness and certify read in one mode
# only.  They default to None or False, so any other value was given.
MODE_ONLY_FLAGS = {
    "bipartite": ("split", "pair", "idealized", "allow_degenerate"),
    "multipartite": ("peel_order", "exhaustive_orders"),
}


def _reject_unread_flags(args) -> None:
    """Refuse any flag that the chosen command never reads in its mode."""
    mode = getattr(args, "mode", None)
    if mode is None:
        return
    unread = MODE_ONLY_FLAGS["multipartite" if mode == "bipartite" else "bipartite"]
    if args.command == "certify" and mode == "bipartite":
        unread += ("zero_tol",)
    for name in unread:
        if getattr(args, name, None) not in (None, False):
            raise ValueError(
                f"--{name.replace('_', '-')} does not apply to {args.command} in {mode} mode"
            )
    if mode == "bipartite" and args.split is None:
        raise ValueError("--split is required in bipartite mode")


def _split_for(args, v) -> Bipartition:
    """The ``--split`` bipartition of ``v``, named as typed if it is not one."""
    split, n = parse_split(args.split), len(v.dims)
    try:
        split.check(n)
    except BadPartition:
        raise ValueError(f"split {args.split!r} does not partition {n} subsystems") from None
    return split


def table_tree(table: JointProbabilityTable) -> list:
    rows = []
    for choice in table.setting_choices():
        rows.append(
            {
                "settings": list(choice),
                "probabilities": [
                    {"outcomes": list(outcomes), "p": p}
                    for outcomes, p in table.row(choice)
                ],
            }
        )
    return rows


def witness_tree(report: WitnessReport) -> dict:
    return {
        "applicable": report.applicable,
        "reason": report.reason,
        "split": split_display(report.split),
        "weights": list(report.weights),
        "eps_deg": report.eps_deg,
        "zero_tol": report.zero_tol,
        "pair": list(report.pair) if report.pair is not None else None,
        "p1": report.p1,
        "p2": report.p2,
        "zero_conditions": [
            {
                "label": c.condition.label,
                "value": c.value,
                "within_tolerance": c.within_tolerance,
            }
            for c in report.zero_values
        ],
        "hardy_measured": report.hardy_measured,
        "hardy_closed_form": report.hardy_closed_form,
        "decomposition_residuals": list(report.residuals) if report.residuals else None,
        "table": table_tree(report.table) if report.table else None,
    }


def multiwitness_tree(w: MultipartiteWitness) -> dict:
    return {
        "applicable": w.applicable,
        "reason": w.reason,
        "dims": list(w.dims),
        "steps": [
            {
                "subsystem": s.subsystem + 1,
                "observable": s.observable.label,
                "weights": list(s.weights),
                "marked_branch": s.marked,
                "marked_eigenvalue": s.marked_eigenvalue,
            }
            for s in w.steps
        ],
        "final_subsystems": (
            [k + 1 for k in w.final_subsystems] if w.final_subsystems else None
        ),
        "q_product": w.q_product,
        "combined_probability": w.combined_probability,
        "conditions": [
            {
                "label": c.condition.label,
                "expect_zero": c.condition.expect_zero,
                "measured": c.value,
                "predicted": 0.0 if c.condition.expect_zero else w.combined_probability,
                "within_tolerance": c.within_tolerance,
            }
            for c in w.conditions
        ],
        "final_report": witness_tree(w.final_report) if w.final_report else None,
    }


def _strategy_tree(cert: LhvCertificate, k: int) -> dict:
    strategy = cert.strategies[k]
    return {
        label: strategy.outcome(party, i)
        for party, labels in enumerate(cert.table.party_settings)
        for i, label in enumerate(labels)
    }


# Mixture weights and dual coefficients at or below this are not shown.
DISPLAY_CUT = 1e-12


def certificate_tree(cert: LhvCertificate) -> dict:
    tree = {"verdict": "feasible" if cert.feasible else "infeasible"}
    if cert.feasible:
        tree["mixture"] = [
            {"weight": float(cert.weights[k]), "strategy": _strategy_tree(cert, k)}
            for k in np.flatnonzero(cert.weights > DISPLAY_CUT)
        ]
    else:
        table = cert.table
        n, axes = table.n_parties, (*table.party_settings, *table.party_outcomes)
        dual = []
        for k in np.flatnonzero(np.abs(cert.dual[:-1]) > DISPLAY_CUT):
            key = [axis[i] for axis, i in zip(axes, np.unravel_index(k, table.probs.shape))]
            dual.append(
                {"settings": key[:n], "outcomes": key[n:], "coefficient": float(cert.dual[k])}
            )
        tree["dual"] = dual
        tree["dual_normalization"] = float(cert.dual[-1])
        tree["margin"] = cert.margin
        tree["max_strategy_dot"] = cert.max_strategy_dot
        tree["inequality"] = (
            "sum(coefficient * P(settings -> outcomes)) + dual_normalization "
            "<= 0 for every local hidden-variable model; "
            f"the quantum table reaches {fmt(cert.margin)}"
        )
    return tree


def cmd_schmidt(args, v) -> dict:
    split = _split_for(args, v)
    d = schmidt_decompose(v, split)
    pairs = distinct_weight_pairs(d.weights, args.eps_deg)
    return {
        "command": "schmidt",
        "state": args.state,
        "split": split_display(split),
        "rank": d.rank,
        "weights": [float(w) for w in d.weights],
        "distinct_pairs": [list(p) for p in pairs],
        "usable_pair": bool(pairs),
    }


def show_schmidt(tree):
    yield f"state: {tree['state']}"
    yield f"split: {tree['split']}"
    yield f"rank: {tree['rank']}"
    yield "weights: " + " ".join(fmt(w) for w in tree["weights"])
    if tree["usable_pair"]:
        yield "distinct weight pairs (best first): " + " ".join(
            f"({i},{j})" for i, j in tree["distinct_pairs"]
        )
    else:
        yield f"no usable pair: {no_pair_reason(tree['rank'])}"


def _zero_tol(args) -> float:
    return getattr(args, "zero_tol", None) or DEFAULT_ZERO_TOL


def _bipartite_report(args, v) -> WitnessReport:
    return make_witness_report(
        v, _split_for(args, v), parse_pair(args.pair), eps_deg=args.eps_deg,
        zero_tol=_zero_tol(args), allow_degenerate=getattr(args, "allow_degenerate", False),
    )


def _multipartite_witness(args, v) -> MultipartiteWitness:
    from . import multipartite

    order = None if args.peel_order is None else parse_peel_order(args.peel_order, len(v.dims))
    return multipartite.multipartite_witness(
        v, order, exhaustive=args.exhaustive_orders, eps_deg=args.eps_deg, zero_tol=_zero_tol(args)
    )


def cmd_witness(args, v) -> dict:
    if args.mode == "multipartite":
        tree = multiwitness_tree(_multipartite_witness(args, v))
    else:
        tree = witness_tree(_bipartite_report(args, v))
    return {"command": "witness", "mode": args.mode, **tree}


def _condition_lines(conditions, value_key):
    for c in conditions:
        mark = "ok" if c["within_tolerance"] else "FAILED"
        yield f"  {c['label']} = {fmt(c[value_key])}   {mark}"


def show_witness(tree):
    if not tree["applicable"]:
        yield "verdict: not applicable"
        yield f"reason: {tree['reason']}"
        return
    yield "verdict: applicable"
    if tree["mode"] == "multipartite":
        for s in tree["steps"]:
            yield (
                f"peeled subsystem {s['subsystem']}: weights "
                + " ".join(fmt(q) for q in s["weights"])
                + f"; marked branch {s['marked_branch']} -> "
                f"{s['observable']}={s['marked_eigenvalue']}"
            )
        yield "final pair: subsystems {} and {}".format(*tree["final_subsystems"])
        yield f"q^2 product: {fmt(tree['q_product'])}"
        yield from _condition_lines(tree["conditions"], "measured")
        yield f"combined probability: {fmt(tree['combined_probability'])}"
        return
    yield f"split: {tree['split']}"
    i, j = tree["pair"]
    yield f"pair: ({i},{j})   p1={fmt(tree['p1'])}   p2={fmt(tree['p2'])}"
    yield f"zero conditions (tolerance {fmt(tree['zero_tol'])}):"
    yield from _condition_lines(tree["zero_conditions"], "value")
    yield f"flagged outcome {FLAGGED_CONDITION.label}:"
    yield f"  measured    = {fmt(tree['hardy_measured'])}"
    yield f"  closed form = {fmt(tree['hardy_closed_form'])}"
    yield "decomposition residuals: " + " ".join(
        fmt(r) for r in tree["decomposition_residuals"]
    )


def _certify_table(args, v) -> tuple[JointProbabilityTable | None, str | None]:
    """The exact table ``certify`` decides, or None and the not-applicable reason."""
    if args.mode == "multipartite":
        from . import multipartite

        w = _multipartite_witness(args, v)
        return (multipartite.multipartite_table(v, w), None) if w.applicable else (None, w.reason)
    report = _bipartite_report(args, v)
    return report.table, report.reason


def cmd_certify(args, v) -> dict:
    from . import lhv

    table, reason = _certify_table(args, v)
    if table is None:
        return {"command": "certify", "mode": args.mode,
                "verdict": "not-applicable", "reason": reason}
    if args.idealized:
        table = lhv.idealized_table(table)
    return {
        "command": "certify",
        "mode": args.mode,
        "idealized": bool(args.idealized),
        **certificate_tree(lhv.certify(table)),
    }


def show_certify(tree):
    if tree["verdict"] == "not-applicable":
        yield "verdict: not applicable (no table to certify)"
        yield f"reason: {tree['reason']}"
    elif tree["verdict"] == "feasible":
        yield "verdict: feasible (a local hidden-variable model reproduces the table)"
        for term in tree["mixture"]:
            yield f"  weight {fmt(term['weight'])}: {term['strategy']}"
    else:
        yield "verdict: infeasible (no local hidden-variable model exists)"
        yield f"violation margin: {fmt(tree['margin'])}"
        yield f"max strategy dot: {fmt(tree['max_strategy_dot'])}"
        yield "violated inequality (coefficients on table entries):"
        for term in tree["dual"]:
            label = entry_label(term["settings"], term["outcomes"])
            yield f"  {fmt(term['coefficient'])} * {label}"
        yield f"  + {fmt(tree['dual_normalization'])} <= 0 for every local model"
        yield f"  quantum table value: {fmt(tree['margin'])} > 0"


def cmd_simulate(args, v) -> dict:
    from . import sampling

    report = _bipartite_report(args, v)
    if not report.applicable:
        raise ValueError(f"cannot simulate: construction not applicable ({report.reason})")
    records = sampling.sample_from_table(
        report.table, args.shots, args.seed, sampling.DEFAULT_SCHEDULE
    )
    freq = sampling.analyze(records, report.table)
    if args.export:
        sampling.export_csv(records, args.export)
    return {
        "command": "simulate",
        "shots": args.shots,
        "seed": args.seed,
        "schedule": [list(p) for p in sampling.DEFAULT_SCHEDULE],
        "sigma": freq.sigma,
        "export": args.export,
        "conditions": [
            {
                "label": c.condition.label,
                "expect_zero": c.condition.expect_zero,
                "count": c.count,
                "pair_shots": c.pair_shots,
                "frequency": c.frequency,
                "exact": c.exact,
                "passed": c.passed,
            }
            for c in freq.conditions
        ],
        "cells": [
            {
                "settings": list(c.settings),
                "outcomes": list(c.outcomes),
                "count": c.count,
                "pair_shots": c.pair_shots,
                "frequency": c.frequency,
                "exact": c.exact,
                "std_error": c.std_error,
            }
            for c in freq.cells
        ],
    }


def show_simulate(tree):
    yield f"shots: {tree['shots']}   seed: {tree['seed']}"
    verdict = {None: "n/a (no shots on this setting pair)", True: "ok", False: "FAILED"}
    for c in tree["conditions"]:
        freq_str = fmt(c["frequency"]) if c["frequency"] is not None else "-"
        yield (
            f"  {c['label']}: count {c['count']}/{c['pair_shots']}, "
            f"frequency {freq_str}, exact {fmt(c['exact'])}   {verdict[c['passed']]}"
        )
    if tree["export"]:
        yield f"records written to {tree['export']}"


def cmd_scan(args, _state) -> dict:
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    best_t, best_value = max_hardy_probability_qubit(args.grid)
    n_rows = min(args.grid, 21)
    rows = [(t, hardy_probability(t**0.5, (1 - t) ** 0.5))
            for t in (k / (n_rows + 1) for k in range(1, n_rows + 1))]
    return {
        "command": "scan",
        "grid": args.grid,
        "max_probability": best_value,
        "argmax_p1_squared": best_t,
        "table": [{"p1_squared": t, "probability": p} for t, p in rows],
    }


def show_scan(tree):
    yield f"grid: {tree['grid']}"
    yield "p1^2         probability"
    for row in tree["table"]:
        yield f"{fmt(row['p1_squared']):<12} {fmt(row['probability'])}"
    yield f"maximum: {fmt(tree['max_probability'])} at p1^2 = {fmt(tree['argmax_p1_squared'])}"


# Each command: (args, state) -> machine tree, and its human renderer.
COMMANDS = {
    "schmidt": (cmd_schmidt, show_schmidt),
    "witness": (cmd_witness, show_witness),
    "certify": (cmd_certify, show_certify),
    "simulate": (cmd_simulate, show_simulate),
    "scan": (cmd_scan, show_scan),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run, show = COMMANDS[args.command]
    try:
        _require_positive(args)
        _reject_unread_flags(args)
        tree = run(args, None if args.command == "scan" else load_state(args.state))
        if args.format == "machine":
            text = machine_dumps(tree)
        else:
            text = "\n".join(show(tree))
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (HardyWitnessError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the flush at exit
        # cannot fail again (the signal module docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_INFEASIBLE if tree.get("verdict") == "infeasible" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
