"""Command-line interface: schmidt, witness, certify, simulate, scan.

Exit codes: 0 success (including a Feasible certificate), 3 Infeasible
certificate, 1 usage or input errors, 2 numerical failures.  Machine output
is JSON with a fixed field order and floats printed to 12 significant
digits, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import HardyWitnessError, NumericalFailure
from .hardy import (
    DEFAULT_EPS_DEG,
    DEFAULT_ZERO_TOL,
    FLAGGED_CONDITION,
    JointProbabilityTable,
    WitnessReport,
    build_construction,
    choose_pair,
    distinct_weight_pairs,
    entry_label,
    hardy_probability,
    joint_table,
    make_witness_report,
    max_hardy_probability_qubit,
)
from .lhv import LhvCertificate, certify, idealized_table
from .multipartite import MultipartiteWitness, multipartite_table, multipartite_witness
from .sampling import DEFAULT_SCHEDULE, analyze, export_csv, sample_from_table
from .schmidt import schmidt_decompose
from .statefile import load_state
from .states import Bipartition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_INFEASIBLE = 3


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


def parse_split(spec: str) -> Bipartition:
    """Parse "1,2|3" (1-based subsystem indices) into a 0-based bipartition."""
    parts = spec.split("|")
    if len(parts) != 2:
        raise ValueError(f"split {spec!r} must contain exactly one '|'")
    sides = []
    for part in parts:
        indices = []
        for token in part.split(","):
            token = token.strip()
            if not token.isdigit() or int(token) < 1:
                raise ValueError(f"split {spec!r}: bad subsystem index {token!r}")
            indices.append(int(token) - 1)
        sides.append(tuple(indices))
    return Bipartition(sides[0], sides[1])


def split_display(split: Bipartition) -> str:
    return (
        ",".join(str(i + 1) for i in split.side1)
        + "|"
        + ",".join(str(i + 1) for i in split.side2)
    )


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
    split = parse_split(args.split)
    split.check(len(v.dims))
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
    tree = {
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
    return tree


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


def _strategy_tree(strategy, table: JointProbabilityTable) -> dict:
    tree = {}
    for party, labels in enumerate(table.party_settings):
        for k, label in enumerate(labels):
            tree[label] = strategy.outcome(party, k)
    return tree


def certificate_tree(cert: LhvCertificate, table: JointProbabilityTable) -> dict:
    tree = {"verdict": "feasible" if cert.feasible else "infeasible"}
    if cert.feasible:
        tree["mixture"] = [
            {"weight": float(w), "strategy": _strategy_tree(cert.strategies[k], table)}
            for k, w in enumerate(cert.weights)
            if w > 1e-12
        ]
    else:
        dual = []
        for key, coefficient in zip(cert.entry_keys, cert.dual[:-1]):
            if abs(coefficient) > 1e-12:
                choice, outcomes = key
                dual.append(
                    {
                        "settings": list(choice),
                        "outcomes": list(outcomes),
                        "coefficient": float(coefficient),
                    }
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


def cmd_schmidt(args) -> int:
    v = load_state(args.state)
    split = _split_for(args, v)
    d = schmidt_decompose(v, split)
    pairs = distinct_weight_pairs(d.weights, args.eps_deg)
    if args.format == "machine":
        print(machine_dumps({
            "command": "schmidt",
            "state": args.state,
            "split": split_display(split),
            "rank": d.rank,
            "weights": [float(w) for w in d.weights],
            "distinct_pairs": [list(p) for p in pairs],
            "usable_pair": bool(pairs),
        }))
        return EXIT_OK
    print(f"state: {args.state}")
    print(f"split: {split_display(split)}")
    print(f"rank: {d.rank}")
    print("weights: " + " ".join(fmt(w) for w in d.weights))
    if pairs:
        print(
            "distinct weight pairs (best first): "
            + " ".join(f"({i},{j})" for i, j in pairs)
        )
    else:
        print(f"no usable pair: {choose_pair(d.weights, args.eps_deg)[1]}")
    return EXIT_OK


def _zero_tol(args) -> float:
    return getattr(args, "zero_tol", None) or DEFAULT_ZERO_TOL


def _bipartite_report(args, v) -> WitnessReport:
    split = _split_for(args, v)
    return make_witness_report(
        v, split, parse_pair(args.pair), eps_deg=args.eps_deg, zero_tol=_zero_tol(args)
    )


def _multipartite_witness(args, v) -> MultipartiteWitness:
    order = None
    if args.peel_order:
        order = tuple(int(t.strip()) - 1 for t in args.peel_order.split(","))
    return multipartite_witness(
        v, order, exhaustive=args.exhaustive_orders, eps_deg=args.eps_deg, zero_tol=_zero_tol(args)
    )


def cmd_witness(args) -> int:
    v = load_state(args.state)
    if args.mode == "multipartite":
        w = _multipartite_witness(args, v)
        if args.format == "machine":
            tree = {"command": "witness", "mode": "multipartite", **multiwitness_tree(w)}
            print(machine_dumps(tree))
            return EXIT_OK
        if not w.applicable:
            print("verdict: not applicable")
            print(f"reason: {w.reason}")
            return EXIT_OK
        print("verdict: applicable")
        for s in w.steps:
            print(
                f"peeled subsystem {s.subsystem + 1}: weights "
                + " ".join(fmt(q) for q in s.weights)
                + f"; marked branch {s.marked} -> {s.observable.label}={s.marked_eigenvalue}"
            )
        a, b = w.final_subsystems
        print(f"final pair: subsystems {a + 1} and {b + 1}")
        print(f"q^2 product: {fmt(w.q_product)}")
        for c in w.conditions:
            mark = "ok" if c.within_tolerance else "FAILED"
            print(f"  {c.condition.label} = {fmt(c.value)}   {mark}")
        print(f"combined probability: {fmt(w.combined_probability)}")
        return EXIT_OK
    report = _bipartite_report(args, v)
    if args.format == "machine":
        print(machine_dumps({"command": "witness", "mode": "bipartite", **witness_tree(report)}))
        return EXIT_OK
    if not report.applicable:
        print("verdict: not applicable")
        print(f"reason: {report.reason}")
        return EXIT_OK
    print("verdict: applicable")
    print(f"split: {split_display(report.split)}")
    i, j = report.pair
    print(f"pair: ({i},{j})   p1={fmt(report.p1)}   p2={fmt(report.p2)}")
    print(f"zero conditions (tolerance {fmt(report.zero_tol)}):")
    for c in report.zero_values:
        mark = "ok" if c.within_tolerance else "FAILED"
        print(f"  {c.condition.label} = {fmt(c.value)}   {mark}")
    print(f"flagged outcome {FLAGGED_CONDITION.label}:")
    print(f"  measured    = {fmt(report.hardy_measured)}")
    print(f"  closed form = {fmt(report.hardy_closed_form)}")
    print(
        "decomposition residuals: "
        + " ".join(fmt(r) for r in report.residuals)
    )
    return EXIT_OK


def _certify_table(args, v) -> tuple[JointProbabilityTable | None, str | None]:
    """The table ``certify`` decides, or None and the not-applicable reason."""
    if args.mode == "multipartite":
        w = _multipartite_witness(args, v)
        return (multipartite_table(v, w), None) if w.applicable else (None, w.reason)
    d = schmidt_decompose(v, _split_for(args, v))
    pair = parse_pair(args.pair)
    if pair is None:
        pair, reason = choose_pair(d.weights, args.eps_deg)
        if pair is None:
            return None, reason
    construction = build_construction(d, pair, args.eps_deg, allow_degenerate=args.allow_degenerate)
    table = joint_table(v, construction)
    return (idealized_table(table) if args.idealized else table), None


def cmd_certify(args) -> int:
    v = load_state(args.state)
    table, reason = _certify_table(args, v)
    if table is None:
        if args.format == "machine":
            print(machine_dumps({
                "command": "certify", "mode": args.mode,
                "verdict": "not-applicable", "reason": reason,
            }))
        else:
            print("verdict: not applicable (no table to certify)")
            print(f"reason: {reason}")
        return EXIT_OK
    cert = certify(table)
    tree = {
        "command": "certify",
        "mode": args.mode,
        "idealized": bool(args.idealized),
        **certificate_tree(cert, table),
    }
    if args.format == "machine":
        print(machine_dumps(tree))
    elif cert.feasible:
        print("verdict: feasible (a local hidden-variable model reproduces the table)")
        for k, w in enumerate(cert.weights):
            if w > 1e-9:
                print(f"  weight {fmt(w)}: {_strategy_tree(cert.strategies[k], table)}")
    else:
        print("verdict: infeasible (no local hidden-variable model exists)")
        print(f"violation margin: {fmt(cert.margin)}")
        print(f"max strategy dot: {fmt(cert.max_strategy_dot)}")
        print("violated inequality (coefficients on table entries):")
        for key, coefficient in zip(cert.entry_keys, cert.dual[:-1]):
            if abs(coefficient) > 1e-12:
                print(f"  {fmt(coefficient)} * {entry_label(*key)}")
        print(f"  + {fmt(cert.dual[-1])} <= 0 for every local model")
        print(f"  quantum table value: {fmt(cert.margin)} > 0")
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


def cmd_simulate(args) -> int:
    v = load_state(args.state)
    report = _bipartite_report(args, v)
    if not report.applicable:
        raise ValueError(f"cannot simulate: construction not applicable ({report.reason})")
    records = sample_from_table(report.table, args.shots, args.seed, DEFAULT_SCHEDULE)
    freq = analyze(records, report.table)
    if args.export:
        export_csv(records, args.export)
    if args.format == "machine":
        print(machine_dumps({
            "command": "simulate",
            "shots": args.shots,
            "seed": args.seed,
            "schedule": [list(p) for p in DEFAULT_SCHEDULE],
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
        }))
        return EXIT_OK
    print(f"shots: {args.shots}   seed: {args.seed}")
    for c in freq.conditions:
        if c.passed is None:
            verdict = "n/a (no shots on this setting pair)"
        elif c.passed:
            verdict = "ok"
        else:
            verdict = "FAILED"
        freq_str = fmt(c.frequency) if c.frequency is not None else "-"
        print(
            f"  {c.condition.label}: count {c.count}/{c.pair_shots}, "
            f"frequency {freq_str}, exact {fmt(c.exact)}   {verdict}"
        )
    if args.export:
        print(f"records written to {args.export}")
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    best_t, best_value = max_hardy_probability_qubit(args.grid)
    n_rows = min(args.grid, 21)
    sample_rows = []
    for k in range(1, n_rows + 1):
        t = k / (n_rows + 1)
        sample_rows.append((t, hardy_probability(t**0.5, (1 - t) ** 0.5)))
    if args.format == "machine":
        print(machine_dumps({
            "command": "scan",
            "grid": args.grid,
            "max_probability": best_value,
            "argmax_p1_squared": best_t,
            "table": [{"p1_squared": t, "probability": p} for t, p in sample_rows],
        }))
        return EXIT_OK
    print(f"grid: {args.grid}")
    print("p1^2         probability")
    for t, p in sample_rows:
        print(f"{fmt(t):<12} {fmt(p)}")
    print(f"maximum: {fmt(best_value)} at p1^2 = {fmt(best_t)}")
    return EXIT_OK


HANDLERS = {
    "schmidt": cmd_schmidt,
    "witness": cmd_witness,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _require_positive(args)
        _reject_unread_flags(args)
        return HANDLERS[args.command](args)
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


if __name__ == "__main__":
    sys.exit(main())
