"""hardywitness benchmark: four closed-loop workloads, one caller each.

Usage (from the repository root):

    python3 perfbench/run.py --workload bipartite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

A run builds its inputs from ``--seed``, times whole rounds of ops until
``--seconds`` of op time and at least 100 ops have passed, checks every op's
output against known answers outside the timed region, and prints one JSON
object as the last line of stdout.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` traces every cross-layer call and reports per-layer
metrics normalized per op.  Times are calibrated (see ``clock.py``).
``--all`` runs every workload, untraced and traced, each in a fresh process,
and prints every metric by name and unit.
"""

from __future__ import annotations

import os

# One BLAS thread (never more than nproc): a single closed-loop caller, and
# no helper threads competing with it on a small machine.  Set before numpy
# is imported here or in any child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from clock import Calibrator, pin_to_one_cpu
from tracing import SCHMIDT_BUCKETS, LayerTotals, Tracer, span_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("bipartite", "multipartite", "simulate", "cli")
MIN_OPS = 100
# Stop starting rounds after this much op time even below MIN_OPS, so a
# much slower program still finishes well inside a three-minute limit.
HARD_CAP_S = 100.0
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t)"
)


def import_seconds(module: str, repeats: int) -> tuple[list[float], list[float]]:
    """Raw and calibrated times to import ``module`` in fresh interpreters.

    One untimed import first compiles the bytecode caches.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw = []
    calibrator = None
    for k in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(module=module)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if calibrator is None:
            calibrator = Calibrator()
            continue
        raw.append(float(proc.stdout))
        calibrator.sample()
    return raw, [t * f for t, f in zip(raw, calibrator.close())]


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown (not a git checkout)"


def run_record(args, cpu, rounds, ledger, kernel_times):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "kernel_ms_median": 1e3 * statistics.median(kernel_times),
        "rounds": rounds,
        "ops": len(ledger.latencies),
        "op_kinds": ledger.kinds(),
    }


def quantile_ms(seconds: list[float], q: int) -> float:
    return 1e3 * statistics.quantiles(seconds, n=100, method="inclusive")[q - 1]


class Ledger:
    """Raw and calibrated op latencies plus the outcome of every check."""

    def __init__(self):
        self.raw: list[float] = []
        self.latencies: list[float] = []  # calibrated, filled round by round
        self.failures: list[str] = []
        self.failed_ids: set[str] = set()
        self.known_defects: list[str] = []
        self.by_kind: dict[str, list[float]] = {}
        self._open_kinds: list[str] = []

    def record(self, workload, case, raw, out, error):
        self.raw.append(raw)
        self._open_kinds.append(case.kind)
        self.verify(workload, case, out, error)

    def close_round(self, factors: list[float]) -> None:
        """Calibrate the ops recorded since the last close."""
        scaled = [t * f for t, f in zip(self.raw[len(self.latencies):], factors)]
        for kind, t in zip(self._open_kinds, scaled):
            self.by_kind.setdefault(kind, []).append(t)
        self.latencies += scaled
        self._open_kinds = []

    def verify(self, workload, case, out, error, where=""):
        label = f"{case.op_id} ({case.kind}){where}"
        if error is not None:
            problems = [f"raised {error}"]
        else:
            try:
                verdict = workload.check(case, out)
                problems = verdict.problems
            except Exception as exc:  # a check that breaks is a failed op, not a crash
                problems = [f"check raised {exc!r}"]
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            self.failed_ids.add(case.op_id)
        elif verdict.known_defect:
            self.known_defects.append(f"{label}: {verdict.known_defect}")

    def kinds(self) -> dict[str, dict]:
        """Op count and median calibrated latency per op kind."""
        return {
            kind: {"ops": len(t), "p50_ms": round(1e3 * statistics.median(t), 3)}
            for kind, t in self.by_kind.items()
        }


def timed(fn, case):
    """Run one op; returns (raw seconds, output, error text)."""
    t0 = perf_counter()
    try:
        out, error = fn(case), None
    except Exception as exc:  # counted and listed by op id; the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, error


def keep_going(ledger, raw_elapsed, seconds):
    if raw_elapsed >= HARD_CAP_S:
        return False
    return raw_elapsed < seconds or len(ledger.raw) < MIN_OPS


def measure_untraced(workload, seconds, calibrator):
    """Whole rounds of ops; returns the ledger and the number of rounds."""
    ledger, r = Ledger(), 0
    while keep_going(ledger, sum(ledger.raw), seconds):
        for case in workload.round(r):
            dt, out, error = timed(workload.run, case)
            calibrator.sample()
            ledger.record(workload, case, dt, out, error)
            del out
        ledger.close_round(calibrator.close())
        r += 1
    return ledger, r


class TracedRun:
    """What a traced run collects beside the spans (times calibrated)."""

    def __init__(self):
        self.walls: list[float] = []  # traced op wall times
        self.span_scales: list[float] = []  # calibration factor of each span
        self.process: list[float] = []  # cli: subprocess wall times
        self.stdout_bytes = 0  # cli: bytes the in-process calls printed


def measure_traced(workload, seconds, tracer, calibrator):
    """Whole rounds of traced ops.

    For the cli workload the traced op is ``cli.main`` in this process; the
    real subprocess call is timed beside it as ``cli.process_ms``.
    """
    is_cli = hasattr(workload, "inprocess")
    op = workload.inprocess if is_cli else workload.run
    ledger, extra, r, raw_elapsed = Ledger(), TracedRun(), 0, 0.0

    def traced_op(case):
        with tracer.span("bench.op"):
            return op(case)

    while keep_going(ledger, raw_elapsed, seconds):
        for case in workload.round(r):
            if is_cli:
                dt, out, error = timed(workload.run, case)
                calibrator.sample()
                raw_elapsed += dt
                extra.process.append(dt * calibrator.close()[0])
                ledger.verify(workload, case, out, error, " [process]")
            first_span = len(tracer.spans)
            tracer.active = True
            dt, out, error = timed(traced_op, case)
            tracer.active = False
            calibrator.sample()
            raw_elapsed += dt
            if is_cli and out is not None:
                extra.stdout_bytes += len(out[1])
            ledger.record(workload, case, dt, out, error)
            del out
            factor = calibrator.close()[0]
            ledger.close_round([factor])
            extra.walls.append(dt * factor)
            extra.span_scales += [factor] * (len(tracer.spans) - first_span)
        r += 1
    return ledger, r, extra


def layer_metrics(spans, extra, import_ms, span_cost_s):
    """Per-layer metrics of a traced run, normalized per op."""
    t = LayerTotals(spans, extra.span_scales)
    n = len(extra.walls)
    wall_ms = 1e3 * sum(extra.walls) / n
    overhead_ms = 1e3 * span_cost_s * len(spans) / n
    reports = ("hardy.witness_report", "multipartite.leaf_report")
    pivots = t.count("simplex.solve")
    shots = t.count("sampling.sample")
    if extra.process:
        # cli: a call is interpreter start, the import, then main; main is
        # timed in this process, less the tracing overhead.
        process_ms = 1e3 * statistics.fmean(extra.process)
        unattributed = 1 - (import_ms + wall_ms - overhead_ms) / process_ms
    else:
        process_ms = 0.0
        unattributed = 1 - t.attributed / sum(extra.walls)
    return {
        "schmidt.decompose.calls": (t.n("schmidt.decompose") / n, "count"),
        "schmidt.decompose.self_ms": (t.self_ms("schmidt.decompose") / n, "ms"),
        **{
            f"schmidt.decompose.self_ms.d{b}": (1e3 * t.schmidt_self_by_bucket[b] / n, "ms")
            for b in SCHMIDT_BUCKETS
        },
        "hardy.witness_report.self_ms": (t.self_ms(*reports) / n, "ms"),
        "hardy.build_construction.ms": (t.self_ms("hardy.build_construction") / n, "ms"),
        "hardy.joint_table.ms": (t.self_ms("hardy.joint_table") / n, "ms"),
        "hardy.table_check.calls": (t.n("hardy.table_check") / n, "count"),
        "hardy.table_check.ms": (t.self_ms("hardy.table_check") / n, "ms"),
        "hardy.verify_decompositions.ms": (t.self_ms("hardy.verify_decompositions") / n, "ms"),
        "hardy.applicable_ratio": (t.count(*reports) / max(t.n(*reports), 1), "ratio"),
        "lhv.certify.self_ms": (t.self_ms("lhv.certify") / n, "ms"),
        "lhv.strategies_for_table.ms": (t.self_ms("lhv.strategies_for_table") / n, "ms"),
        "lhv.strategies": (t.count("lhv.strategies_for_table") / n, "count"),
        "lhv.lp_entries": (t.count("lhv.certify") / n, "count"),
        "simplex.solve.calls": (t.n("simplex.solve") / n, "count"),
        "simplex.solve.ms": (t.self_ms("simplex.solve") / n, "ms"),
        "simplex.pivots": (pivots / n, "count"),
        "simplex.ms_per_pivot": (t.self_ms("simplex.solve") / max(pivots, 1), "ms"),
        "multipartite.witness.self_ms": (t.self_ms("multipartite.witness") / n, "ms"),
        "multipartite.peel.calls": (t.n("multipartite.peel") / n, "count"),
        "multipartite.peel.ms": (t.self_ms("multipartite.peel") / n, "ms"),
        "multipartite.leaf_reports": (t.n("multipartite.leaf_report") / n, "count"),
        "multipartite.leaf_applicable_ratio": (
            t.count("multipartite.leaf_report") / max(t.n("multipartite.leaf_report"), 1),
            "ratio",
        ),
        "multipartite.table.self_ms": (t.self_ms("multipartite.table") / n, "ms"),
        "states.apply_local_projector.calls": (t.n("states.apply_local_projector") / n, "count"),
        "states.apply_local_projector.ms": (t.self_ms("states.apply_local_projector") / n, "ms"),
        "states.apply_local_complement.calls": (t.n("states.apply_local_complement") / n, "count"),
        "states.apply_local_complement.ms": (t.self_ms("states.apply_local_complement") / n, "ms"),
        "sampling.sample.ms": (t.self_ms("sampling.sample") / n, "ms"),
        "sampling.ns_per_shot": (1e6 * t.self_ms("sampling.sample") / max(shots, 1), "ns"),
        "sampling.analyze.ms": (t.self_ms("sampling.analyze") / n, "ms"),
        "sampling.csv.ms": (t.self_ms("sampling.csv") / n, "ms"),
        "sampling.csv_bytes": (t.count("sampling.csv") / n, "B"),
        "cli.process_ms": (process_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "statefile.load_state.ms": (t.self_ms("statefile.load_state") / n, "ms"),
        "cli.main.self_ms": (t.self_ms("cli.main") / n, "ms"),
        "cli.machine_dumps.ms": (t.self_ms("cli.machine_dumps") / n, "ms"),
        "cli.stdout_bytes": (extra.stdout_bytes / n, "B"),
        "bench.op.self_ms": (t.self_ms("bench.op") / n, "ms"),
        "trace.op_ms": (wall_ms, "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "trace.unattributed_share": (unattributed, "ratio"),
        "trace.spans": (len(spans) / n, "count"),
    }


def run_traced(args, workload, workdir):
    import_ms = 0.0
    if hasattr(workload, "inprocess"):
        import_ms = 1e3 * statistics.median(import_seconds("hardywitness.cli", 5)[1])
    calibrator = Calibrator()
    tracer = Tracer()
    cwd = os.getcwd()
    os.chdir(workdir)  # cli state paths are relative, as in the goldens
    try:
        with tracer.installed():
            ledger, rounds, extra = measure_traced(workload, args.seconds, tracer, calibrator)
    finally:
        os.chdir(cwd)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    cost = span_cost()
    calibrator.sample()
    cost *= calibrator.close()[0]
    metrics = layer_metrics(tracer.spans, extra, import_ms, cost)
    return ledger, rounds, metrics, {}, calibrator.kernel_times


def run_untraced(args, workload):
    setup_raw, setup = import_seconds("hardywitness", SETUP_REPEATS)
    calibrator = Calibrator()
    ledger, rounds = measure_untraced(workload, args.seconds, calibrator)
    ops = len(ledger.latencies)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    )
    metrics = {
        "ops_per_s": (ops / sum(ledger.latencies), "1/s"),
        "op_p50_ms": (quantile_ms(ledger.latencies, 50), "ms"),
        "op_p90_ms": (quantile_ms(ledger.latencies, 90), "ms"),
        "peak_rss_mb": (usage.ru_maxrss * 1024 / 1e6, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    raw = {
        "ops_per_s": ops / sum(ledger.raw),
        "op_p50_ms": quantile_ms(ledger.raw, 50),
        "op_p90_ms": quantile_ms(ledger.raw, 90),
        "setup_s": statistics.median(setup_raw),
    }
    return ledger, rounds, metrics, raw, calibrator.kernel_times


def run_workload(args) -> int:
    if not (SRC / "hardywitness" / "__init__.py").is_file():
        print(f"error: no hardywitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hardywitness

    if Path(hardywitness.__file__).resolve().parent != SRC / "hardywitness":
        print(f"error: imported hardywitness from {hardywitness.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cpu = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            ledger, rounds, metrics, raw, kernel = run_traced(args, workload, workdir)
        else:
            ledger, rounds, metrics, raw, kernel = run_untraced(args, workload)
    attempted = len(ledger.latencies)
    failed = len(ledger.failed_ids)
    record = run_record(args, cpu, rounds, ledger, kernel)
    if raw:
        record["raw"] = raw
    print("run_record " + json.dumps(record))
    for line in ledger.failures:
        print("failed " + line)
    for line in ledger.known_defects:
        print("known_defect " + line)
    print(
        f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted}); "
        f"known_defect_ratio {len(ledger.known_defects) / attempted:.6g} "
        f"({len(ledger.known_defects)}/{attempted})"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            result = results[trace] = json.loads(lines[-1])
            for key, metric in result["metrics"].items():
                rows.append((name, trace, key, metric["value"], metric["unit"]))
            rows.append((name, trace, "failed_ratio", result["failed"] / result["attempted"], "ratio"))
            rows.append((name, trace, "ops", result["attempted"], "count"))
        if len(results) == 2 and name != "cli":
            untraced_ms = 1e3 / results[0]["metrics"]["ops_per_s"]["value"]
            traced_ms = results[1]["metrics"]["trace.op_ms"]["value"]
            rows.append((name, "-", "trace.run_difference_ms", traced_ms - untraced_ms, "ms"))
    print()
    print(f"{'workload':<13}{'trace':<6}{'metric':<40}{'value':>16}  unit")
    for name, trace, key, value, unit in rows:
        print(f"{name:<13}{trace!s:<6}{key:<40}{value:>16.6g}  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
