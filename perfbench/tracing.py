"""Outside-in span tracing of hardywitness layers.

The tracer replaces module-level names that one layer uses to call another
(for example ``hardy.schmidt_decompose`` or ``lhv.solve_equality_feasibility``)
with wrappers that record a span: name, start, end, parent span and a count
taken from the return value.  Nothing inside ``src/hardywitness`` changes;
patching happens only inside a ``with tracer.installed():`` block and is undone
on exit.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

# Schmidt self time is also split by the larger side dimension, rounded up
# to one of these buckets.
SCHMIDT_BUCKETS = (2, 4, 8, 16, 32, 64)


def _schmidt_bucket(result):
    d = max(result.left_vectors.shape[0], result.right_vectors.shape[0])
    return next((b for b in SCHMIDT_BUCKETS if d <= b), SCHMIDT_BUCKETS[-1])


def _lp_entries(cert):
    return (len(cert.entry_keys) + 1) * len(cert.strategies)


def _patch_targets():
    """(owner, attribute, span name, count taken from the result, or None)."""
    from hardywitness import cli, hardy, lhv, multipartite, sampling

    schmidt = ("schmidt.decompose", _schmidt_bucket)
    report = ("hardy.witness_report", lambda r: int(r.applicable))
    leaf = ("multipartite.leaf_report", lambda r: int(r.applicable))
    return [
        (hardy, "schmidt_decompose", *schmidt),
        (multipartite, "schmidt_decompose", *schmidt),
        (cli, "schmidt_decompose", *schmidt),
        (hardy, "make_witness_report", *report),
        (cli, "make_witness_report", *report),
        (multipartite, "make_witness_report", *leaf),
        (hardy, "build_construction", "hardy.build_construction", None),
        (cli, "build_construction", "hardy.build_construction", None),
        (hardy, "joint_table", "hardy.joint_table", None),
        (cli, "joint_table", "hardy.joint_table", None),
        (hardy.JointProbabilityTable, "check", "hardy.table_check", None),
        (hardy, "verify_equivalent_decompositions", "hardy.verify_decompositions", None),
        (lhv, "certify", "lhv.certify", _lp_entries),
        (cli, "certify", "lhv.certify", _lp_entries),
        (lhv, "strategies_for_table", "lhv.strategies_for_table", len),
        (lhv, "solve_equality_feasibility", "simplex.solve", lambda r: r.iterations),
        (multipartite, "multipartite_witness", "multipartite.witness", None),
        (cli, "multipartite_witness", "multipartite.witness", None),
        (multipartite, "peel", "multipartite.peel", None),
        (multipartite, "multipartite_table", "multipartite.table", None),
        (cli, "multipartite_table", "multipartite.table", None),
        (multipartite, "apply_local_projector", "states.apply_local_projector", None),
        (multipartite, "apply_local_complement", "states.apply_local_complement", None),
        (sampling, "sample_from_table", "sampling.sample", len),
        (cli, "sample_from_table", "sampling.sample", len),
        (sampling, "analyze", "sampling.analyze", None),
        (cli, "analyze", "sampling.analyze", None),
        (sampling, "records_to_csv", "sampling.csv", len),
        (cli, "load_state", "statefile.load_state", None),
        (cli, "machine_dumps", "cli.machine_dumps", len),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Records spans as ``[name, start, end, parent_index, count]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every cross-layer name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in _patch_targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (the per-op root)."""
        entry = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        entry[1] = perf_counter()
        try:
            yield entry
        finally:
            entry[2] = perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps([name, start, end, parent, count]) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, from a no-op probe.

    Op-to-op noise is larger than the tracing cost on most ops, so the
    per-op overhead is reported as this cost times the spans per op.
    """
    def noop():
        return None

    probe = Tracer()
    traced = probe._wrap(noop, "probe", None)
    elapsed = []
    for fn, active in ((noop, False), (traced, True)):
        probe.active = active
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(perf_counter() - t0)
    return max(elapsed[1] - elapsed[0], 0.0) / calls


class LayerTotals:
    """Per-name totals over a list of spans: calls, duration, self time.

    ``scales`` holds one calibration factor per span (see ``clock.py``).
    """

    def __init__(self, spans, scales):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.schmidt_self_by_bucket = {b: 0.0 for b in SCHMIDT_BUCKETS}
        for k, (name, start, end, parent, count) in enumerate(spans):
            duration = (end - start) * scales[k]
            own = duration - child_time[k] * scales[k]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            if count is not None:
                if name == "schmidt.decompose":
                    self.schmidt_self_by_bucket[count] += own
                else:
                    self.counts[name] = self.counts.get(name, 0) + count
        self.attributed = sum(self.self_time.values())

    def self_ms(self, *names) -> float:
        return 1e3 * sum(self.self_time.get(n, 0.0) for n in names)

    def n(self, *names) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def count(self, *names) -> float:
        return sum(self.counts.get(n, 0) for n in names)
