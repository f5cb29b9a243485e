"""What the benchmark in ``perfbench/`` relies on, checked without running it.

The CLI goldens pin the exit code and stdout sha256 of every command the
benchmark's ``cli`` workload can issue; here each one is replayed in-process
through ``cli.main``.  The tracer patches module and class attributes by name
and reads them from ``owner.__dict__``, so each of its targets must be
defined on its owner.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from hardywitness import cli, lhv  # noqa: E402


def test_cli_goldens_replay_in_process(tmp_path, monkeypatch):
    goldens = json.loads(workloads.GOLDENS_PATH.read_text())
    commands = workloads.all_cli_commands()
    assert sorted(" ".join(argv) for argv in commands) == sorted(goldens)
    workloads.write_cli_state_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        golden = goldens[" ".join(argv)]
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest, err.getvalue()) != (golden["exit"], golden["sha256"], ""):
            mismatches.append((" ".join(argv), code, err.getvalue()[:200]))
    assert mismatches == []


def test_tracer_targets_are_defined_on_their_owners():
    targets = tracing._patch_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_certify_enumerates_strategies_once():
    """One ``strategies_for_table`` span per certify, as the traced counts assume."""
    v = workloads.tripartite_example()
    table = cli.multipartite_table(v, cli.multipartite_witness(v))
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.active = True
        cert = lhv.certify(table)
        tracer.active = False
    spans = {}
    for name, _, _, _, count in tracer.spans:
        spans.setdefault(name, []).append(count)
    assert len(cert.strategies) == 162
    assert spans["lhv.strategies_for_table"] == [162]
    assert spans["lhv.certify"] == [(len(cert.entry_keys) + 1) * 162]
