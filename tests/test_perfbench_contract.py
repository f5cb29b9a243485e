"""What the benchmark in ``perfbench/`` relies on, checked without running it.

The CLI goldens pin the exit code and stdout sha256 of every command the
benchmark's ``cli`` workload can issue; here each one is replayed in-process
through ``cli.main``.  The tracer patches module and class attributes by name
and reads them from ``owner.__dict__``, so each of its targets must be
defined on its owner.  The benchmark re-checks every certificate with
``reference.certificate_problems``, so what it reads from a certificate is
checked here too.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import hardywitness as hw  # noqa: E402
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


@pytest.mark.parametrize(
    "argv, code, layer_spans",
    [
        (["certify", "--state", "p0.json", "--split", "1|2"], 3, ["lhv.certify"]),
        (["simulate", "--state", "p0.json", "--split", "1|2", "--shots", "100", "--seed", "1"],
         0, ["sampling.sample", "sampling.analyze"]),
        (["witness", "--state", "t0.json", "--mode", "multipartite"], 0,
         ["multipartite.witness"]),
    ],
    ids=["certify", "simulate", "multipartite-witness"],
)
def test_traced_cli_call_records_each_layer_call_once(argv, code, layer_spans, tmp_path,
                                                      monkeypatch):
    """The commands call each layer through its owner: one span per call, not nested twice."""
    workloads.write_cli_state_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        tracer.active = True
        assert cli.main([*argv, "--format", "machine"]) == code
        tracer.active = False
    names = [span[0] for span in tracer.spans]
    assert {name: names.count(name) for name in layer_spans} == dict.fromkeys(layer_spans, 1)


def test_reference_accepts_the_certificates_it_re_checks():
    """Infeasible and feasible certificates, bipartite and multipartite.

    The flagged probability passed is the table's own: 0 for the two
    feasible controls, an equal-weight pair and the product state |020>.
    """
    split = hw.Bipartition((0,), (1,))
    report = hw.make_witness_report(workloads.state_08_02(), split)
    bell = hw.make_state([2, 2], [1, 0, 0, 1])
    construction = hw.build_construction(
        hw.schmidt_decompose(bell, split), (0, 1), allow_degenerate=True
    )
    tri = workloads.tripartite_example()
    w = hw.multipartite_witness(tri)
    cases = [
        (report.table, report.hardy_measured, False),
        (hw.joint_table(bell, construction), 0.0, True),
        (hw.multipartite_table(tri, w), w.combined_probability, False),
        (hw.multipartite_table(hw.basis_state([3, 3, 2], (0, 2, 0)), w), 0.0, True),
    ]
    for table, flagged, feasible in cases:
        cert = lhv.certify(table)
        assert cert.feasible == feasible
        assert reference.certificate_problems(table, cert, flagged) == []
