"""What the benchmark in ``perfbench/`` relies on, checked without running it.

The CLI goldens pin the exit code and stdout sha256 of every command the
benchmark's ``cli`` workload can issue.  Each golden must be the digest of
that command's text pin in ``cli_output_pins.json``; that is checked here
without running the CLI, since ``test_cli_output_pins.py`` replays the pins
and is the only replay of CLI output.  A change to a pinned benchmark output
therefore also needs a new golden, which is a benchmark change.  The tracer
patches module and class attributes by name and reads them from
``owner.__dict__``, so each of its targets must be defined on its owner.
The benchmark re-checks every certificate with
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
from hardywitness.multipartite import _measured_table  # noqa: E402

GOLDENS = json.loads(workloads.GOLDENS_PATH.read_text())
PINS = json.loads(Path(__file__).with_name("cli_output_pins.json").read_text())


def goldens_off_their_pins(goldens, pins):
    """Commands whose golden is not their text pin's exit code and stdout sha256, stderr empty."""
    def as_golden(pin):
        code, stdout, stderr = pin
        return code, hashlib.sha256(stdout.encode()).hexdigest(), stderr

    return [
        command for command, golden in goldens.items()
        if command not in pins or as_golden(pins[command]) != (golden["exit"], golden["sha256"], "")
    ]


def test_cli_goldens_are_digests_of_their_text_pins():
    assert sorted(" ".join(argv) for argv in workloads.all_cli_commands()) == sorted(GOLDENS)
    assert goldens_off_their_pins(GOLDENS, PINS) == []


def test_goldens_check_names_a_moved_pin():
    """One changed stdout character or exit code, on in-memory copies of the pins."""
    command = next(iter(GOLDENS))
    code, stdout, stderr = PINS[command]
    mid = len(stdout) // 2
    edited = stdout[:mid] + ("1" if stdout[mid] != "1" else "2") + stdout[mid + 1:]
    for pin in ([code, edited, stderr], [code + 1, stdout, stderr]):
        assert goldens_off_their_pins(GOLDENS, {**PINS, command: pin}) == [command]


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
        (
            _measured_table(
                hw.basis_state([3, 3, 2], (0, 2, 0)),
                w.final_report.construction, w.final_subsystems, w.steps,
            ),
            0.0,
            True,
        ),
    ]
    for table, flagged, feasible in cases:
        cert = lhv.certify(table)
        assert cert.feasible == feasible
        assert reference.certificate_problems(table, cert, flagged) == []
