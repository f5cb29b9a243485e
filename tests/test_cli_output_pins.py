"""Exit code, stdout and stderr of CLI commands, pinned as text.

``cli_output_pins.json`` maps an argv, joined by single spaces, to
``[exit, stdout, stderr]``.  It holds every command of the benchmark's
``cli`` workload in human format, and, in both formats: Bell and GHZ3 runs
that are not applicable, the feasible degenerate-pair ``certify`` of a Bell
state, multipartite ``witness`` and ``certify`` with the default, exhaustive
and explicit peel orders, ``simulate --export``, ``scan``, and error cases.
Each is replayed in-process through ``cli.main`` in a directory that holds
the state files it names.  Text, not a digest, is stored, so a failure
shows which line moved.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
import hardywitness as hw  # noqa: E402
from hardywitness import cli  # noqa: E402

PINS = json.loads(Path(__file__).with_name("cli_output_pins.json").read_text())


def test_pins_hold_every_benchmark_command_in_human_format():
    human = {
        " ".join(arg for arg in argv if arg not in ("--format", "machine"))
        for argv in workloads.all_cli_commands()
    }
    assert human - set(PINS) == set()


def test_cli_output_replays_pins(tmp_path, monkeypatch):
    workloads.write_cli_state_files(tmp_path)
    hw.dump_state(hw.make_state([2, 2], [1, 0, 0, 1]), tmp_path / "bell.json")
    hw.dump_state(hw.ghz_state(3), tmp_path / "ghz3.json")
    monkeypatch.chdir(tmp_path)
    moved = {}
    for command, pinned in PINS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.split(" "))
        if [code, out.getvalue(), err.getvalue()] != pinned:
            moved[command] = [code, out.getvalue(), err.getvalue()]
    assert moved == {}
