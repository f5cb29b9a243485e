"""Exit code, stdout and stderr of CLI commands, pinned as text.

``cli_output_pins.json`` maps an argv, joined by single spaces, to
``[exit, stdout, stderr]``.  It holds every command of the benchmark's
``cli`` workload in machine and human format, and, in both formats: Bell
and GHZ3 runs that are not applicable, the feasible degenerate-pair
``certify`` of a Bell state, multipartite ``witness`` and ``certify`` with
the default, exhaustive and explicit peel orders, ``simulate --export``,
``scan``, and error cases.  Each is replayed in-process through ``cli.main``
in a directory that holds the state files it names; this is the only replay
of CLI output in the tests.  Text, not a digest, is stored, so a failure
shows which line moved.

Each golden in ``perfbench/cli_goldens.json`` is the exit code and stdout
sha256 of one of these pins (``test_perfbench_contract.py`` checks that), so
a change to a pinned benchmark output also needs a new golden, which is a
benchmark change.
"""

import contextlib
import io
import json
import sys
from itertools import zip_longest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
import hardywitness as hw  # noqa: E402
from hardywitness import cli  # noqa: E402

PINS = json.loads(Path(__file__).with_name("cli_output_pins.json").read_text())


def test_pins_hold_every_benchmark_command_in_both_formats():
    machine = {" ".join(argv) for argv in workloads.all_cli_commands()}
    human = {
        " ".join(arg for arg in argv if arg not in ("--format", "machine"))
        for argv in workloads.all_cli_commands()
    }
    assert (machine | human) - set(PINS) == set()


def _first_move(pinned, now):
    """The exit codes and the first stdout or stderr line that differs, pinned against now.

    That line is cut to 80 characters from just before its first moved one,
    since a machine-format output is one line of up to a few kilobytes.
    """
    exits = {"exit": (pinned[0], now[0])}
    for stream, pinned_text, now_text in zip(("stdout", "stderr"), pinned[1:], now[1:]):
        lines = zip_longest(pinned_text.splitlines(True), now_text.splitlines(True), fillvalue="")
        for n, (old, new) in enumerate(lines, 1):
            if old != new:
                col = next((j for j, (a, b) in enumerate(zip(old, new)) if a != b),
                           min(len(old), len(new)))
                start = max(col - 20, 0)
                return exits | {
                    f"{stream} line {n}, column {col + 1}": (old[start:start + 80],
                                                            new[start:start + 80])
                }
    return exits


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
        now = [code, out.getvalue(), err.getvalue()]
        if now != pinned:
            moved[command] = _first_move(pinned, now)
    assert moved == {}
