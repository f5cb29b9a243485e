"""What a process imports: each CLI command loads only the layers it runs.

``import hardywitness`` loads the two-party core; the ``lhv``, ``simplex``,
``multipartite`` and ``sampling`` layers load on first use.  Each command of
the benchmark's ``cli`` workload runs here in a fresh interpreter, the way
``python -m hardywitness.cli`` runs it, and the package modules loaded by its
end are compared with the layers that command needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
import hardywitness as hw  # noqa: E402

DEFERRED = {"lhv", "simplex", "multipartite", "sampling"}

# Runs ``python -m hardywitness.cli ARGV`` with stdout discarded, then prints
# the exit code and the loaded hardywitness.* modules.
RUN_CLI = """
import contextlib, io, json, runpy, sys
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("hardywitness.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, [m for m in sys.modules if m.startswith("hardywitness.")]]))
"""


def run_fresh(source, argv=(), cwd=None):
    """What ``source`` prints as JSON when run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def deferred_among(modules):
    return DEFERRED & {m.split(".", 1)[1] for m in modules}


def layers_needed(argv):
    if "multipartite" in argv:
        return {"multipartite"}
    return {"certify": {"lhv", "simplex"}, "simulate": {"sampling"}}.get(argv[0], set())


def kind(argv):
    flags = [a.lstrip("-") for a in ("multipartite", "--idealized") if a in argv]
    return "-".join([argv[0], *flags])


ROUND = workloads.cli_round_commands("p0.json", "t0.json", (0,))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    workloads.write_cli_state_files(path)
    return path


@pytest.mark.parametrize("argv", ROUND, ids=[kind(argv) for argv in ROUND])
def test_cli_command_loads_only_its_layers(argv, workdir):
    code, modules = run_fresh(RUN_CLI, argv, cwd=workdir)
    assert code in (0, 3)
    assert deferred_among(modules) == layers_needed(argv)


def test_import_loads_no_deferred_layer():
    modules = run_fresh(
        "import json, sys, hardywitness\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('hardywitness.')]))"
    )
    assert deferred_among(modules) == set()


def test_every_public_name_resolves_from_a_fresh_import():
    problems = run_fresh("""
import json
import hardywitness as hw
problems = [f"not in dir(): {n}" for n in hw.__all__ if n not in dir(hw)]
star = {}
exec("from hardywitness import *", star)
problems += [f"star import differs: {n}" for n in hw.__all__ if star.get(n) is not getattr(hw, n)]
print(json.dumps(problems))
""")
    assert problems == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hw.no_such_name  # noqa: B018
    assert not hasattr(hw, "no_such_name")
