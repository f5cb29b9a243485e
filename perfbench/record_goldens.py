"""Record the cli workload's goldens: exit code and stdout sha256 per command.

Run from the repository root at the commit whose output is the reference:

    python3 perfbench/record_goldens.py

Every command the cli workload can issue, for any seed, is run once as its
own ``python -m hardywitness.cli`` process on the workload's fixed state
files, and the results are written to ``perfbench/cli_goldens.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import GOLDENS_PATH, all_cli_commands, cli_subprocess, write_cli_state_files


def main() -> int:
    goldens = {}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        write_cli_state_files(workdir)
        for argv in all_cli_commands():
            code, stdout, stderr = cli_subprocess(argv, workdir, SRC)
            if stderr:
                print(f"stderr from {argv}: {stderr!r}", file=sys.stderr)
                return 1
            goldens[" ".join(argv)] = {
                "exit": code,
                "sha256": hashlib.sha256(stdout).hexdigest(),
            }
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
