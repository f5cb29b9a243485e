"""Every fenced ``python`` block of README.md runs, each in a fresh namespace.

A public name that the README uses and the package no longer has fails here,
and so does a change to the human ``certify`` block the README quotes.
"""

import re
from pathlib import Path

import pytest

import hardywitness as hw
from hardywitness.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_multipartite_certify_block_matches_output(tmp_path, tripartite_example, capsys):
    """The quoted 2/45 block: its first 6 and last 2 lines, and 36 T3=1 terms."""
    block = re.search(
        r"that is the slice T3=1:\n\n +```\n(.*?)\n +```", README.read_text(), flags=re.S
    ).group(1)
    quoted = [line[2:] for line in block.splitlines()]
    assert "(36 terms, all with T3=1)" in quoted[6]
    path = tmp_path / "tri.json"
    hw.dump_state(tripartite_example, path)
    assert main(["certify", "--state", str(path), "--mode", "multipartite"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[:6] == quoted[:6]
    assert out[-2:] == quoted[-2:]
    terms = out[4:-2]
    assert len(terms) == 36 and all(line.endswith("T3=1)") for line in terms)
