"""The on-disk state vector format.

A state file is a JSON document with exactly two fields::

    {
      "dims": [2, 2],
      "amps": [[0.894427191, 0.0], [0.0, 0.0], [0.0, 0.0], [0.4472135955, 0.0]]
    }

``dims`` lists the subsystem dimensions (each >= 2); ``amps`` lists one
``[re, im]`` pair per basis state, flat in row-major order over ``dims``.
The vector is normalized on load, so any overall scale is accepted.
"""

from __future__ import annotations

import json

from .errors import DimensionMismatch, ParseError, ZeroVector
from .states import StateVector, make_state


def parse_state_text(text: str, source: str = "<string>") -> StateVector:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object with dims and amps")
    for field in ("dims", "amps"):
        if field not in doc:
            raise ParseError(f"{source}: missing field {field!r}")
    dims = doc["dims"]
    amps = doc["amps"]
    # exact types: a JSON true/false loads as bool, a subclass of int
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise ParseError(f"{source}: dims must be a list of integers")
    if not isinstance(amps, list) or not all(
        isinstance(a, list)
        and len(a) == 2
        and all(type(x) in (int, float) for x in a)
        for a in amps
    ):
        raise ParseError(f"{source}: amps must be a list of [re, im] pairs")
    try:
        return make_state(dims, [complex(re, im) for re, im in amps])
    except (DimensionMismatch, ZeroVector) as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_state(path) -> StateVector:
    """Read and validate a state file; raises :class:`ParseError` on any defect."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from exc
    return parse_state_text(text, source=str(path))


def state_to_json(v: StateVector) -> str:
    doc = {
        "dims": list(v.dims),
        "amps": [[z.real, z.imag] for z in v.amps],
    }
    return json.dumps(doc, indent=2) + "\n"


def dump_state(v: StateVector, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(v))
