"""JSON (de)serialization of loops and dependence graphs.

Lets users persist generated workloads, exchange loop bodies between tools,
and pin exact test fixtures.  The format is a plain dictionary:

.. code-block:: json

    {
      "name": "daxpy",
      "trip_count": 1000,
      "operations": [{"uid": 0, "opcode": "load", "name": "x[i]"}, ...],
      "dependences": [
          {"src": 0, "dst": 2, "latency": 2, "distance": 0, "kind": "data"},
          ...
      ]
    }

Custom opcodes (not in :data:`repro.ir.opcodes.OPCODES`) are inlined with
their class/latency so round-trips never lose information.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..errors import GraphError
from .ddg import DataDependenceGraph, DepKind
from .loop import Loop
from .opcodes import OPCODES, OpClass, Opcode


def loop_to_dict(loop: Loop) -> Dict[str, Any]:
    """Serialize a loop to a JSON-compatible dictionary."""
    ddg = loop.ddg
    operations = []
    for op in ddg.operations():
        entry: Dict[str, Any] = {
            "uid": op.uid,
            "opcode": op.opcode.name,
            "name": op.name,
        }
        if op.opcode.name not in OPCODES:
            entry["op_class"] = op.opcode.op_class.value
            entry["latency"] = op.opcode.latency
            entry["is_store"] = op.opcode.is_store
        operations.append(entry)
    # Replayable order, not edges(): re-adding these dependences one by
    # one reproduces the graph's adjacency-list orders exactly, so a
    # deserialized loop schedules bit-identically to the original (the
    # schedulers' tie-breaks follow adjacency order).
    dependences = [
        {
            "src": dep.src,
            "dst": dep.dst,
            "latency": dep.latency,
            "distance": dep.distance,
            "kind": dep.kind.value,
        }
        for dep in ddg.edges_replayable()
    ]
    return {
        "name": loop.name,
        "trip_count": loop.trip_count,
        "operations": operations,
        "dependences": dependences,
    }


def loop_from_dict(data: Dict[str, Any]) -> Loop:
    """Rebuild a loop from :func:`loop_to_dict` output.

    Raises:
        GraphError: if a field is missing or malformed, uids are not
            dense/ascending, or references dangle.
    """
    if not isinstance(data, dict):
        raise GraphError(f"a serialized loop is an object, got {type(data).__name__}")
    try:
        return _loop_from_dict(data)
    except KeyError as error:
        raise GraphError(f"serialized loop lacks field {error}") from error
    except (TypeError, ValueError) as error:
        raise GraphError(f"malformed serialized loop: {error}") from error


def _loop_from_dict(data: Dict[str, Any]) -> Loop:
    ddg = DataDependenceGraph(data.get("name", "loop"))
    ops_sorted = sorted(data["operations"], key=lambda e: e["uid"])
    for expected, entry in enumerate(ops_sorted):
        if entry["uid"] != expected:
            raise GraphError(
                f"serialized uids must be dense from 0; got {entry['uid']} "
                f"at position {expected}"
            )
        name = entry["opcode"]
        if name in OPCODES:
            opcode = OPCODES[name]
        else:
            opcode = Opcode(
                name,
                OpClass(entry["op_class"]),
                entry["latency"],
                entry.get("is_store", False),
            )
        ddg.add_operation(opcode, entry.get("name", ""))

    for entry in data["dependences"]:
        ddg.add_dependence(
            ddg.operation(entry["src"]),
            ddg.operation(entry["dst"]),
            latency=entry["latency"],
            distance=entry.get("distance", 0),
            kind=DepKind(entry.get("kind", "data")),
        )
    ddg.validate()
    return Loop(ddg, trip_count=data.get("trip_count", 1), name=ddg.name)


def dumps(loop: Loop, indent: int = 2) -> str:
    """Serialize a loop to a JSON string."""
    return json.dumps(loop_to_dict(loop), indent=indent)


def loads(text: str) -> Loop:
    """Parse a loop from a JSON string (:class:`GraphError` if invalid)."""
    try:
        data = json.loads(text)
    except ValueError as error:
        raise GraphError(f"loop is not valid JSON: {error}") from error
    return loop_from_dict(data)


def save(loop: Loop, path: str) -> None:
    """Write a loop to a JSON file."""
    with open(path, "w") as handle:
        handle.write(dumps(loop))


def load(path: str) -> Loop:
    """Read a loop from a JSON file (:class:`GraphError` if unreadable)."""
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, ValueError) as error:
        raise GraphError(f"cannot read loop file {path!r}: {error}") from error
    return loads(text)
