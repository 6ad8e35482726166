"""Operation classes and opcodes for the VLIW intermediate representation.

The machine model of the paper (Table 1) distinguishes three functional-unit
classes — integer, floating point and memory.  Every operation in a loop body
belongs to exactly one class, which determines the functional unit it needs
and its default latency.

The scanned paper does not preserve the latency column of Table 1, so we use
the conventional latencies of that era's statically scheduled machines (see
DESIGN.md §2): single-cycle integer ALU, 3-cycle pipelined FP add/multiply,
6-cycle FP divide, 2-cycle loads, 1-cycle stores.  All algorithms see the
same latencies, so comparisons between schedulers are unaffected by the exact
values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional-unit class an operation executes on."""

    INT = "int"
    FP = "fp"
    MEM = "mem"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Dense per-member index (0..len-1, definition order).  The reservation
# table (repro.schedule.mrt) addresses its flat per-(cluster, class) rows
# as ``cluster * len(OpClass) + op_class.index``;
# a plain attribute read here avoids Enum.__hash__ (a Python-level
# function) on the engine's innermost resource probe.
for _index, _member in enumerate(OpClass):
    _member.index = _index
del _index, _member


@dataclass(frozen=True)
class Opcode:
    """A named operation kind.

    Attributes:
        name: Mnemonic, e.g. ``"fadd"``.
        op_class: Functional-unit class the opcode executes on.
        latency: Cycles from issue until the result may be consumed.
        is_store: True for operations that write memory and produce no value.
    """

    name: str
    op_class: OpClass
    latency: int
    is_store: bool = False

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError(f"opcode {self.name!r} must have latency >= 1")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# The default opcode table.  Users may define additional opcodes; the
# schedulers only look at ``op_class``, ``latency`` and ``is_store``.
ADD = Opcode("add", OpClass.INT, 1)
SUB = Opcode("sub", OpClass.INT, 1)
MUL = Opcode("mul", OpClass.INT, 2)
SHIFT = Opcode("shift", OpClass.INT, 1)
CMP = Opcode("cmp", OpClass.INT, 1)
FADD = Opcode("fadd", OpClass.FP, 3)
FSUB = Opcode("fsub", OpClass.FP, 3)
FMUL = Opcode("fmul", OpClass.FP, 3)
FDIV = Opcode("fdiv", OpClass.FP, 6)
LOAD = Opcode("load", OpClass.MEM, 2)
STORE = Opcode("store", OpClass.MEM, 1, is_store=True)

# Opcodes inserted by the scheduler itself (spill code and explicit
# inter-cluster copies); they are real operations that consume real slots.
SPILL_STORE = Opcode("spill_store", OpClass.MEM, 1, is_store=True)
SPILL_LOAD = Opcode("spill_load", OpClass.MEM, 2)
COMM_STORE = Opcode("comm_store", OpClass.MEM, 1, is_store=True)
COMM_LOAD = Opcode("comm_load", OpClass.MEM, 2)

#: All built-in opcodes, by name.
OPCODES = {
    op.name: op
    for op in (
        ADD, SUB, MUL, SHIFT, CMP,
        FADD, FSUB, FMUL, FDIV,
        LOAD, STORE,
        SPILL_STORE, SPILL_LOAD, COMM_STORE, COMM_LOAD,
    )
}


def opcode(name: str) -> Opcode:
    """Look up a built-in opcode by name.

    Raises:
        KeyError: if ``name`` is not a built-in opcode.
    """
    return OPCODES[name]
