"""The structural checks: placements, dependences, FUs, buses.

Sibling of :mod:`~repro.schedule.analysis_core`, which owns the
*register* picture of a schedule.  This module holds the *structural*
picture as plain functions over the raw
:class:`~repro.schedule.result.ModuloSchedule` — its placements, aux
ops and value ledger — and nothing the scheduling engine built:

* :func:`check_placements` — every loop operation placed exactly once,
  on an existing cluster;
* :func:`check_dependences` — every DDG edge, with the communication
  evidence (a delivered register copy or a store/load pair) for
  cross-cluster values;
* :func:`fu_usage_rows` / :func:`bus_usage_rows` — the per-(cluster,
  op-class) issue counts and the per-bus occupancy over the II kernel
  cycles, which :func:`check_structure` holds to the machine's
  capacities.

:meth:`~repro.schedule.result.ModuloSchedule.validate` runs
:func:`check_structure` on every schedule, so a defect in how the
engine's :class:`~repro.schedule.mrt.ReservationTable` records use
cannot pass its own check.  The engine's ``verify`` mode also compares
the table's occupancy rows with :func:`fu_usage_rows` and
:func:`bus_usage_rows` at the end of each attempt — the only check that
catches a table that over-counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import ValidationError
from ..ir.ddg import DepKind
from ..ir.opcodes import OpClass
from .values import LOAD_LATENCY, ValueState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .result import ModuloSchedule

#: A functional-unit occupancy key: one (cluster, op-class) row.
FUKey = Tuple[int, OpClass]


def check_structure(schedule: "ModuloSchedule") -> None:
    """Run every structural pass; raise on the first violation.

    Pass order is the seed validator's: placements, dependences,
    functional units, then buses.
    """
    machine = schedule.machine
    check_placements(schedule)
    check_dependences(schedule)
    for (cluster, op_class), row in fu_usage_rows(schedule).items():
        capacity = machine.cluster(cluster).units_for_class(op_class)
        for cycle, used in enumerate(row):
            if used > capacity:
                raise ValidationError(
                    f"cluster {cluster} {op_class} oversubscribed at "
                    f"kernel cycle {cycle}: {used} > {capacity}"
                )
    bus_rows, bus_error = bus_usage_rows(schedule)
    if bus_error is not None:
        raise ValidationError(bus_error)
    for bus, row in bus_rows.items():
        if bus >= machine.num_buses:
            raise ValidationError(f"transfer on nonexistent bus {bus}")
        for cycle, used in enumerate(row):
            if used > 1:
                raise ValidationError(
                    f"bus {bus} double-booked at kernel cycle {cycle}"
                )


def check_placements(schedule: "ModuloSchedule") -> None:
    """Every loop operation placed once, on a cluster the machine has.

    Uids are dense from 0 (a
    :class:`~repro.ir.ddg.DataDependenceGraph` invariant) and the
    placement map holds each uid at most once, so ``n`` placed uids all
    within ``[0, n)`` are exactly the full uid set.
    """
    num_clusters = schedule.machine.num_clusters
    expected = schedule.loop.num_operations
    for uid, placed in schedule.placements.items():
        if not 0 <= placed.cluster < num_clusters:
            raise ValidationError(
                f"operation {uid} on bogus cluster {placed.cluster}"
            )
        if not 0 <= uid < expected:
            raise ValidationError(
                f"cluster {placed.cluster} hosts uid {uid} outside "
                f"[0, {expected})"
            )
    if len(schedule.placements) != expected:
        raise ValidationError(
            f"{len(schedule.placements)} of {expected} operations are scheduled"
        )


def check_dependences(schedule: "ModuloSchedule") -> None:
    """Sweep every DDG edge; raise on the first violated dependence.

    This is the reference dependence pass: same-cluster (and non-DATA)
    edges are checked by separation arithmetic, cross-cluster DATA edges
    by their communication evidence (a delivered register copy or a
    store/load pair in the value ledger).
    """
    ddg = schedule.loop.ddg
    ii = schedule.ii
    placements = schedule.placements
    for dep in ddg.edges():
        src = placements.get(dep.src)
        dst = placements.get(dep.dst)
        if src is None or dst is None:
            missing = dep.src if src is None else dep.dst
            raise ValidationError(f"operation {missing} is not scheduled")
        separation = dst.time + ii * dep.distance - src.time
        if dep.kind is not DepKind.DATA or src.cluster == dst.cluster:
            if separation < dep.latency:
                raise ValidationError(
                    f"dependence {dep.src}->{dep.dst} violated: "
                    f"separation {separation} < latency {dep.latency}"
                )
            continue
        # Cross-cluster DATA edge: communication evidence required.
        _check_communication(schedule, dep, src, dst)


def _check_communication(schedule: "ModuloSchedule", dep, src, dst) -> None:
    value = schedule.values.get(dep.src)
    if value is None:
        raise ValidationError(f"no value state for producer {dep.src}")
    birth = src.time + schedule.loop.ddg.operation(dep.src).latency
    read_time = dst.time + schedule.ii * dep.distance
    use = _find_use(value, dep.dst, read_time)

    if use.route == "reg":
        delivered = value.copy_available(dst.cluster)
        if delivered is None or delivered > read_time:
            raise ValidationError(
                f"value {dep.src} not in cluster {dst.cluster} registers "
                f"by cycle {read_time}"
            )
        for transfer in value.transfers:
            if transfer.dst_cluster == dst.cluster and transfer.slot.start < birth:
                raise ValidationError(
                    f"value {dep.src} transferred before it was produced"
                )
    elif use.route == "mem":
        ready = value.memory_ready()
        if ready is None:
            raise ValidationError(
                f"memory-routed use of {dep.src} but the value was never stored"
            )
        if value.store_time < birth:
            raise ValidationError(f"value {dep.src} stored before produced")
        if use.load_time is None or use.load_time < ready:
            raise ValidationError(
                f"load of value {dep.src} issues before the store completes"
            )
        if use.load_time + LOAD_LATENCY > read_time:
            raise ValidationError(
                f"load of value {dep.src} completes after the read at {read_time}"
            )
    else:  # pragma: no cover - defensive
        raise ValidationError(f"unknown route {use.route!r}")


def _find_use(value: ValueState, consumer: int, read_time: int):
    for use in value.uses:
        if use.consumer == consumer and use.read_time == read_time:
            return use
    raise ValidationError(
        f"no use record for consumer {consumer} of value {value.producer}"
    )


def fu_usage_rows(schedule: "ModuloSchedule") -> Dict[FUKey, List[int]]:
    """Per-(cluster, op-class) issue counts over the kernel cycles.

    The reference functional-unit sweep: every placement occupies its
    class at ``time % II``; every auxiliary operation (spill or
    communication store/load) occupies a memory unit.  Only rows with at
    least one occupied cycle are materialized, matching
    :meth:`~repro.schedule.mrt.ReservationTable.fu_occupancy_rows`.
    """
    ii = schedule.ii
    rows: Dict[FUKey, List[int]] = {}
    ddg = schedule.loop.ddg
    for uid, placed in schedule.placements.items():
        key = (placed.cluster, ddg.operation(uid).op_class)
        row = rows.get(key)
        if row is None:
            row = rows[key] = [0] * ii
        row[placed.time % ii] += 1
    for aux in schedule.aux_ops:
        key = (aux.cluster, OpClass.MEM)
        row = rows.get(key)
        if row is None:
            row = rows[key] = [0] * ii
        row[aux.time % ii] += 1
    return rows


def bus_usage_rows(
    schedule: "ModuloSchedule",
) -> Tuple[Dict[int, List[int]], Optional[str]]:
    """Per-bus occupancy counts over the kernel cycles, plus the first
    self-overlap violation (a transfer longer than the II collides with
    the next iteration's instance of itself)."""
    ii = schedule.ii
    rows: Dict[int, List[int]] = {}
    error: Optional[str] = None
    for value in schedule.values.values():
        for transfer in value.transfers:
            cycles = {
                (transfer.slot.start + k) % ii
                for k in range(transfer.slot.length)
            }
            if len(cycles) != transfer.slot.length:
                if error is None:
                    error = (
                        f"transfer of value {value.producer} overlaps itself "
                        f"(length {transfer.slot.length} > II {ii})"
                    )
                continue
            row = rows.get(transfer.slot.bus)
            if row is None:
                row = rows[transfer.slot.bus] = [0] * ii
            for cycle in cycles:
                row[cycle] += 1
    return rows, error
