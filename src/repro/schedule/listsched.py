"""List scheduling fallback.

The paper applies plain (acyclic) list scheduling to the few loops whose
initiation interval grows past the point where modulo scheduling is
worthwhile.  One iteration of the loop body is scheduled on the clustered
machine — greedy earliest-completion cluster choice, bus transfers for
cross-cluster values — and iterations execute back to back without overlap,
so loop-carried dependences are trivially satisfied whenever the iteration
length is at least the largest carried latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..ir.ddg import DepKind
from ..ir.loop import Loop
from ..machine.config import MachineConfig
from ..ir.opcodes import OpClass


@dataclass
class ListSchedule:
    """An acyclic schedule of one loop iteration."""

    loop: Loop
    machine: MachineConfig
    placements: Dict[int, Tuple[int, int]]  # uid -> (cluster, cycle)
    length: int  # cycles per iteration
    scheduler_name: str = "list"

    def execution_cycles(self, trip_count: Optional[int] = None) -> int:
        niter = self.loop.trip_count if trip_count is None else trip_count
        return niter * self.length

    def ipc(self, trip_count: Optional[int] = None) -> float:
        cycles = self.execution_cycles(trip_count)
        if cycles <= 0:
            return 0.0
        niter = self.loop.trip_count if trip_count is None else trip_count
        return niter * self.loop.num_operations / cycles

    def register_peaks(self) -> List[int]:
        """Uniform register-stats surface with :class:`ModuloSchedule`.

        Iterations run back to back, so no modulo-overlap register model
        applies; the eval metrics treat list-scheduled loops as exerting
        no steady-state pressure.
        """
        return [0] * self.machine.num_clusters


def list_schedule(loop: Loop, machine: MachineConfig) -> ListSchedule:
    """Greedy list schedule of one iteration on the clustered machine.

    Operations are visited in topological order; each is placed on the
    cluster/cycle pair that lets it issue earliest, accounting for
    functional-unit capacity and one bus transfer per cross-cluster value
    (each occupying the bus for ``bus_latency`` cycles).
    """
    ddg = loop.ddg
    horizon = 4 * (
        sum(op.latency for op in ddg.operations()) + machine.bus_latency + 1
    ) + 16
    fu_used: Dict[Tuple[int, OpClass, int], int] = {}
    bus_used: Dict[Tuple[int, int], bool] = {}
    placements: Dict[int, Tuple[int, int]] = {}

    def unit_free(cluster: int, op_class: OpClass, cycle: int) -> bool:
        cap = machine.cluster(cluster).units_for_class(op_class)
        return fu_used.get((cluster, op_class, cycle), 0) < cap

    def reserve_bus_from(earliest: int) -> Optional[int]:
        for start in range(earliest, horizon):
            for bus in range(machine.num_buses):
                if all(
                    not bus_used.get((bus, start + k), False)
                    for k in range(machine.bus_latency)
                ):
                    for k in range(machine.bus_latency):
                        bus_used[(bus, start + k)] = True
                    return start
        return None

    for uid in ddg.topological_order():
        op = ddg.operation(uid)
        best: Optional[Tuple[int, int]] = None  # (cycle, cluster)
        for cluster in range(machine.num_clusters):
            ready = 0
            for dep in ddg.in_edges(uid):
                if dep.distance > 0:
                    continue
                src_cluster, src_cycle = placements[dep.src]
                avail = src_cycle + dep.latency
                if (
                    dep.kind is DepKind.DATA
                    and src_cluster != cluster
                    and machine.is_clustered
                ):
                    avail += machine.bus_latency  # transfer booked on commit
                ready = max(ready, avail)
            cycle = ready
            while cycle < horizon and not unit_free(cluster, op.op_class, cycle):
                cycle += 1
            if cycle >= horizon:
                continue
            if best is None or (cycle, cluster) < best:
                best = (cycle, cluster)
        if best is None:
            raise SchedulingError(
                f"list scheduling failed for loop {loop.name!r} "
                f"on {machine.name!r}"
            )
        cycle, cluster = best
        fu_used[(cluster, op.op_class, cycle)] = (
            fu_used.get((cluster, op.op_class, cycle), 0) + 1
        )
        # Book the bus transfers feeding this operation.
        for dep in ddg.in_edges(uid):
            if dep.distance > 0 or dep.kind is not DepKind.DATA:
                continue
            src_cluster, src_cycle = placements[dep.src]
            if src_cluster != cluster and machine.is_clustered:
                start = reserve_bus_from(src_cycle + dep.latency)
                if start is None:
                    raise SchedulingError("bus horizon exhausted in list scheduling")
        placements[uid] = (cluster, cycle)

    length = max(
        (cycle + ddg.operation(uid).latency for uid, (_c, cycle) in placements.items()),
        default=1,
    )
    # Carried dependences need the next iteration to start late enough.
    for dep in ddg.edges():
        if dep.distance == 0:
            continue
        src_cycle = placements[dep.src][1]
        dst_cycle = placements[dep.dst][1]
        needed = src_cycle + dep.latency - dst_cycle
        if needed > 0:
            import math

            length = max(length, math.ceil(needed / dep.distance))
    return ListSchedule(loop=loop, machine=machine, placements=placements, length=length)
