"""Value tracking: where each register value lives and who reads it how.

A *value* is the result of a non-store operation.  During scheduling it can
exist in several places:

* the **home** register file — the cluster where its producer issued;
* **copies** in remote register files, delivered by bus transfers;
* **memory**, after a spill store or a communication-through-memory store.

Every consumer sources each operand through a :class:`Use` record: route
``"reg"`` (reads the home register or a delivered copy in its own cluster)
or ``"mem"`` (an inserted load reads the spilled/communicated value from
memory).  Register lifetimes — the input to the MaxLives register
allocator — are derived purely from these records by :func:`value_segments`,
so the scheduler and the independent validator share one source of truth.
The shared :class:`~repro.schedule.analysis_core.ScheduleAnalysis` session
caches each value's :func:`segments_of_value` list and maintains the
derived pressure rings by delta; these pure functions remain the reference
it is cross-checked against.

All times are absolute issue cycles; ``read_time`` of a consumer at issue
cycle ``t`` reading across ``distance`` iterations is ``t + II * distance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..ir.opcodes import COMM_LOAD, COMM_STORE
from .lifetimes import LiveSegment
from .mrt import BusSlot

#: Latency of the store half of a memory route (value visible afterwards).
STORE_LATENCY = COMM_STORE.latency
#: Latency of the load half of a memory route.
LOAD_LATENCY = COMM_LOAD.latency


@dataclass
class Use:
    """One consumer reading one value.

    Attributes:
        consumer: uid of the consumer operation.
        cluster: Cluster the consumer issues in.
        read_time: Absolute cycle the operand is read
            (``issue + II * distance``).
        route: ``"reg"`` or ``"mem"``.
        load_time: For ``"mem"`` routes, the issue cycle of the aux load.
    """

    consumer: int
    cluster: int
    read_time: int
    route: str = "reg"
    load_time: Optional[int] = None


@dataclass
class BusTransfer:
    """A committed bus transfer delivering a value to a remote cluster."""

    slot: BusSlot
    dst_cluster: int

    @property
    def delivered_at(self) -> int:
        return self.slot.start + self.slot.length


@dataclass
class ValueState:
    """Lifetime/location state of one value during scheduling.

    Attributes:
        producer: uid of the producing operation.
        home: Cluster of the producer.
        birth: Absolute cycle the value is written (issue + latency).
        transfers: Bus transfers already committed for this value.
        store_time: Issue cycle of the spill/communication store, if any.
        spilled: True once future reads should default to the memory route
            (the home lifetime is truncated at the store).
        uses: All consumer records.
    """

    producer: int
    home: int
    birth: int
    transfers: List[BusTransfer] = field(default_factory=list)
    store_time: Optional[int] = None
    spilled: bool = False
    uses: List[Use] = field(default_factory=list)

    # ------------------------------------------------------------------
    def copy_available(self, cluster: int) -> Optional[int]:
        """Cycle from which the value is readable in ``cluster``'s registers."""
        if cluster == self.home:
            return None if self.spilled else self.birth
        times = [
            t.delivered_at for t in self.transfers if t.dst_cluster == cluster
        ]
        return min(times) if times else None

    def memory_ready(self) -> Optional[int]:
        """Cycle from which the value is readable from memory."""
        if self.store_time is None:
            return None
        return self.store_time + STORE_LATENCY

    def reg_uses_in(self, cluster: int) -> List[Use]:
        return [u for u in self.uses if u.cluster == cluster and u.route == "reg"]

    def remove_transfer(self, transfer: BusTransfer) -> None:
        self.transfers.remove(transfer)


def segments_of_value(val: ValueState) -> List[LiveSegment]:
    """Register-occupancy segments implied by one value's state.

    * Home segment: ``[birth, death)`` where death covers every home
      register read, every outgoing transfer's completion, and the spill
      store (a stored value is read on the store's issue cycle).
    * One segment per remote copy: from delivery to the last register read
      in that cluster.
    * One short segment per memory-routed use: from the load's completion to
      the read.

    This per-value decomposition is what lets the incremental session
    (:mod:`repro.schedule.analysis_core`) maintain pressure by *delta*: a
    candidate or spill mutates a handful of values, so only their segments
    need re-deriving.
    """
    segments: List[LiveSegment] = []
    home_death = val.birth + 1
    if val.store_time is not None:
        home_death = max(home_death, val.store_time + 1)
    for transfer in val.transfers:
        home_death = max(home_death, transfer.delivered_at)
    for use in val.reg_uses_in(val.home):
        home_death = max(home_death, use.read_time)
    segments.append(LiveSegment(val.home, val.birth, home_death))

    remote_clusters = {t.dst_cluster for t in val.transfers}
    for cluster in sorted(remote_clusters):
        delivered = val.copy_available(cluster)
        if delivered is None:
            continue
        death = delivered + 1
        for use in val.reg_uses_in(cluster):
            death = max(death, use.read_time)
        segments.append(LiveSegment(cluster, delivered, death))

    for use in val.uses:
        if use.route == "mem" and use.load_time is not None:
            ready = use.load_time + LOAD_LATENCY
            segments.append(
                LiveSegment(use.cluster, ready, max(use.read_time, ready + 1))
            )
    return segments


def value_segments(values: Iterable[ValueState]) -> List[LiveSegment]:
    """Register-occupancy segments implied by the value states.

    The reference (full-recompute) accounting: concatenates
    :func:`segments_of_value` over every value.
    """
    segments: List[LiveSegment] = []
    for val in values:
        segments.extend(segments_of_value(val))
    return segments
