"""Schedule results and independent validation.

:class:`ModuloSchedule` is the product of every scheduler in this library.
Besides the kernel (operation placements at absolute issue cycles, reduced
modulo II for the reservation tables) it carries the auxiliary operations
the scheduler inserted (spill stores/loads, communication stores/loads), the
bus transfers, and the value-use ledger from which register lifetimes
derive.

:meth:`ModuloSchedule.validate` re-checks the whole schedule — every
dependence (including the communication evidence for cross-cluster
values), every functional-unit and bus capacity, and the per-cluster
MaxLives register bound — raising
:class:`~repro.errors.ValidationError` on any violation.  The test suite
property-tests that every scheduler's output validates.

The check reads nothing the scheduling engine built.  The structural
passes are :func:`~repro.schedule.structural_core.check_structure`'s
sweeps over the raw placements, aux ops and value ledger; the register
bound comes from a
:class:`~repro.schedule.analysis_core.ScheduleAnalysis` rebuilt from the
ledger (:meth:`~repro.schedule.analysis_core.ScheduleAnalysis.from_values`).
That rebuild becomes the schedule's :attr:`~ModuloSchedule.analysis`
cache, which :meth:`~ModuloSchedule.register_peaks`,
:meth:`~ModuloSchedule.register_cycles` and the service codec read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ValidationError
from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .analysis_core import ScheduleAnalysis
from .structural_core import check_structure
from .values import (
    LOAD_LATENCY,
    STORE_LATENCY,
    ValueState,
)


@dataclass(frozen=True)
class Placed:
    """Placement of one loop operation."""

    cluster: int
    time: int  # absolute issue cycle (may be negative before normalization)


@dataclass(frozen=True)
class AuxOp:
    """An operation inserted by the scheduler (spill or memory comm)."""

    kind: str  # 'spill_store' | 'spill_load' | 'comm_store' | 'comm_load'
    value_producer: int
    cluster: int
    time: int

    @property
    def is_store(self) -> bool:
        return self.kind.endswith("store")


@dataclass
class ScheduleStats:
    """Counters the evaluation section reports on."""

    bus_transfers: int = 0
    mem_comms: int = 0
    spills: int = 0
    #: IIs the search tried (GP's rescue attempts are not counted).
    ii_attempts: int = 0
    #: The MII partition plus one per GP rescue attempt (a partition
    #: recomputed at a failed II); 0 for URACAM.
    partitions_computed: int = 0
    #: Candidate-feasibility cache telemetry: window slots skipped because
    #: a previous spill round proved them structurally infeasible, vs.
    #: slots actually evaluated.  Aggregated across every engine attempt
    #: of the II search (failed attempts included); purely observational —
    #: no scheduling decision reads them, so they never move a schedule.
    #: The codec stores both in every store entry and perfbench's Table 2
    #: report reads ``feas_cache_scans``, so the names are part of the
    #: stored schema.
    feas_cache_hits: int = 0
    feas_cache_scans: int = 0


@dataclass
class ModuloSchedule:
    """A complete modulo schedule of one loop on one machine."""

    loop: Loop
    machine: MachineConfig
    ii: int
    placements: Dict[int, Placed]
    values: Dict[int, ValueState]
    aux_ops: List[AuxOp] = field(default_factory=list)
    stats: ScheduleStats = field(default_factory=ScheduleStats)
    scheduler_name: str = ""

    def __post_init__(self) -> None:
        self._analysis: Optional[ScheduleAnalysis] = None

    # ------------------------------------------------------------------
    # Lifetime analysis
    # ------------------------------------------------------------------
    @property
    def analysis(self) -> ScheduleAnalysis:
        """The schedule's lifetime-analysis session (built once, cached).

        Derived from the raw value ledger, on first use or by
        :meth:`validate`, which rebuilds it.  Everything register-shaped
        — :meth:`register_peaks`, the evaluation metrics and exports —
        reads off this one session.
        """
        if self._analysis is None:
            self._analysis = ScheduleAnalysis.from_values(
                self.values, self.ii, self.machine.num_clusters
            )
        return self._analysis

    def __getstate__(self) -> Dict[str, Any]:
        # The analysis is derived state: drop it so pickled schedules
        # (worker -> parent transfers in the parallel runner) stay small;
        # the receiver rebuilds it lazily and bit-identically.
        state = dict(self.__dict__)
        state["_analysis"] = None
        return state

    # ------------------------------------------------------------------
    # Shape metrics
    # ------------------------------------------------------------------
    def span(self) -> Tuple[int, int, int]:
        """``(first issue, last loop-op issue, last result)`` of one iteration.

        One uncached pass over the placements and aux ops, latencies read
        straight off the DDG's op table; every shape metric below is a
        thin read of it.  First issue and last result include the aux
        ops, last issue counts loop operations only.  A schedule with no
        placements spans nothing: all three are its first aux issue (0
        without aux ops).  Not cached: placements and ``ii`` stay mutable.
        """
        if not self.placements:
            first = min((aux.time for aux in self.aux_ops), default=0)
            return first, first, first
        ops = self.loop.ddg.op_table
        uid, placed = next(iter(self.placements.items()))
        first = last = placed.time
        end = first + ops[uid].opcode.latency
        for uid, placed in self.placements.items():
            time = placed.time
            if time < first:
                first = time
            elif time > last:
                last = time
            result = time + ops[uid].opcode.latency
            if result > end:
                end = result
        for aux in self.aux_ops:
            time = aux.time
            if time < first:
                first = time
            result = time + (STORE_LATENCY if aux.is_store else LOAD_LATENCY)
            if result > end:
                end = result
        return first, last, end

    @property
    def min_time(self) -> int:
        """The first issue cycle, aux ops included."""
        return self.span()[0]

    @property
    def makespan(self) -> int:
        """Cycles from the first issue to the last result, one iteration."""
        first, _, end = self.span()
        return end - first

    @property
    def stage_count(self) -> int:
        """Kernel stages (the software pipeline depth)."""
        return self.shape()[1]

    def shape(self, trip_count: Optional[int] = None) -> Tuple[int, int]:
        """``(execution cycles, stage count)`` off one :meth:`span`."""
        niter = self.loop.trip_count if trip_count is None else trip_count
        first, last, end = self.span()
        return (niter - 1) * self.ii + end - first, (last - first) // self.ii + 1

    def execution_cycles(self, trip_count: Optional[int] = None) -> int:
        """Total cycles to run the loop, prolog and epilog included.

        ``(niter - 1) * II`` kernel initiations plus the span of the last
        iteration — the standard static cycle count for a software-pipelined
        loop with a high trip count.
        """
        return self.shape(trip_count)[0]

    def ipc(self, trip_count: Optional[int] = None) -> float:
        """Useful (original-loop) operations per cycle."""
        niter = self.loop.trip_count if trip_count is None else trip_count
        cycles = self.execution_cycles(niter)
        if cycles <= 0:
            return 0.0
        return niter * self.loop.num_operations / cycles

    def register_peaks(self) -> List[int]:
        """MaxLives per cluster (off the cached analysis session)."""
        return self.analysis.peaks()

    def register_cycles(self) -> List[int]:
        """Total register-cycles per cluster (off the cached analysis)."""
        return list(self.analysis.reg_cycles)

    # ------------------------------------------------------------------
    # Independent validation
    # ------------------------------------------------------------------
    def validate(self, full_recheck: bool = False) -> None:
        """Re-verify placements, dependences, resources and registers.

        Every pass works from the raw schedule: the structural sweeps of
        :func:`~repro.schedule.structural_core.check_structure`, then
        the MaxLives bound off a lifetime analysis rebuilt from the value
        ledger, which replaces the :attr:`analysis` cache.
        ``full_recheck`` is accepted and ignored: every check is already
        from scratch, and the keyword stays only for callers that still
        pass it (perfbench's suites).
        """
        check_structure(self)
        analysis = self._analysis = ScheduleAnalysis.from_values(
            self.values, self.ii, self.machine.num_clusters
        )
        peaks = analysis.peaks()
        for cluster in range(self.machine.num_clusters):
            limit = self.machine.cluster(cluster).registers
            if peaks[cluster] > limit:
                raise ValidationError(
                    f"cluster {cluster} needs {peaks[cluster]} registers, "
                    f"has {limit}"
                )
