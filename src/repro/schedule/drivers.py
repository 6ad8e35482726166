"""The three scheduling algorithms compared in the paper.

All three share the :class:`~repro.schedule.engine.SchedulingEngine` and
differ only in cluster assignment and in how they react when a scheduling
attempt fails at an initiation interval (Figure 1 of the paper):

* :class:`UracamScheduler` — the baseline (Codina et al., PACT'01): no
  pre-partition; every operation tries every cluster and the figure of
  merit picks the winner.  On failure the II is bumped and the attempt
  restarts.
* :class:`FixedPartitionScheduler` — GP variant (a): the multilevel
  partition is computed once (at MII) and the scheduler must follow it
  exactly; any failure bumps the II, keeping the partition.
* :class:`GPScheduler` — GP variant (b), the paper's scheme: the scheduler
  follows the partition but may fall back to other clusters per node.  A
  partition for the current II can only help while the partition's bus
  bound exceeds that II (``IIbus > II``, §3.1).  The paper recomputes
  eagerly and adopts the result whenever the II is bumped; GP here keeps
  the MII partition for the whole search and recomputes on demand (see
  :class:`GPScheduler` for the rule and the measurement behind it).

Every driver measures its own scheduling CPU time (Table 2) and falls back
to list scheduling when the II search space is exhausted (as the paper does
for loops where modulo scheduling becomes inappropriate).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ..ir.loop import Loop
from ..machine.config import MachineConfig
from ..partition.partitioner import MultilevelPartitioner, Partition, trivial_partition
from .engine import (
    AllClustersPolicy,
    AssignedFirstPolicy,
    ClusterPolicy,
    FixedClusterPolicy,
    SchedulingEngine,
)
from .listsched import ListSchedule, list_schedule
from .mii import mii
from .result import ModuloSchedule

#: What a driver produces: a modulo schedule or the list-scheduling fallback.
AnySchedule = Union[ModuloSchedule, ListSchedule]


@dataclass
class ScheduleOutcome:
    """A scheduled loop plus scheduling-cost metadata."""

    loop: Loop
    machine: MachineConfig
    schedule: AnySchedule
    cpu_seconds: float
    scheduler_name: str

    @property
    def is_modulo(self) -> bool:
        return isinstance(self.schedule, ModuloSchedule)

    def ipc(self) -> float:
        return self.schedule.ipc()

    def execution_cycles(self) -> int:
        return self.schedule.execution_cycles()


def ii_offsets() -> Iterator[int]:
    """Offsets from the MII of the IIs the II search tries, in order.

    The step doubles after every three consecutive failures
    (1,1,2,2,2,4,...), keeping pathological register-bound loops from
    costing dozens of near-identical attempts.  (Deviation from the
    paper's implicit II+1 search; affects all three algorithms equally.)
    A schedule's final II and attempt count therefore determine every
    II its search tried.
    """
    offset, step, failures = 0, 1, 0
    while True:
        yield offset
        failures += 1
        if failures % 3 == 0:
            step *= 2
        offset += step


class BaseScheduler:
    """Common II-search loop shared by the three algorithms."""

    name = "base"
    #: Partitions computed for the loop being scheduled (the
    #: partition-guided drivers count theirs).
    _partitions_computed = 0

    def __init__(
        self,
        machine: MachineConfig,
        max_ii_span: int = 48,
        verify: bool = False,
    ) -> None:
        self.machine = machine
        self.max_ii_span = max_ii_span
        #: The paranoid switch: the engine's reference cross-checks.
        #: Every modulo schedule is validated from scratch either way.
        self.verify = verify

    # -- per-algorithm hooks ----------------------------------------------
    def _prepare(self, loop: Loop, start_ii: int) -> None:
        """Called once before the II search starts."""

    def _policy(self, loop: Loop, ii: int) -> ClusterPolicy:
        raise NotImplementedError

    def _attempts(self, loop: Loop, ii: int) -> Iterator[ClusterPolicy]:
        """The policies of the engine attempts to make at ``ii``, in order.

        The driver stops at the first attempt that schedules, so work
        after a ``yield`` only runs when the attempts before it failed.
        """
        yield self._policy(loop, ii)

    # -- driver -------------------------------------------------------------
    def schedule(self, loop: Loop) -> ScheduleOutcome:
        """Schedule ``loop``; never fails (falls back to list scheduling)."""
        started = _time.process_time()
        start_ii = mii(loop, self.machine)
        self._prepare(loop, start_ii)
        attempts = 0
        schedule: AnySchedule
        found: Optional[ModuloSchedule] = None
        offsets = ii_offsets()
        ii = start_ii + next(offsets)
        feas_hits = feas_scans = 0
        while ii <= start_ii + self.max_ii_span:
            attempts += 1
            for policy in self._attempts(loop, ii):
                engine = SchedulingEngine(loop, self.machine, ii, policy, self.verify)
                found = engine.attempt()
                # Candidate-feasibility cache telemetry survives failed
                # attempts (where most of the spill-round rescanning happens).
                feas_hits += engine.stats.feas_cache_hits
                feas_scans += engine.stats.feas_cache_scans
                if found is not None:
                    break
            if found is not None:
                break
            ii = start_ii + next(offsets)
        if found is not None:
            found.scheduler_name = self.name
            found.stats.ii_attempts = attempts
            found.stats.partitions_computed = self._partitions_computed
            found.stats.feas_cache_hits = feas_hits
            found.stats.feas_cache_scans = feas_scans
            # Every returned schedule passes the validator, which checks
            # the raw placements and value ledger, not the engine's state.
            found.validate()
            schedule = found
        else:
            schedule = list_schedule(loop, self.machine)
        elapsed = _time.process_time() - started
        return ScheduleOutcome(
            loop=loop,
            machine=self.machine,
            schedule=schedule,
            cpu_seconds=elapsed,
            scheduler_name=self.name,
        )


class UracamScheduler(BaseScheduler):
    """The URACAM baseline: unified assign-and-schedule, no global view."""

    name = "uracam"

    def _policy(self, loop: Loop, ii: int) -> ClusterPolicy:
        return AllClustersPolicy(self.machine.num_clusters)


class UnifiedScheduler(UracamScheduler):
    """The unified (1-cluster) upper-bound configuration's scheduler.

    Identical machinery (§3.3 heuristics handle register pressure); with a
    single cluster the policy degenerates to "the one cluster".
    """

    name = "unified"


class FixedPartitionScheduler(BaseScheduler):
    """GP variant (a): schedule must follow the partition exactly."""

    name = "fixed-partition"

    def __init__(
        self,
        machine: MachineConfig,
        max_ii_span: int = 48,
        verify: bool = False,
        partitioner: Optional[MultilevelPartitioner] = None,
    ) -> None:
        super().__init__(machine, max_ii_span, verify)
        self.partitioner = partitioner or MultilevelPartitioner(machine)
        self.partition: Optional[Partition] = None

    def _prepare(self, loop: Loop, start_ii: int) -> None:
        self._partitions_computed = 0
        self.partition = self._compute_partition(loop, start_ii)

    def _compute_partition(self, loop: Loop, ii: int) -> Partition:
        self._partitions_computed += 1
        if not self.machine.is_clustered:
            return trivial_partition(loop, ii)
        return self.partitioner.partition(loop, ii)

    def _policy(self, loop: Loop, ii: int) -> ClusterPolicy:
        assert self.partition is not None
        return FixedClusterPolicy(self.partition.assignment)


class GPScheduler(FixedPartitionScheduler):
    """The paper's GP scheme: partition-guided with on-demand recompute.

    The MII partition guides every II of the search.  Only when it fails
    at an II that its bus bound exceeds (``IIbus > II``) does GP compute a
    partition for that II, and that partition gets one attempt at the
    same II: it ends the search if it schedules and is dropped otherwise.
    (Deviation from §3.1, which recomputes as soon as the II is bumped and
    adopts the result for the rest of the search.)

    Measured on the paper suite, GP's Figure-2 average IPC on 4x32 / 4x64
    / 4x32 lat2 / 4x64 lat2 with ``partition()`` calls for its 40 loops:
    the eager, always-adopted rule of §3.1 gave 5.245 (76) / 5.815 (70);
    eager recompute adopted only when the estimator priced it better, with
    at most two rejections in a row, gave 5.386 (76) / 5.863 (68) / 4.402
    (136) / 4.717 (122); never recomputing gave 5.654 / 5.843 / 4.536 /
    4.611 (40 each); this rule gives 5.695 (56) / 5.883 (48) / 4.673 (95)
    / 4.780 (91).  Adopted recomputes raised the final II of several loops
    (fpppp, turb3d, wave5, swim), and the estimator's price did not predict
    which recomputes the engine could use.  On the paper suite the
    2-cluster machines never need a recompute.
    """

    name = "gp"

    def _policy(self, loop: Loop, ii: int) -> ClusterPolicy:
        assert self.partition is not None
        return AssignedFirstPolicy(
            self.partition.assignment, self.machine.num_clusters
        )

    def _attempts(self, loop: Loop, ii: int) -> Iterator[ClusterPolicy]:
        yield from super()._attempts(loop, ii)
        partition = self.partition
        assert partition is not None
        if (
            self.machine.is_clustered
            and partition.ii != ii
            and partition.ii_bus > ii
        ):
            rescue = self._compute_partition(loop, ii)
            yield AssignedFirstPolicy(rescue.assignment, self.machine.num_clusters)


#: Name -> scheduler class, for the evaluation harness and the CLI examples.
SCHEDULERS = {
    cls.name: cls
    for cls in (UnifiedScheduler, UracamScheduler, FixedPartitionScheduler, GPScheduler)
}
