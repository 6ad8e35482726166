"""Tests of the II-search driver behaviour (stepping, GP's recompute rule)."""

from itertools import islice

import pytest

from repro.ir.builder import LoopBuilder
from repro.machine.presets import four_cluster, two_cluster, unified
from repro.schedule.drivers import (
    BaseScheduler,
    GPScheduler,
    UracamScheduler,
    ii_offsets,
)
from repro.schedule.engine import SchedulingEngine
from repro.schedule.mii import mii
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.kernels import daxpy
from repro.workloads.spec import spec_suite


class _CountingScheduler(UracamScheduler):
    """Records the IIs actually attempted."""

    def __init__(self, *args, fail_below=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.tried = []
        self._fail_below = fail_below

    def _policy(self, loop, ii):
        self.tried.append(ii)
        return super()._policy(loop, ii)


class _CountingGP(GPScheduler):
    """Records the IIs GP's search tried (a rescue attempt adds none)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tried = []

    def _attempts(self, loop, ii):
        self.tried.append(ii)
        return super()._attempts(loop, ii)


def _paper_loops():
    return [loop for bench in spec_suite() for loop in bench.loops]


class TestIISearch:
    def test_schedules_at_mii_when_possible(self):
        loop = daxpy()
        machine = unified(64)
        scheduler = _CountingScheduler(machine)
        outcome = scheduler.schedule(loop)
        assert outcome.is_modulo
        assert scheduler.tried[0] == mii(loop, machine)

    def test_geometric_escalation_on_stubborn_loops(self):
        """After three consecutive failures the step doubles."""
        # A loop that cannot be modulo scheduled on this machine at all:
        # one register cannot hold the two operands of an fadd at once,
        # whatever the II and the spill code.
        from repro.machine.config import ClusterConfig, MachineConfig

        machine = MachineConfig("no-room", clusters=(ClusterConfig(1, 1, 1, 1),))
        b = LoopBuilder("stubborn", 10)
        head = b.load("h")
        chain = [b.op("fadd", head, name="a0")]
        for i in range(1, 6):
            chain.append(b.op("fadd", chain[-1], name=f"a{i}"))
        acc = b.op("fadd", chain[-1], chain[0])
        for i in range(1, 6):
            acc = b.op("fadd", acc, chain[i])
        b.store(acc)
        loop = b.build()
        scheduler = _CountingScheduler(machine, max_ii_span=30)
        outcome = scheduler.schedule(loop)
        tried = scheduler.tried
        assert not outcome.is_modulo and len(tried) >= 5
        steps = [b - a for a, b in zip(tried, tried[1:])]
        assert steps[:2] == [1, 1]
        assert steps[2] == 2

    def test_fallback_reports_list_schedule(self):
        from repro.machine.config import ClusterConfig, MachineConfig

        machine = MachineConfig("no-room", clusters=(ClusterConfig(1, 1, 1, 1),))
        b = LoopBuilder("stubborn2", 10)
        head = b.load("h")
        chain = [b.op("fadd", head)]
        for _ in range(5):
            chain.append(b.op("fadd", chain[-1]))
        acc = b.op("fadd", chain[-1], chain[0])
        for i in range(1, 6):
            acc = b.op("fadd", acc, chain[i])
        b.store(acc)
        loop = b.build()
        scheduler = UracamScheduler(machine, max_ii_span=5)
        outcome = scheduler.schedule(loop)
        assert not outcome.is_modulo
        assert outcome.ipc() > 0


def test_ii_search_escalates_strictly():
    """The search never revisits an II, and a schedule's final II and
    attempt count replay exactly the IIs its driver tried."""
    assert list(islice(ii_offsets(), 8)) == [0, 1, 2, 4, 6, 8, 12, 16]
    shape = LoopShape(
        40, mem_ratio=0.3, depth_bias=0.35, recurrences=1, trip_count=150
    )
    for counting in (_CountingScheduler, _CountingGP):
        escalated = 0
        for seed in range(3):
            scheduler = counting(four_cluster(16))
            outcome = scheduler.schedule(generate_loop("escalate", shape, seed))
            if not outcome.is_modulo:
                continue
            tried = scheduler.tried
            assert tried == sorted(set(tried))
            assert len(tried) == outcome.schedule.stats.ii_attempts
            assert tried[-1] == outcome.schedule.ii
            start = tried[-1] - list(islice(ii_offsets(), len(tried)))[-1]
            assert tried == [start + o for o in islice(ii_offsets(), len(tried))]
            escalated += len(tried) > 1
        assert escalated


class TestGPRecomputeGuard:
    def test_recomputes_are_never_adopted(self):
        """The MII partition guides the whole search; a recompute gets at
        most one attempt, at an II after the MII, and only after the MII
        partition failed there.  The per-machine totals pin that work."""
        for registers, expected in ((32, 56), (64, 48)):
            machine = four_cluster(registers)
            computed = 0
            for loop in _paper_loops():
                scheduler = GPScheduler(machine)
                outcome = scheduler.schedule(loop)
                assert outcome.is_modulo
                assert scheduler.partition.ii == mii(loop, machine)
                stats = outcome.schedule.stats
                assert stats.partitions_computed <= stats.ii_attempts
                computed += stats.partitions_computed
            assert computed == expected

    def test_two_clusters_never_recompute(self):
        machine = two_cluster(64)
        for loop in _paper_loops():
            outcome = GPScheduler(machine).schedule(loop)
            assert outcome.is_modulo
            assert outcome.schedule.stats.partitions_computed == 1

    def test_recompute_rescues_the_failed_ii(self):
        """swim_loop2 on 4x64: the MII partition needs II 7, and the
        partition recomputed at the failed II 6 schedules there."""
        machine = four_cluster(64)
        (loop,) = [loop for loop in _paper_loops() if loop.name == "swim_loop2"]
        scheduler = GPScheduler(machine)
        outcome = scheduler.schedule(loop)
        assert mii(loop, machine) == 5
        assert outcome.schedule.ii == 6
        assert outcome.schedule.stats.ii_attempts == 2
        assert outcome.schedule.stats.partitions_computed == 2

        def with_mii_partition(ii):
            policy = scheduler._policy(loop, ii)
            return SchedulingEngine(loop, machine, ii, policy).attempt()

        assert with_mii_partition(6) is None
        assert with_mii_partition(7) is not None

    def test_gp_partition_is_not_none_after_prepare(self):
        machine = two_cluster(64)
        scheduler = GPScheduler(machine)
        scheduler.schedule(daxpy())
        assert scheduler.partition is not None


class TestOutcomeAccounting:
    def test_cpu_seconds_accumulate(self):
        machine = two_cluster(64)
        scheduler = GPScheduler(machine)
        outcome = scheduler.schedule(daxpy())
        assert outcome.cpu_seconds > 0
        assert outcome.execution_cycles() > 0

    def test_ii_attempts_recorded(self):
        machine = unified(64)
        outcome = UracamScheduler(machine).schedule(daxpy())
        assert outcome.schedule.stats.ii_attempts >= 1
