"""Unit tests for the scheduling engine and cluster policies."""

import pytest

from repro.ir.builder import LoopBuilder
from repro.machine.presets import two_cluster, unified
from repro.schedule.engine import (
    AllClustersPolicy,
    AssignedFirstPolicy,
    FixedClusterPolicy,
    SchedulingEngine,
)
from repro.schedule.merit import MeritVector
from repro.schedule.mii import mii
from repro.workloads.kernels import daxpy, dot_product, stencil5


def run_engine(loop, machine, ii, policy=None):
    policy = policy or AllClustersPolicy(machine.num_clusters)
    engine = SchedulingEngine(loop, machine, ii, policy)
    return engine.attempt()


class TestBasicScheduling:
    def test_daxpy_on_unified(self):
        loop = daxpy()
        machine = unified(64)
        sched = run_engine(loop, machine, mii(loop, machine))
        assert sched is not None
        sched.validate()

    def test_daxpy_on_two_clusters(self):
        loop = daxpy()
        machine = two_cluster(64)
        sched = run_engine(loop, machine, 2)
        assert sched is not None
        sched.validate()

    def test_reduction_respects_rec_mii(self):
        loop = dot_product()
        machine = unified(64)
        sched = run_engine(loop, machine, mii(loop, machine))
        assert sched is not None
        assert sched.ii == 3
        sched.validate()

    def test_all_operations_placed(self):
        loop = stencil5()
        machine = two_cluster(64)
        sched = run_engine(loop, machine, mii(loop, machine) + 1)
        assert sched is not None
        assert sorted(sched.placements) == loop.ddg.uids()

    def test_infeasible_ii_returns_none(self):
        """II=1 cannot hold stencil5's 9 FP ops on 4 FP units."""
        loop = stencil5()
        machine = unified(64)
        assert run_engine(loop, machine, 1) is None


class TestCommunications:
    def test_cross_cluster_value_gets_transport(self):
        loop = daxpy()
        machine = two_cluster(64)
        # Force a split: loads on cluster 0, compute on cluster 1.
        uids = loop.ddg.uids()
        assignment = {uid: 0 for uid in uids[:2]}
        assignment.update({uid: 1 for uid in uids[2:]})
        sched = run_engine(
            loop, machine, 3, policy=FixedClusterPolicy(assignment)
        )
        assert sched is not None
        sched.validate()
        moved = sched.stats.bus_transfers + sched.stats.mem_comms
        assert moved >= 2  # both loaded values cross

    def test_memory_comm_used_when_bus_disabled(self):
        """With a saturated bus the engine falls back to memory routes."""
        loop = daxpy()
        machine = two_cluster(64)
        uids = loop.ddg.uids()
        assignment = {uid: 0 for uid in uids[:2]}
        assignment.update({uid: 1 for uid in uids[2:]})
        # II=5 so the 3-cycle store+load path fits inside a node's window.
        engine = SchedulingEngine(loop, machine, 5, FixedClusterPolicy(assignment))
        # Saturate every bus cycle up front.
        from repro.schedule.mrt import BusSlot

        for cycle in range(5):
            engine.table.reserve_bus(BusSlot(0, cycle, 1))
        sched = engine.attempt()
        assert sched is not None
        assert sched.stats.mem_comms >= 1
        assert sched.stats.bus_transfers == 0


class TestSpilling:
    def test_spill_relieves_tiny_register_file(self):
        """A machine with very few registers forces spill code."""
        from repro.machine.config import ClusterConfig, MachineConfig

        machine = MachineConfig(
            "tiny-regs",
            clusters=(ClusterConfig(4, 4, 4, 4),),  # 4 registers only
        )
        # A chain a0..a7 whose every element is re-read by a *later* serial
        # summation chain: a1..a7 stay live across most of the iteration, so
        # MaxLives far exceeds 4 registers at any reasonable II.
        b = LoopBuilder("pressure", 50)
        x = b.load("x")
        chain = [b.op("fadd", x, name="a0")]
        for i in range(1, 8):
            chain.append(b.op("fadd", chain[-1], name=f"a{i}"))
        acc = b.op("fadd", chain[-1], chain[0], name="s0")
        for i in range(1, 7):
            acc = b.op("fadd", acc, chain[i], name=f"s{i}")
        b.store(acc)
        loop = b.build()
        policy = AllClustersPolicy(1)
        found = None
        for ii in range(4, 16):
            found = run_engine(loop, machine, ii, policy=policy)
            if found:
                break
        assert found is not None
        found.validate()
        assert found.stats.spills >= 1


class TestPolicies:
    def make_candidates(self):
        return {
            0: MeritVector((0.9,)),
            1: MeritVector((0.1,)),
        }

    def test_all_clusters_picks_merit_winner(self):
        merits = self.make_candidates()

        class FakeCandidate:
            def __init__(self, merit):
                self.merit = merit

        policy = AllClustersPolicy(2)
        chosen = policy.select(
            0, lambda c: FakeCandidate(merits[c])
        )
        assert chosen.merit == merits[1]

    def test_fixed_only_tries_assigned(self):
        tried = []

        def evaluate(cluster):
            tried.append(cluster)
            return None

        policy = FixedClusterPolicy({5: 1})
        assert policy.select(5, evaluate) is None
        assert tried == [1]

    def test_assigned_first_short_circuits(self):
        tried = []

        class FakeCandidate:
            merit = MeritVector((0.5,))

        def evaluate(cluster):
            tried.append(cluster)
            return FakeCandidate()

        policy = AssignedFirstPolicy({7: 1}, num_clusters=2)
        policy.select(7, evaluate)
        assert tried == [1]

    def test_assigned_first_falls_back(self):
        tried = []

        class FakeCandidate:
            def __init__(self, merit):
                self.merit = merit

        def evaluate(cluster):
            tried.append(cluster)
            if cluster == 1:
                return None
            return FakeCandidate(MeritVector((0.2,)))

        policy = AssignedFirstPolicy({7: 1}, num_clusters=3)
        chosen = policy.select(7, evaluate)
        assert chosen is not None
        assert tried == [1, 0, 2]
