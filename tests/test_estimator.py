"""Unit tests for the partition execution-time estimator."""

import pytest

from repro.errors import PartitionError
from repro.ir.builder import LoopBuilder
from repro.machine.presets import two_cluster, four_cluster
from repro.partition.estimator import (
    PartitionEstimator,
    count_communications,
    cut_data_edges,
    ii_bus_bound,
)
from repro.workloads.kernels import daxpy, dot_product


def assign_all(loop, cluster):
    return {uid: cluster for uid in loop.ddg.uids()}


def split_assignment(loop, first_half_cluster=0):
    uids = loop.ddg.uids()
    half = len(uids) // 2
    return {
        uid: (first_half_cluster if i < half else 1 - first_half_cluster)
        for i, uid in enumerate(uids)
    }


class TestCommCounting:
    def test_single_cluster_has_no_comms(self):
        loop = daxpy()
        assignment = assign_all(loop, 0)
        assert count_communications(loop.ddg, assignment) == 0
        assert cut_data_edges(loop.ddg, assignment) == []

    def test_split_creates_comms(self):
        loop = daxpy()
        assignment = split_assignment(loop)
        assert count_communications(loop.ddg, assignment) >= 1

    def test_one_transfer_per_value_and_cluster(self):
        """Two consumers of one value in the same remote cluster: 1 comm."""
        b = LoopBuilder("fanout", 10)
        x = b.load("x")
        u = b.op("fadd", x)
        v = b.op("fmul", x)
        assignment = {x.uid: 0, u.uid: 1, v.uid: 1}
        assert count_communications(b.ddg, assignment) == 1

    def test_two_remote_clusters_two_transfers(self):
        b = LoopBuilder("fanout2", 10)
        x = b.load("x")
        u = b.op("fadd", x)
        v = b.op("fmul", x)
        assignment = {x.uid: 0, u.uid: 1, v.uid: 2}
        assert count_communications(b.ddg, assignment) == 2


class TestIIBus:
    def test_zero_comms(self):
        assert ii_bus_bound(0, two_cluster(64)) == 0

    def test_scales_with_latency(self):
        assert ii_bus_bound(3, two_cluster(64, bus_latency=1)) == 3
        assert ii_bus_bound(3, two_cluster(64, bus_latency=2)) == 6

    def test_divides_by_buses(self):
        assert ii_bus_bound(4, two_cluster(64, num_buses=2)) == 2

    def test_unclustered_machine(self):
        from repro.machine.presets import unified

        assert ii_bus_bound(10, unified(64)) == 0


class TestEstimate:
    def test_missing_assignment_rejected(self):
        loop = daxpy()
        estimator = PartitionEstimator(loop, two_cluster(64), ii=1)
        with pytest.raises(PartitionError):
            estimator.estimate({})

    def test_concentrating_raises_cluster_res_mii(self):
        loop = daxpy()  # 3 memory ops
        machine = two_cluster(64)  # 2 ports per cluster
        estimator = PartitionEstimator(loop, machine, ii=1)
        est = estimator.estimate(assign_all(loop, 0))
        assert est.ii_est >= 2  # 3 mem ops / 2 ports

    def test_cut_adds_bus_delay_to_path(self):
        loop = daxpy()
        machine = two_cluster(64)
        estimator = PartitionEstimator(loop, machine, ii=2)
        together = estimator.estimate(assign_all(loop, 0))
        apart = estimator.estimate(split_assignment(loop))
        assert apart.critical_path >= together.critical_path

    def test_cut_recurrence_raises_ii(self):
        loop = dot_product()
        machine = two_cluster(64)
        from repro.ir.analysis import rec_mii

        base_ii = rec_mii(loop.ddg)
        estimator = PartitionEstimator(loop, machine, ii=base_ii)
        # Split the reduction's self-recurrence producer from its consumer:
        # impossible for a self edge, so split the fmul from the fadd chain
        # is enough to show ii growth only if it cuts a cycle; at minimum
        # the estimate must stay >= the base recurrence bound.
        est = estimator.estimate(split_assignment(loop))
        assert est.ii_est >= base_ii

    def test_exec_time_dominated_by_trip_count(self):
        loop = daxpy(trip_count=10_000)
        machine = two_cluster(64)
        estimator = PartitionEstimator(loop, machine, ii=2)
        est = estimator.estimate(assign_all(loop, 0))
        assert est.exec_time >= (10_000 - 1) * est.ii_est

    def test_class_without_units_is_effectively_infeasible(self):
        from repro.machine.config import ClusterConfig, MachineConfig

        machine = MachineConfig(
            "hetero",
            clusters=(
                ClusterConfig(1, 1, 1, 16),
                ClusterConfig(1, 0, 1, 16),  # no FP units here
            ),
        )
        b = LoopBuilder("fp_only", 10)
        x = b.load()
        fp = b.op("fadd", x)
        loop = b.build()
        estimator = PartitionEstimator(loop, machine, ii=1)
        bad = estimator.estimate({x.uid: 0, fp.uid: 1})
        good = estimator.estimate({x.uid: 0, fp.uid: 0})
        assert bad.ii_est >= 10**6
        assert good.ii_est < 10**6
