"""Unit tests for schedule results and the independent validator."""

import pytest

from repro.errors import ValidationError
from repro.eval.metrics import outcome_shape
from repro.machine.presets import four_cluster, two_cluster, unified
from repro.schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    ScheduleOutcome,
    UnifiedScheduler,
    UracamScheduler,
)
from repro.schedule.listsched import list_schedule
from repro.schedule.result import AuxOp, ModuloSchedule, Placed
from repro.schedule.values import LOAD_LATENCY, STORE_LATENCY, Use, ValueState
from repro.workloads.kernels import daxpy, dot_product
from repro.workloads.spec import spec_suite


def scheduled_daxpy():
    outcome = UnifiedScheduler(unified(64)).schedule(daxpy())
    assert outcome.is_modulo
    return outcome.schedule


class TestShapeMetrics:
    def test_stage_count_positive(self):
        sched = scheduled_daxpy()
        assert sched.stage_count >= 1

    def test_makespan_at_least_critical_path(self):
        sched = scheduled_daxpy()
        assert sched.makespan >= 2 + 3 + 3 + 1  # daxpy chain

    def test_execution_cycles_formula(self):
        sched = scheduled_daxpy()
        niter = sched.loop.trip_count
        assert sched.execution_cycles() == (niter - 1) * sched.ii + sched.makespan

    def test_ipc_monotone_in_trip_count(self):
        sched = scheduled_daxpy()
        assert sched.ipc(10_000) > sched.ipc(10)

    def test_ipc_bounded_by_issue_width(self):
        sched = scheduled_daxpy()
        assert sched.ipc() <= sched.machine.issue_width

    def test_register_peaks_shape(self):
        sched = scheduled_daxpy()
        peaks = sched.register_peaks()
        assert len(peaks) == sched.machine.num_clusters


# ----------------------------------------------------------------------
# From-scratch reference for the shape metrics: the three separate
# derivations ModuloSchedule used before ``span()`` replaced them.
# ----------------------------------------------------------------------
def reference_min_time(sched):
    times = [p.time for p in sched.placements.values()]
    times += [a.time for a in sched.aux_ops]
    return min(times) if times else 0


def reference_makespan(sched):
    if not sched.placements:
        return 0
    lo = reference_min_time(sched)
    hi = max(
        p.time + sched.loop.ddg.operation(uid).latency
        for uid, p in sched.placements.items()
    )
    for aux in sched.aux_ops:
        lat = STORE_LATENCY if aux.is_store else LOAD_LATENCY
        hi = max(hi, aux.time + lat)
    return hi - lo


def reference_stage_count(sched):
    if not sched.placements:
        return 1
    lo = reference_min_time(sched)
    return max((p.time - lo) // sched.ii for p in sched.placements.values()) + 1


def assert_shape_matches_reference(sched):
    niter = sched.loop.trip_count
    cycles = (niter - 1) * sched.ii + reference_makespan(sched)
    assert sched.min_time == reference_min_time(sched)
    assert sched.makespan == reference_makespan(sched)
    assert sched.stage_count == reference_stage_count(sched)
    assert sched.execution_cycles() == cycles
    assert sched.shape() == (cycles, reference_stage_count(sched))
    if cycles > 0:
        assert sched.ipc() == niter * sched.loop.num_operations / cycles


@pytest.fixture(scope="module")
def suite_outcomes():
    machines = {"2x32": two_cluster(32), "4x32": four_cluster(32)}
    outcomes = []
    for cls in (UracamScheduler, FixedPartitionScheduler, GPScheduler):
        for machine in machines.values():
            scheduler = cls(machine)
            for benchmark in spec_suite():
                outcomes += [scheduler.schedule(loop) for loop in benchmark.loops]
    return outcomes


class TestSpanMatchesReference:
    def test_paper_suite_schedules(self, suite_outcomes):
        with_aux = 0
        for outcome in suite_outcomes:
            if not outcome.is_modulo:
                continue
            sched = outcome.schedule
            with_aux += bool(sched.aux_ops)
            assert_shape_matches_reference(sched)
            cycles = sched.execution_cycles()
            assert outcome_shape(outcome) == (
                cycles,
                outcome.ipc(),
                reference_stage_count(sched),
            )
        assert with_aux > 0

    def test_list_outcome(self):
        loop, machine = daxpy(), two_cluster(32)
        outcome = ScheduleOutcome(
            loop, machine, list_schedule(loop, machine), 0.0, "list"
        )
        assert outcome_shape(outcome) == (
            outcome.execution_cycles(), outcome.ipc(), 0
        )

    def handmade(self, placements, aux_ops, ii=2):
        sched = scheduled_daxpy()
        return ModuloSchedule(
            loop=sched.loop,
            machine=sched.machine,
            ii=ii,
            placements=placements,
            values={},
            aux_ops=aux_ops,
        )

    def test_aux_op_issues_first(self):
        placements = {uid: Placed(0, 3 + uid) for uid in daxpy().ddg.uids()}
        sched = self.handmade(placements, [AuxOp("spill_load", 0, 0, 1)])
        assert sched.min_time == 1
        assert_shape_matches_reference(sched)

    def test_aux_op_finishes_last(self):
        placements = {uid: Placed(0, uid) for uid in daxpy().ddg.uids()}
        late = max(placements) + 20
        sched = self.handmade(placements, [AuxOp("comm_store", 0, 0, late)])
        assert sched.span()[2] == late + STORE_LATENCY
        assert_shape_matches_reference(sched)

    def test_negative_times(self):
        placements = {uid: Placed(0, -7 + 2 * uid) for uid in daxpy().ddg.uids()}
        aux = [AuxOp("spill_store", 0, 0, -9), AuxOp("comm_load", 0, 0, -4)]
        sched = self.handmade(placements, aux, ii=3)
        assert sched.min_time == -9
        assert_shape_matches_reference(sched)

    def test_no_placements(self):
        empty = self.handmade({}, [])
        assert empty.span() == (0, 0, 0)
        assert_shape_matches_reference(empty)
        aux_only = self.handmade({}, [AuxOp("spill_load", 0, 0, 5)])
        assert aux_only.span() == (5, 5, 5)
        assert_shape_matches_reference(aux_only)


class TestValidatorCatchesCorruption:
    def test_valid_schedule_passes(self):
        scheduled_daxpy().validate()

    def test_missing_operation_detected(self):
        sched = scheduled_daxpy()
        broken = dict(sched.placements)
        first = sorted(broken)[0]
        del broken[first]
        corrupt = ModuloSchedule(
            loop=sched.loop,
            machine=sched.machine,
            ii=sched.ii,
            placements=broken,
            values=sched.values,
            aux_ops=sched.aux_ops,
        )
        with pytest.raises(ValidationError):
            corrupt.validate()

    def test_dependence_violation_detected(self):
        sched = scheduled_daxpy()
        broken = dict(sched.placements)
        # Move the store to cycle 0 — before its operand is ready.
        store_uid = max(broken)
        broken[store_uid] = Placed(broken[store_uid].cluster, -100)
        corrupt = ModuloSchedule(
            loop=sched.loop,
            machine=sched.machine,
            ii=sched.ii,
            placements=broken,
            values=sched.values,
            aux_ops=sched.aux_ops,
        )
        with pytest.raises(ValidationError):
            corrupt.validate()

    def test_fu_oversubscription_detected(self):
        sched = scheduled_daxpy()
        # Pile every operation onto the same cycle.
        broken = {
            uid: Placed(p.cluster, 0) for uid, p in sched.placements.items()
        }
        corrupt = ModuloSchedule(
            loop=sched.loop,
            machine=sched.machine,
            ii=1,
            placements=broken,
            values=sched.values,
            aux_ops=[],
        )
        with pytest.raises(ValidationError):
            corrupt.validate()

    def test_cross_cluster_without_evidence_detected(self):
        outcome = GPScheduler(two_cluster(64)).schedule(daxpy())
        assert outcome.is_modulo
        sched = outcome.schedule
        # Strip all transfers and force a consumer to another cluster.
        for value in sched.values.values():
            value.transfers.clear()
        moved = False
        for uid, placed in sched.placements.items():
            deps = sched.loop.ddg.in_edges(uid)
            if any(d.carries_value for d in deps):
                sched.placements[uid] = Placed(
                    1 - placed.cluster, placed.time
                )
                moved = True
                break
        assert moved
        # The validator checks the raw schedule, so both a fresh copy and
        # the original (validated before the mutation) must reject.
        corrupt = ModuloSchedule(
            loop=sched.loop,
            machine=sched.machine,
            ii=sched.ii,
            placements=sched.placements,
            values=sched.values,
            aux_ops=sched.aux_ops,
        )
        with pytest.raises(ValidationError):
            corrupt.validate()
        with pytest.raises(ValidationError):
            sched.validate()

    def test_register_overflow_detected(self):
        sched = scheduled_daxpy()
        # Claim the machine only has one register per cluster.
        from repro.machine.config import ClusterConfig, MachineConfig

        tiny = MachineConfig(
            "tiny", clusters=(ClusterConfig(4, 4, 4, 1),)
        )
        corrupt = ModuloSchedule(
            loop=sched.loop,
            machine=tiny,
            ii=sched.ii,
            placements=sched.placements,
            values=sched.values,
            aux_ops=sched.aux_ops,
        )
        with pytest.raises(ValidationError):
            corrupt.validate()

    def test_missing_use_record_detected(self):
        outcome = GPScheduler(two_cluster(64)).schedule(dot_product())
        assert outcome.is_modulo
        sched = outcome.schedule
        for value in sched.values.values():
            if value.uses:
                value.uses.clear()
        # Either a use lookup or a dependence check must now fail for any
        # cross-cluster edge; same-cluster edges don't need use records, so
        # only assert when the schedule actually communicated.
        crossings = any(
            sched.placements[d.src].cluster != sched.placements[d.dst].cluster
            for d in sched.loop.ddg.edges()
            if d.carries_value
        )
        if crossings:
            with pytest.raises(ValidationError):
                sched.validate()
