"""The engine's hot-path state against its from-scratch references.

The reservation table (``repro/schedule/mrt.py``) and the lifetime-analysis
session (``repro/schedule/analysis_core.py``) keep their state in flat
lists indexed by integer arithmetic.  These tests hold that layout to the
references it must equal:

* :func:`add_segment_flat` against :func:`add_segment_to_ring`;
* random reserve/release traffic on the table against the
  ``structural_core`` reference sweeps;
* a corrupted flat ring in a schedule's analysis cache, which
  ``validate()`` replaces instead of trusting;
* whole schedules — hypothesis shapes, every Table-1 machine, a
  spill-heavy preset and an extended-tier sample — built with the engine
  cross-checking itself (``verify=True``) and then validated from
  scratch.

``tests/test_golden_schedules.py`` pins the schedules themselves.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, ValidationError
from repro.ir.opcodes import OpClass
from repro.machine.presets import four_cluster, two_cluster
from repro.schedule.analysis_core import ScheduleAnalysis, add_segment_flat
from repro.schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    UracamScheduler,
)
from repro.schedule.lifetimes import add_segment_to_ring
from repro.schedule.mrt import BusSlot, FUSlot, ReservationTable
from repro.schedule.result import ModuloSchedule, Placed
from repro.schedule.structural_core import bus_usage_rows, fu_usage_rows
from repro.schedule.values import BusTransfer
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.spec import extended_suite, spec_suite

TABLE1_MACHINES = [
    two_cluster(32),
    two_cluster(64),
    four_cluster(32),
    four_cluster(64),
]

loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=6, max_value=24),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.integers(min_value=20, max_value=300),
)
seeds = st.integers(min_value=0, max_value=10_000)

#: Spill-heavy shape: on a halved register file it forces spill rounds
#: and cross-cluster communication through the flat structures.
SPILL_SHAPE = LoopShape(
    40, mem_ratio=0.3, depth_bias=0.35, recurrences=1, trip_count=150
)


def _checked_outcome(scheduler_cls, machine, loop):
    # The engine cross-checks its pressure session and reservation table
    # against the references, and the scheduler validates from scratch.
    return scheduler_cls(machine, verify=True).schedule(loop)


# ----------------------------------------------------------------------
# Whole schedules against the references
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    shape=loop_shapes,
    seed=seeds,
    scheduler_cls=st.sampled_from([GPScheduler, UracamScheduler]),
)
def test_sessions_match_references_property(shape, seed, scheduler_cls):
    _checked_outcome(
        scheduler_cls, two_cluster(32), generate_loop("hot-path", shape, seed)
    )


@pytest.mark.parametrize("machine", TABLE1_MACHINES, ids=lambda m: m.name)
def test_table1_machines_paper_loops_full_recheck(machine):
    """Paper-suite loops on every Table 1 configuration, GP scheduler."""
    suite = spec_suite()
    for loop in suite[0].loops + suite[5].loops:
        _checked_outcome(GPScheduler, machine, loop)


def test_spill_heavy_two_cluster_full_recheck():
    spills = 0
    for seed in (0, 1, 5, 7):
        outcome = _checked_outcome(
            GPScheduler, two_cluster(16),
            generate_loop("spillheavy", SPILL_SHAPE, seed),
        )
        if outcome.is_modulo:
            spills += outcome.schedule.stats.spills
    # The halved register file actually spills on these seeds — otherwise
    # this test would silently stop covering the spill path.
    assert spills > 0


@pytest.mark.parametrize(
    "scheduler_cls", [GPScheduler, UracamScheduler, FixedPartitionScheduler]
)
def test_extended_sample_full_recheck(scheduler_cls):
    """A slice of the extended tier (bigger bodies) on 4x64."""
    for loop in extended_suite()[0].loops[:3]:
        _checked_outcome(scheduler_cls, four_cluster(64), loop)


# ----------------------------------------------------------------------
# validate() never trusts a corrupted flat ring
# ----------------------------------------------------------------------
def _engine_schedule() -> ModuloSchedule:
    outcome = GPScheduler(two_cluster(32)).schedule(
        generate_loop("recheck", SPILL_SHAPE, seed=1)
    )
    assert outcome.is_modulo
    return outcome.schedule


def test_full_recheck_catches_corrupted_flat_ring():
    # Inflate the cached ring past every register file: validate()
    # rebuilds from the ledger, so the schedule still passes and the
    # corrupted cache is replaced.
    sched = _engine_schedule()
    sched.analysis._ring[0] += 1000
    sched.validate()
    sched.analysis.verify()


# ----------------------------------------------------------------------
# Unit equivalence: flat ring arithmetic and the reservation table
# ----------------------------------------------------------------------
def test_add_segment_flat_matches_reference_ring():
    rng = random.Random(7)
    for _ in range(200):
        ii = rng.randint(1, 9)
        clusters = rng.randint(1, 3)
        flat = [0] * (clusters * ii)
        rings = [[0] * ii for _ in range(clusters)]
        for _ in range(rng.randint(1, 12)):
            cluster = rng.randrange(clusters)
            birth = rng.randint(0, 40)
            length = rng.randint(1, 3 * ii)
            sign = rng.choice((1, -1))
            add_segment_flat(flat, cluster * ii, birth, length, ii, sign)
            add_segment_to_ring(rings[cluster], birth, length, ii, sign)
        for cluster in range(clusters):
            assert flat[cluster * ii:(cluster + 1) * ii] == rings[cluster]


def _first_free_bus_slot(machine, ii, rows, earliest, latest, length):
    """The reference scan: earliest start, lowest bus, every cycle free."""
    for start in range(earliest, min(latest, earliest + ii - 1) + 1):
        for bus in range(machine.num_buses):
            cycles = {(start + k) % ii for k in range(length)}
            row = rows.get(bus, [0] * ii)
            if len(cycles) == length and not any(row[c] for c in cycles):
                return (bus, start, length)
    return None


def _ledger(ii, loop, placements, transfers):
    """The reservations as the schedule shape the reference sweeps read."""
    return SimpleNamespace(
        ii=ii, loop=loop, placements=placements, aux_ops=[],
        values={
            key: SimpleNamespace(producer=key, transfers=[transfer])
            for key, transfer in transfers.items()
        },
    )


def test_table_matches_reference_sweeps_under_random_traffic():
    """Random reserve/release traffic, checked against the sweeps of
    :mod:`repro.schedule.structural_core` over the same reservations."""
    machine = four_cluster(32)
    # One loop supplies an operation of every class to place.
    loop = spec_suite()[0].loops[0]
    by_class = {}
    for uid in loop.ddg.uids():
        by_class.setdefault(loop.ddg.operation(uid).op_class, []).append(uid)
    assert set(by_class) == set(OpClass)
    rng = random.Random(11)
    for ii in (1, 2, 3, 5):
        table = ReservationTable(machine, ii)
        placements, transfers = {}, {}
        transfer_ids = itertools.count()
        for _ in range(80):
            action = rng.random()
            if action < 0.45:
                op_class = rng.choice(list(OpClass))
                uid = rng.choice(by_class[op_class])
                slot = FUSlot(
                    rng.randrange(machine.num_clusters), op_class,
                    rng.randint(0, 3 * ii),
                )
                row = table.fu_occupancy_rows().get((slot.cluster, op_class))
                used = row[slot.cycle % ii] if row else 0
                capacity = table.fu_capacity(slot.cluster, op_class)
                if uid not in placements and used < capacity:
                    table.reserve_fu(slot)
                    placements[uid] = Placed(slot.cluster, slot.cycle)
            elif action < 0.65 and placements:
                uid = rng.choice(sorted(placements))
                placed = placements.pop(uid)
                table.release_fu(FUSlot(
                    placed.cluster, loop.ddg.operation(uid).op_class, placed.time
                ))
            elif action < 0.9:
                length = rng.randint(1, min(2, ii))
                rows, _error = bus_usage_rows(_ledger(ii, loop, {}, transfers))
                slot = table.find_bus_slot(0, 3 * ii, length)
                expected = _first_free_bus_slot(machine, ii, rows, 0, 3 * ii, length)
                assert (None if slot is None else
                        (slot.bus, slot.start, slot.length)) == expected
                if slot is not None:
                    table.reserve_bus(slot)
                    transfers[next(transfer_ids)] = BusTransfer(slot, 0)
            elif transfers:
                key = rng.choice(sorted(transfers))
                table.release_bus(transfers.pop(key).slot)

            schedule = _ledger(ii, loop, placements, transfers)
            fu_rows = fu_usage_rows(schedule)
            bus_rows, _error = bus_usage_rows(schedule)
            assert table.fu_occupancy_rows() == fu_rows
            assert table.bus_occupancy_rows() == bus_rows
            assert table.bus_cycles_used() == sum(map(sum, bus_rows.values()))
            for cluster in range(machine.num_clusters):
                for op_class in OpClass:
                    row = fu_rows.get((cluster, op_class), [0] * ii)
                    assert table.fu_slots_used(cluster, op_class) == sum(row)
                    assert table.fu_capacity(cluster, op_class) == (
                        machine.cluster(cluster).units_for_class(op_class)
                    )


def test_fu_probe_surfaces_config_error_out_of_range():
    table = ReservationTable(two_cluster(32), 4)
    for cluster in (99, -1):
        with pytest.raises(ConfigError):
            table.fu_capacity(cluster, OpClass.INT)
        assert table.fu_slots_used(cluster, OpClass.INT) == 0


def test_bus_saturation_short_circuits():
    machine = two_cluster(32)
    ii = 3
    table = ReservationTable(machine, ii)
    for cycle in range(ii):
        table.reserve_bus(BusSlot(bus=0, start=cycle, length=1))
    assert table.bus_cycles_used() == table.bus_cycles_total()
    assert table.find_bus_slot(0, 10, 1) is None
    table.release_bus(BusSlot(bus=0, start=1, length=1))
    found = table.find_bus_slot(0, 10, 1)
    assert found is not None and found.start == 1


def test_occupancy_rows_omit_all_zero_rows():
    table = ReservationTable(two_cluster(32), 4)
    assert table.fu_occupancy_rows() == {}
    assert table.bus_occupancy_rows() == {}
    table.reserve_fu(FUSlot(cluster=1, op_class=OpClass.INT, cycle=2))
    rows = table.fu_occupancy_rows()
    assert set(rows) == {(1, OpClass.INT)}
    assert rows[(1, OpClass.INT)] == [0, 0, 1, 0]


def test_pressure_tracker_counts_property_matches_reference_shape():
    tracker = ScheduleAnalysis(4, 2)
    assert tracker.counts == [[0, 0, 0, 0], [0, 0, 0, 0]]
    assert tracker.peaks() == [0, 0]
    # counts hands out copies: mutating them never reaches the ring.
    tracker.counts[0][0] += 5
    assert tracker.peaks() == [0, 0]
