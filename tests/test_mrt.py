"""Unit tests for the modulo reservation tables."""

import pytest

from repro.ir.opcodes import OpClass
from repro.machine.presets import two_cluster
from repro.schedule.mrt import BusSlot, FUSlot, Overlay, ReservationTable


@pytest.fixture
def table():
    return ReservationTable(two_cluster(64), ii=4)


def has_room(table, slot):
    """One more op of the slot's class can issue at its kernel cycle."""
    row = table.fu_occupancy_rows().get((slot.cluster, slot.op_class))
    used = row[slot.cycle % table.ii] if row else 0
    return used < table.fu_capacity(slot.cluster, slot.op_class)


class TestFunctionalUnits:
    def test_capacity_matches_machine(self, table):
        assert table.fu_capacity(0, OpClass.FP) == 2

    def test_reserve_until_full(self, table):
        slot = FUSlot(0, OpClass.FP, 3)
        assert has_room(table, slot)
        table.reserve_fu(slot)
        assert has_room(table, slot)  # one unit left
        table.reserve_fu(slot)
        assert not has_room(table, slot)

    def test_modulo_wraparound(self, table):
        table.reserve_fu(FUSlot(0, OpClass.FP, 1))
        table.reserve_fu(FUSlot(0, OpClass.FP, 5))  # same kernel cycle (1)
        assert not has_room(table, FUSlot(0, OpClass.FP, 9))

    def test_release_restores_capacity(self, table):
        slot = FUSlot(0, OpClass.MEM, 0)
        table.reserve_fu(slot)
        table.reserve_fu(slot)
        assert not has_room(table, slot)
        table.release_fu(slot)
        assert has_room(table, slot)

    def test_clusters_independent(self, table):
        table.reserve_fu(FUSlot(0, OpClass.INT, 2))
        table.reserve_fu(FUSlot(0, OpClass.INT, 2))
        assert has_room(table, FUSlot(1, OpClass.INT, 2))

    def test_usage_counters(self, table):
        table.reserve_fu(FUSlot(0, OpClass.MEM, 0))
        table.reserve_fu(FUSlot(0, OpClass.MEM, 1))
        assert table.fu_slots_used(0, OpClass.MEM) == 2
        assert table.fu_slots_total(0, OpClass.MEM) == 2 * 4


class TestBuses:
    def test_transfer_occupies_latency_cycles(self):
        machine = two_cluster(64, bus_latency=2)
        table = ReservationTable(machine, ii=4)
        slot = BusSlot(bus=0, start=1, length=2)
        assert table.bus_free(slot)
        table.reserve_bus(slot)
        # Cycles 1 and 2 are busy on bus 0.
        assert not table.bus_free(BusSlot(0, 1, 1))
        assert not table.bus_free(BusSlot(0, 2, 1))
        assert table.bus_free(BusSlot(0, 3, 1))

    def test_self_overlapping_transfer_rejected(self):
        machine = two_cluster(64, bus_latency=2)
        table = ReservationTable(machine, ii=1)
        slot = BusSlot(0, 0, 2)
        assert table.bus_cycles(slot) is None
        assert not table.bus_free(slot)

    def test_find_bus_slot_earliest(self, table):
        found = table.find_bus_slot(earliest=5, latest_start=8, length=1)
        assert found is not None and found.start == 5

    def test_find_bus_slot_skips_busy(self, table):
        table.reserve_bus(BusSlot(0, 5, 1))
        found = table.find_bus_slot(earliest=5, latest_start=8, length=1)
        assert found is not None and found.start == 6

    def test_find_bus_slot_window_empty(self, table):
        assert table.find_bus_slot(earliest=5, latest_start=4, length=1) is None

    def test_find_bus_slot_full_bus(self, table):
        for start in range(4):
            table.reserve_bus(BusSlot(0, start, 1))
        assert table.find_bus_slot(0, 100, 1) is None

    def test_two_buses(self):
        machine = two_cluster(64, num_buses=2)
        table = ReservationTable(machine, ii=2)
        table.reserve_bus(BusSlot(0, 0, 1))
        found = table.find_bus_slot(0, 0, 1)
        assert found is not None and found.bus == 1

    def test_release_bus(self, table):
        slot = BusSlot(0, 2, 1)
        table.reserve_bus(slot)
        table.release_bus(slot)
        assert table.bus_free(slot)

    def test_bus_usage_counters(self, table):
        table.reserve_bus(BusSlot(0, 0, 1))
        assert table.bus_cycles_used() == 1
        assert table.bus_cycles_total() == 4


class TestOverlay:
    def test_overlay_visible_to_checks(self, table):
        overlay = Overlay(table)
        slot = FUSlot(0, OpClass.FP, 0)
        overlay.add_fu(slot)
        overlay.add_fu(slot)
        # Staged only: the underlying table is untouched until commit.
        assert overlay.fu_slots == [slot, slot]
        assert has_room(table, slot)
        overlay.commit()
        assert not has_room(table, slot)

    def test_overlay_bus_blocks(self, table):
        overlay = Overlay(table)
        overlay.add_bus(BusSlot(0, 1, 1))
        assert not table.bus_free(BusSlot(0, 1, 1), overlay)
        assert table.bus_free(BusSlot(0, 1, 1))

    def test_commit_applies_everything(self, table):
        overlay = Overlay(table)
        fu = FUSlot(1, OpClass.MEM, 3)
        bus = BusSlot(0, 2, 1)
        overlay.add_fu(fu)
        overlay.add_bus(bus)
        overlay.commit()
        assert table.fu_slots_used(1, OpClass.MEM) == 1
        assert not table.bus_free(bus)

    def test_discarded_overlay_has_no_effect(self, table):
        overlay = Overlay(table)
        overlay.add_fu(FUSlot(0, OpClass.INT, 0))
        del overlay
        assert table.fu_slots_used(0, OpClass.INT) == 0

    def test_add_bus_rejects_self_overlapping_slot(self):
        # Regression: a self-overlapping transfer used to be silently
        # swallowed (nothing staged) yet still appended to bus_slots, so a
        # later commit() raised ValueError *mid-commit* after some
        # reservations had already landed in the table.
        machine = two_cluster(64, bus_latency=2)
        table = ReservationTable(machine, ii=1)
        overlay = Overlay(table)
        bad = BusSlot(bus=0, start=0, length=2)  # 2 cycles at II=1: overlaps
        with pytest.raises(ValueError):
            overlay.add_bus(bad)
        assert bad not in overlay.bus_slots
        overlay.commit()  # nothing staged: must not raise

    def test_invalid_ii_rejected(self):
        with pytest.raises(ValueError):
            ReservationTable(two_cluster(64), ii=0)


class TestRunningCounters:
    """The figure-of-merit counters are maintained, not recomputed."""

    def test_fu_counters_track_reserve_release(self, table):
        slots = [FUSlot(0, OpClass.MEM, c) for c in (0, 1, 1, 3)]
        for slot in slots:
            table.reserve_fu(slot)
        assert table.fu_slots_used(0, OpClass.MEM) == 4
        for slot in slots[:2]:
            table.release_fu(slot)
        assert table.fu_slots_used(0, OpClass.MEM) == 2
        for slot in slots[2:]:
            table.release_fu(slot)
        assert table.fu_slots_used(0, OpClass.MEM) == 0

    def test_bus_counter_tracks_reserve_release(self):
        machine = two_cluster(64, bus_latency=2)
        table = ReservationTable(machine, ii=6)
        slot = BusSlot(0, 1, 2)
        table.reserve_bus(slot)
        assert table.bus_cycles_used() == 2
        table.release_bus(slot)
        assert table.bus_cycles_used() == 0

    def test_fu_occupancy_rows_fold_cycles_modulo_ii(self, table):
        slot = FUSlot(1, OpClass.FP, 2)
        table.reserve_fu(slot)
        table.reserve_fu(FUSlot(1, OpClass.FP, 6))  # same kernel cycle
        assert table.fu_occupancy_rows() == {(1, OpClass.FP): [0, 0, 2, 0]}
        assert not has_room(table, slot)
        assert has_room(table, FUSlot(1, OpClass.FP, 3))
