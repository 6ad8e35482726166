"""The engine's register preview against its from-scratch reference.

``SchedulingEngine._register_effect`` previews a candidate's register
effect from the *extensions* its routes add to the touched values' cached
segments (plus the would-be new value's segments), without touching any
``ValueState``.  ``SchedulingEngine._reference_register_effect`` is the
reference: it applies every route to copies of the touched values,
re-derives each one's whole segment list with ``segments_of_value`` and
previews ``-old/+new``.  Both must return equal ``(delta, fits)`` for
every candidate:

* whole schedules of derandomized hypothesis loops run with
  ``verify=True``, which compares every preview
  in-engine (four clusters, spill-heavy shapes on a halved two-cluster
  register file, two buses of latency 2);
* one hand-built case per route shape the extension rules distinguish.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.presets import four_cluster, two_cluster
from repro.schedule.drivers import GPScheduler, UracamScheduler
from repro.schedule.engine import (
    AllClustersPolicy,
    SchedulingEngine,
    _Route,
)
from repro.schedule.mrt import BusSlot
from repro.schedule.result import AuxOp
from repro.schedule.values import LOAD_LATENCY, BusTransfer, Use, ValueState
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.kernels import daxpy


# ----------------------------------------------------------------------
# Whole schedules: every candidate compared in-engine
# ----------------------------------------------------------------------
loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=8, max_value=28),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.integers(min_value=20, max_value=300),
)

spill_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=28, max_value=44),
    mem_ratio=st.floats(min_value=0.2, max_value=0.4),
    depth_bias=st.floats(min_value=0.2, max_value=0.5),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.just(150),
)

seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_previews_match_reference_on_four_clusters(shape, seed):
    loop = generate_loop("preview-ref", shape, seed)
    UracamScheduler(four_cluster(32), verify=True).schedule(loop)


@settings(max_examples=8, deadline=None)
@given(shape=spill_shapes, seed=seeds)
def test_previews_match_reference_on_spill_heavy_loops(shape, seed):
    loop = generate_loop("preview-spill", shape, seed)
    machine = two_cluster(16)
    UracamScheduler(machine, verify=True).schedule(loop)
    GPScheduler(machine, verify=True).schedule(loop)


@settings(max_examples=8, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_previews_match_reference_on_two_latency_2_buses(shape, seed):
    loop = generate_loop("preview-lat2", shape, seed)
    machine = four_cluster(32, num_buses=2, bus_latency=2)
    UracamScheduler(machine, verify=True).schedule(loop)


# ----------------------------------------------------------------------
# Hand-built route shapes
# ----------------------------------------------------------------------
II = 4
NEW = 99  # uid of the node being placed


def _engine(*values: ValueState) -> SchedulingEngine:
    machine = four_cluster(32)
    engine = SchedulingEngine(
        daxpy(), machine, II, AllClustersPolicy(machine.num_clusters)
    )
    for value in values:
        engine.pressure.track(value)
    return engine


def _transfer(start: int, dst: int) -> BusTransfer:
    return BusTransfer(BusSlot(bus=0, start=start, length=1), dst)


def _preview(engine, cluster, birth, creates_value, routes):
    ledger = {
        key: (list(v.uses), list(v.transfers), v.store_time)
        for key, v in engine.values.items()
    }
    got = engine._register_effect(NEW, cluster, birth, creates_value, routes)
    # The preview mutates no committed value.
    assert ledger == {
        key: (list(v.uses), list(v.transfers), v.store_time)
        for key, v in engine.values.items()
    }
    expected = engine._reference_register_effect(
        NEW, cluster, birth, creates_value, routes
    )
    assert got == expected
    return got


def test_home_register_read_extends_home_death():
    value = ValueState(producer=1, home=0, birth=1)
    value.uses.append(Use(10, 0, 3))  # home segment [1, 3)
    engine = _engine(value)
    routes = [_Route(1, Use(NEW, 0, 7))]
    delta, fits = _preview(engine, 0, birth=8, creates_value=True, routes=routes)
    # [3, 7) on the home segment plus the new value's [8, 9).
    assert delta == [4 + 1, 0, 0, 0] and fits


def test_earlier_transfer_moves_a_committed_copy_birth():
    # The committed copy in cluster 1 arrives at 6 and is read at 6:
    # home [2, 6), copy [6, 7).
    value = ValueState(producer=1, home=0, birth=2)
    value.transfers.append(_transfer(5, 1))
    value.uses.append(Use(10, 1, 6))
    engine = _engine(value)
    # A read at 4 needs an earlier transfer, delivered at 4.  The copy
    # becomes [4, 6): its birth moves earlier, and its death drops from
    # the old ``delivery + 1`` floor to the last read.
    routes = [_Route(1, Use(NEW, 1, 4), new_transfer=_transfer(3, 1))]
    delta, _fits = _preview(engine, 1, birth=6, creates_value=False, routes=routes)
    assert delta == [0, 1, 0, 0]


def test_later_read_extends_a_committed_copy():
    # The committed copy in cluster 1 arrives at 6 and is read at 7:
    # home [2, 6), copy [6, 7).
    value = ValueState(producer=1, home=0, birth=2)
    value.transfers.append(_transfer(5, 1))
    value.uses.append(Use(10, 1, 7))
    engine = _engine(value)
    routes = [_Route(1, Use(NEW, 1, 10))]
    delta, fits = _preview(engine, 1, birth=11, creates_value=False, routes=routes)
    # Only the copy grows, by [7, 10).
    assert delta == [0, 3, 0, 0] and fits


def test_two_operands_share_a_copy_planned_in_the_same_candidate():
    value = ValueState(producer=1, home=0, birth=2)  # home [2, 3)
    engine = _engine(value)
    routes = [
        # The first operand plans a copy to cluster 2, delivered at 4 ...
        _Route(1, Use(NEW, 2, 5), new_transfer=_transfer(3, 2)),
        # ... and a second operand, one iteration later, reads that copy.
        _Route(1, Use(NEW, 2, 5 + II)),
    ]
    delta, fits = _preview(engine, 2, birth=6, creates_value=False, routes=routes)
    # Home grows to the delivery [3, 4); the copy is [4, 9).
    assert delta == [1, 0, 5, 0] and fits


def test_communication_through_memory_adds_a_store_on_an_existing_value():
    value = ValueState(producer=1, home=1, birth=2)
    value.uses.append(Use(10, 1, 4))  # home [2, 4)
    engine = _engine(value)
    routes = [
        _Route(
            1,
            Use(NEW, 3, 12, "mem", load_time=9),
            new_store=AuxOp("comm_store", 1, 1, 6),
            new_load=AuxOp("comm_load", 1, 3, 9),
        )
    ]
    delta, fits = _preview(engine, 3, birth=13, creates_value=False, routes=routes)
    # The home segment reaches the store, [4, 7); the loaded copy is
    # [9 + LOAD_LATENCY, 12).
    assert delta == [0, 3, 0, 12 - 9 - LOAD_LATENCY] and fits


def test_spilled_load_and_self_recurrence_on_the_new_value():
    value = ValueState(producer=1, home=0, birth=1, store_time=2, spilled=True)
    value.uses.append(Use(10, 0, 8, "mem", load_time=5))
    engine = _engine(value)
    routes = [
        _Route(
            1,
            Use(NEW, 1, 10, "mem", load_time=6),
            new_load=AuxOp("spill_load", 1, 1, 6),
        ),
        # The new value's self-recurrence read, one iteration later.
        _Route(None, Use(NEW, 1, 11 + II)),
    ]
    delta, fits = _preview(engine, 1, birth=12, creates_value=True, routes=routes)
    # The load [8, 10) plus the new value's home [12, 15).
    assert delta == [0, 2 + 3, 0, 0] and fits


@pytest.mark.parametrize("registers", [1, 2])
def test_fits_agrees_when_the_register_file_is_tight(registers):
    value = ValueState(producer=1, home=0, birth=1)
    value.uses.append(Use(10, 0, 3))
    engine = _engine(value)
    engine._registers = [registers] * 4
    routes = [_Route(1, Use(NEW, 0, 7))]
    _delta, fits = _preview(engine, 0, birth=8, creates_value=True, routes=routes)
    assert fits is (registers >= 2)
