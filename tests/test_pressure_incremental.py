"""Equivalence tests for the incremental accounting fast paths.

The scheduling engine and the partition refiner both keep state by delta
(the per-cluster pressure ring / register-cycle totals, and the cut-set /
transfer-pair communication state).  The pure functions they mirror stay
the reference implementation; these tests assert the two never diverge:

* whole schedules run with ``verify=True``, which makes the engine
  cross-check its :class:`ScheduleAnalysis` session against
  ``value_segments`` + ``pressure_by_cycle`` + ``register_cycles`` after
  every commit and every spill, and every candidate's register preview
  against a full re-derivation of the values it touches;
* randomized move sequences drive a :class:`CommState` session and the
  candidates priced from its score-delta entries against fresh full-sweep
  derivations;
* the session's candidate preview is checked against a fresh session
  built from the mutated ledger.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.machine.presets import four_cluster, two_cluster
from repro.partition.estimator import CommState, PartitionEstimator
from repro.schedule.drivers import GPScheduler, UracamScheduler
from repro.schedule.analysis_core import ScheduleAnalysis
from repro.schedule.lifetimes import max_live, pressure_by_cycle, register_cycles
from repro.schedule.mii import mii
from repro.schedule.values import BusTransfer, Use, ValueState, value_segments
from repro.schedule.mrt import BusSlot
from repro.workloads.generator import LoopShape, generate_loop

loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=6, max_value=24),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.integers(min_value=20, max_value=300),
)

seeds = st.integers(min_value=0, max_value=10_000)

# ----------------------------------------------------------------------
# Engine-level equivalence: the tracker is checked at every state change
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_gp_schedules_with_pressure_verification(shape, seed):
    loop = generate_loop("pressure-eq", shape, seed)
    GPScheduler(two_cluster(32), verify=True).schedule(loop)


@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_uracam_schedules_with_pressure_verification(shape, seed):
    # The tiny register file forces spills and dead-transfer releases, the
    # trickiest tracker transitions.
    loop = generate_loop("pressure-eq", shape, seed)
    UracamScheduler(four_cluster(32), verify=True).schedule(loop)


# ----------------------------------------------------------------------
# Tracker unit equivalence on synthetic value states
# ----------------------------------------------------------------------
def _random_value(rng: random.Random, producer: int, clusters: int, ii: int) -> ValueState:
    home = rng.randrange(clusters)
    birth = rng.randrange(0, 3 * ii)
    value = ValueState(producer=producer, home=home, birth=birth)
    for _ in range(rng.randrange(0, 3)):
        start = birth + rng.randrange(0, 2 * ii)
        dst = rng.randrange(clusters)
        if dst == home:
            continue
        value.transfers.append(
            BusTransfer(BusSlot(bus=0, start=start, length=1), dst)
        )
    for consumer in range(rng.randrange(0, 4)):
        if rng.random() < 0.7:
            readable = [home] + [t.dst_cluster for t in value.transfers]
            cluster = rng.choice(readable)
            value.uses.append(
                Use(1000 + consumer, cluster, birth + rng.randrange(1, 3 * ii), "reg")
            )
        else:
            load_time = birth + rng.randrange(1, 2 * ii)
            value.uses.append(
                Use(
                    1000 + consumer,
                    rng.randrange(clusters),
                    load_time + 2 + rng.randrange(0, ii),
                    "mem",
                    load_time=load_time,
                )
            )
    if rng.random() < 0.4:
        value.store_time = birth + rng.randrange(0, ii)
        if rng.random() < 0.5:
            value.spilled = True
    return value


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    ii=st.integers(min_value=1, max_value=9),
    clusters=st.integers(min_value=1, max_value=4),
)
def test_tracker_matches_reference_under_random_mutations(seed, ii, clusters):
    rng = random.Random(seed)
    tracker = ScheduleAnalysis(ii, clusters)
    values = {}
    for producer in range(rng.randrange(1, 8)):
        value = _random_value(rng, producer, clusters, ii)
        values[producer] = value
        tracker.track(value)
    tracker.verify(values.values())

    for _ in range(rng.randrange(1, 6)):
        producer = rng.choice(list(values))
        value = values[producer]
        mutation = rng.random()
        if mutation < 0.4:
            value.uses.append(
                Use(2000, rng.randrange(clusters), value.birth + rng.randrange(1, 2 * ii), "reg")
            )
        elif mutation < 0.7 and value.store_time is None:
            value.store_time = value.birth + rng.randrange(0, ii)
        elif value.transfers:
            value.remove_transfer(rng.choice(value.transfers))
        tracker.update(value)
        tracker.verify(values.values())

    segments = value_segments(values.values())
    assert tracker.reg_cycles == register_cycles(segments, clusters)
    assert tracker.counts == pressure_by_cycle(segments, ii, clusters)
    assert tracker.peaks() == max_live(segments, ii, clusters)


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    ii=st.integers(min_value=1, max_value=7),
    clusters=st.integers(min_value=1, max_value=3),
)
def test_preview_effect_equals_mutate_and_rollback(seed, ii, clusters):
    rng = random.Random(seed)
    tracker = ScheduleAnalysis(ii, clusters)
    values = [
        _random_value(rng, producer, clusters, ii) for producer in range(4)
    ]
    for value in values:
        tracker.track(value)
    registers = [rng.randrange(1, 8) for _ in range(clusters)]
    peaks = tracker.peaks()

    victim = rng.choice(values)
    before_counts = [row[:] for row in tracker.counts]
    before_cycles = list(tracker.reg_cycles)
    old_segments = list(tracker.segments_of(victim.producer))
    victim.uses.append(
        Use(3000, rng.randrange(clusters), victim.birth + rng.randrange(1, 2 * ii), "reg")
    )
    new_value = _random_value(rng, 99, clusters, ii)
    changes = [
        (old_segments, -1),
        (value_segments([victim]), +1),
        (value_segments([new_value]), +1),
    ]
    delta, fits = tracker.preview_effect(changes, registers, peaks)
    # The preview must not have mutated anything.
    assert tracker.counts == before_counts
    assert tracker.reg_cycles == before_cycles

    # Reference: a fresh session of the mutated ledger.
    ledger = {value.producer: value for value in values + [new_value]}
    fresh = ScheduleAnalysis.from_values(ledger, ii, clusters)
    assert [
        fresh.reg_cycles[c] - before_cycles[c] for c in range(clusters)
    ] == delta
    assert fresh.fits(registers) == fits


# ----------------------------------------------------------------------
# Communication-state equivalence (partition refinement fast path)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(shape=loop_shapes, seed=seeds, clusters=st.sampled_from([2, 4]))
def test_comm_state_matches_full_sweep_under_random_moves(shape, seed, clusters):
    loop = generate_loop("comm-eq", shape, seed)
    machine = two_cluster(64) if clusters == 2 else four_cluster(64)
    estimator = PartitionEstimator(loop, machine, ii=mii(loop, machine))
    rng = random.Random(seed)
    uids = loop.ddg.uids()
    assignment = {uid: rng.randrange(clusters) for uid in uids}
    state = CommState(estimator, assignment)
    state.verify(assignment)

    for _ in range(8):
        moved = rng.sample(uids, k=min(len(uids), rng.randrange(1, 4)))
        target = rng.randrange(clusters)

        # Price the entry first: it must predict exactly what the move
        # produces.  No score is below an infinite incumbent, so nothing
        # is pruned.
        entry = state.preview_delta(
            [(state.index_set(moved), state.records_for(moved), target)]
        )
        bounded = estimator.may_beat(
            (math.inf, 0, 0), state, entry,
            _counts(loop, assignment, moved, target, machine),
        )
        preview, _times = estimator.estimate_preview(state, entry, bounded)

        for uid in moved:
            assignment[uid] = target
        state.move_uids(moved, target)
        state.verify(assignment)

        reference = estimator.estimate(assignment)
        assert preview == reference
        with_state = estimator.estimate(assignment, comm_state=state)
        assert with_state == reference


def _counts(loop, assignment, moved, target, machine):
    """Cluster/class counts as they stand *after* the move."""
    from repro.partition.estimator import _CLASS_INDEX

    after = dict(assignment)
    for uid in moved:
        after[uid] = target
    counts = [[0] * len(_CLASS_INDEX) for _ in range(machine.num_clusters)]
    for uid in loop.ddg.uids():
        counts[after[uid]][_CLASS_INDEX[loop.ddg.operation(uid).op_class]] += 1
    return counts
