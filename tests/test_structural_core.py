"""Property tests for the structural checks.

Mirror of ``tests/test_analysis_core.py`` for the structural side.  The
contracts enforced here:

* ``validate()`` checks the raw schedule, not the engine's reservation
  table: a table that forgets reservations produces oversubscribed
  schedules, and the drivers' validation rejects them;
* the engine's ``verify=True`` cross-check holds the table's occupancy
  rows to the reference sweeps and names the quantity that diverged;
* ``validate()`` rejects injected structural corruption of FU
  reservations, bus slots, placements and dependence evidence, and gives
  the same verdict on a schedule it already validated as on a fresh
  copy;
* the candidate-feasibility cache is behaviour-preserving: schedules
  produced with the cache pruning and with pruning disabled are
  bit-identical.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.ir.opcodes import OpClass
from repro.machine.presets import four_cluster, two_cluster
from repro.schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    UracamScheduler,
)
from repro.schedule.engine import SchedulingEngine
from repro.schedule.mrt import BusSlot, ReservationTable
from repro.schedule.result import AuxOp, ModuloSchedule, Placed
from repro.schedule.values import BusTransfer
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.spec import spec_suite

loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=6, max_value=24),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.integers(min_value=20, max_value=300),
)
seeds = st.integers(min_value=0, max_value=10_000)


def _clone(sched: ModuloSchedule) -> ModuloSchedule:
    """A structurally identical schedule with no cached analysis."""
    return ModuloSchedule(
        loop=sched.loop,
        machine=sched.machine,
        ii=sched.ii,
        placements=dict(sched.placements),
        values=dict(sched.values),
        aux_ops=list(sched.aux_ops),
        stats=sched.stats,
    )


def _outcome(shape, seed, scheduler_cls=GPScheduler, machine=None, verify=False):
    loop = generate_loop("structural-core", shape, seed)
    machine = machine or two_cluster(32)
    return scheduler_cls(machine, verify=verify).schedule(loop)


# ----------------------------------------------------------------------
# A reservation table that forgets use cannot pass its own check
# ----------------------------------------------------------------------
def _forget_cluster0_fp(monkeypatch):
    """Make the reservation table drop every FP reservation on cluster 0:
    the engine then sees those units as always free."""
    reserve_fu = ReservationTable.reserve_fu

    def forgetful(table, slot):
        if slot.cluster == 0 and slot.op_class is OpClass.FP:
            return
        reserve_fu(table, slot)

    monkeypatch.setattr(ReservationTable, "reserve_fu", forgetful)


def _paper_loops(programs=3):
    return [loop for benchmark in spec_suite()[:programs]
            for loop in benchmark.loops]


def test_validate_rejects_schedules_of_a_forgetful_table(monkeypatch):
    _forget_cluster0_fp(monkeypatch)
    scheduler = UracamScheduler(four_cluster(32))
    with pytest.raises(ValidationError, match="cluster 0 fp oversubscribed"):
        for loop in _paper_loops():
            scheduler.schedule(loop)


def test_verify_names_the_diverging_quantity(monkeypatch):
    """The engine's ``verify`` cross-check catches the same table defect
    at the end of the attempt, naming the rows that diverged."""
    _forget_cluster0_fp(monkeypatch)
    scheduler = UracamScheduler(four_cluster(32), verify=True)
    with pytest.raises(AssertionError, match="FU occupancy rows diverged"):
        for loop in _paper_loops():
            scheduler.schedule(loop)


@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_engine_session_matches_reference_sweep(shape, seed):
    """Under ``verify`` the engine asserts its table's rows equal the
    sweeps; the driver then validates the raw schedule."""
    _outcome(shape, seed, verify=True)


@pytest.mark.parametrize(
    "scheduler_cls", [GPScheduler, UracamScheduler, FixedPartitionScheduler]
)
def test_engine_session_matches_on_four_cluster(scheduler_cls):
    outcome = _outcome(
        LoopShape(40, mem_ratio=0.3, depth_bias=0.35, recurrences=1,
                  trip_count=150),
        seed=11,
        scheduler_cls=scheduler_cls,
        machine=four_cluster(32),
        verify=True,
    )
    assert outcome.is_modulo


# ----------------------------------------------------------------------
# Injected structural corruption, rejected by validate()
# ----------------------------------------------------------------------
def _corrupt(rng: random.Random, sched: ModuloSchedule) -> str:
    """Apply one random structural corruption in place; returns its name."""
    choice = rng.randrange(6)
    if choice == 0:
        # FU corruption: pile aux memory ops onto one (cluster, cycle)
        # until the port count must overflow.
        cluster = rng.randrange(sched.machine.num_clusters)
        ports = sched.machine.cluster(cluster).mem_units
        for _ in range(ports + 1):
            sched.aux_ops.append(AuxOp("comm_store", -1, cluster, 0))
        return "oversubscribe memory ports"
    if choice == 1:
        # Bus corruption: duplicate an existing transfer (double-booking).
        for value in sched.values.values():
            if value.transfers:
                transfer = value.transfers[0]
                value.transfers.append(
                    BusTransfer(transfer.slot, transfer.dst_cluster)
                )
                return "double-book a bus slot"
        return "noop"
    if choice == 2:
        # Bus corruption: a transfer longer than the II self-overlaps.
        for value in sched.values.values():
            if value.transfers:
                old = value.transfers[0]
                value.transfers[0] = BusTransfer(
                    BusSlot(old.slot.bus, old.slot.start, sched.ii + 1),
                    old.dst_cluster,
                )
                return "self-overlapping transfer"
        return "noop"
    if choice == 3:
        # Dependence corruption: yank a placement far too early.
        uid = rng.choice(sorted(sched.placements))
        placed = sched.placements[uid]
        sched.placements[uid] = Placed(
            placed.cluster, placed.time - rng.randrange(1, 50)
        )
        return "shift placement early"
    if choice == 4:
        # Dependence corruption: strip the communication evidence.
        for value in sched.values.values():
            if value.transfers:
                value.transfers.clear()
                return "strip transfers"
        return "noop"
    for value in sched.values.values():
        if value.uses:
            value.uses.pop()
            return "drop a use record"
    return "noop"


@settings(max_examples=15, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_cached_rejects_corruption_like_full_recheck(shape, seed):
    """``validate()`` on a schedule the driver already validated (its
    analysis cache predates the corruption) gives the same verdict as on
    a cache-less copy, and always catches the resource corruptions."""
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    what = _corrupt(random.Random(seed), sched)
    if what == "noop":
        return
    verdicts = []
    for target in (sched, _clone(sched)):
        try:
            target.validate()
            verdicts.append(None)
        except ValidationError as error:
            verdicts.append(str(error))
    assert verdicts[0] == verdicts[1], f"divergent verdicts after {what!r}"
    # Dependence corruptions are only violations when the mutated node
    # actually had tight predecessors/evidence; the resource ones always
    # are.
    if what in (
        "oversubscribe memory ports",
        "double-book a bus slot",
        "self-overlapping transfer",
    ):
        assert verdicts[0] is not None


@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_full_recheck_catches_stale_structural_cache(shape, seed):
    """A schedule mutated after the driver validated it is re-checked
    from the raw schedule, not from what its first validation saw."""
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    cluster = random.Random(seed).randrange(sched.machine.num_clusters)
    for _ in range(sched.machine.cluster(cluster).mem_units + 1):
        sched.aux_ops.append(AuxOp("comm_store", -1, cluster, 1))
    with pytest.raises(ValidationError, match="oversubscribed"):
        sched.validate()


# ----------------------------------------------------------------------
# The placement pass over the raw placements
# ----------------------------------------------------------------------
def test_cached_placement_pass_rejects_missing_and_bogus_raw_placements():
    outcome = _outcome(
        LoopShape(14, mem_ratio=0.3, depth_bias=0.3, trip_count=60), seed=3
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    # A dropped placement: one operation short.
    broken = _clone(sched)
    del broken.placements[max(broken.placements)]
    with pytest.raises(ValidationError, match="operations are scheduled"):
        broken.validate()
    # An out-of-range cluster.
    broken = _clone(sched)
    uid = min(broken.placements)
    broken.placements[uid] = Placed(97, broken.placements[uid].time)
    with pytest.raises(ValidationError, match="bogus cluster"):
        broken.validate()
    # A uid outside the loop's dense [0, n) uid space, with the count
    # still balanced.
    broken = _clone(sched)
    placed = broken.placements.pop(max(broken.placements))
    broken.placements[sched.loop.num_operations + 1000] = placed
    with pytest.raises(ValidationError, match="outside"):
        broken.validate()
    sched.validate()


def test_corrupted_placement_summary_rejected_by_cached_pass():
    # The per-cluster verdicts of the placement pass, each raised from
    # the raw placements of a schedule the engine produced.
    outcome = _outcome(
        LoopShape(14, mem_ratio=0.3, depth_bias=0.3, trip_count=60), seed=5
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    n = sched.loop.num_operations
    # A placement on a nonexistent cluster.
    broken = _clone(sched)
    uid = max(broken.placements)
    broken.placements[uid] = Placed(42, broken.placements[uid].time)
    with pytest.raises(ValidationError, match="bogus cluster"):
        broken.validate()
    # Every uid shifted outside the loop's dense [0, n) uid space.
    broken = _clone(sched)
    broken.placements = {
        uid + 1000: placed for uid, placed in sched.placements.items()
    }
    with pytest.raises(ValidationError, match=r"outside \[0, %d\)" % n):
        broken.validate()
    # A short count: every cluster but one still fully placed.
    broken = _clone(sched)
    cluster = broken.placements[min(broken.placements)].cluster
    broken.placements = {
        uid: placed for uid, placed in sched.placements.items()
        if placed.cluster != cluster
    }
    with pytest.raises(ValidationError, match="operations are scheduled"):
        broken.validate()
    sched.validate()


# ----------------------------------------------------------------------
# Candidate-feasibility cache: behaviour-preserving by construction
# ----------------------------------------------------------------------
def _fingerprint(sched: ModuloSchedule):
    """Everything that defines a schedule, minus cache telemetry."""
    return (
        sched.ii,
        sorted(sched.placements.items()),
        sorted(
            (
                uid,
                value.home,
                value.birth,
                value.store_time,
                value.spilled,
                [(u.consumer, u.cluster, u.read_time, u.route, u.load_time)
                 for u in value.uses],
                [(t.slot.bus, t.slot.start, t.slot.length, t.dst_cluster)
                 for t in value.transfers],
            )
            for uid, value in sched.values.items()
        ),
        [(a.kind, a.value_producer, a.cluster, a.time) for a in sched.aux_ops],
        (sched.stats.bus_transfers, sched.stats.mem_comms,
         sched.stats.spills, sched.stats.ii_attempts),
    )


@settings(max_examples=12, deadline=None)
@given(
    shape=loop_shapes,
    seed=seeds,
    scheduler_cls=st.sampled_from([GPScheduler, UracamScheduler]),
    registers=st.sampled_from([16, 32]),
)
def test_feasibility_cache_is_behaviour_preserving(
    shape, seed, scheduler_cls, registers
):
    """Pruned and unpruned window scans commit identical schedules.

    Tight register files force spill rounds — exactly where the cache
    prunes — so this also exercises the invariance argument (a spill
    only adds FU reservations and never widens a dependence window).
    Emptying the engine's spill-invariant reason set disables pruning.
    """
    machine = two_cluster(registers)
    cached = _outcome(
        shape, seed, scheduler_cls=scheduler_cls, machine=machine,
        verify=True,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SchedulingEngine, "_SPILL_INVARIANT", frozenset())
        plain = _outcome(
            shape, seed, scheduler_cls=scheduler_cls, machine=machine,
        )
    assert cached.is_modulo == plain.is_modulo
    if not cached.is_modulo:
        return
    assert _fingerprint(cached.schedule) == _fingerprint(plain.schedule)
    # The unpruned engine never consults the cache.
    assert plain.schedule.stats.feas_cache_hits == 0


def test_feasibility_cache_prunes_on_spill_heavy_loops():
    """On a register-starved preset the cache actually fires."""
    total_hits = 0
    for seed in range(8):
        loop = generate_loop(
            "feas-cache",
            LoopShape(28, mem_ratio=0.3, depth_bias=0.4, recurrences=1,
                      trip_count=100),
            seed,
        )
        outcome = GPScheduler(four_cluster(16)).schedule(loop)
        if outcome.is_modulo:
            total_hits += outcome.schedule.stats.feas_cache_hits
            assert outcome.schedule.stats.feas_cache_scans > 0
    assert total_hits > 0
