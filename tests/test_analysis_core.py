"""Property tests for the shared lifetime-analysis core.

Two contracts are enforced here:

* ``ModuloSchedule.validate()`` — which reads the cached
  :class:`~repro.schedule.analysis_core.ScheduleAnalysis` session — must
  accept and reject *exactly* like ``validate(full_recheck=True)``, which
  rebuilds lifetimes from the raw value ledger (the seed's from-scratch
  behaviour), including on mutated/corrupted schedules; and a cached
  session that went stale against the ledger must be caught by the
  full recheck.
* The pressure-aware partition estimator must price an assignment the
  same whether the refiner hands it its delta-maintained communication
  session or not.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.machine.presets import four_cluster, two_cluster
from repro.partition.pressure import PressureAwareEstimator
from repro.schedule.analysis_core import ScheduleAnalysis
from repro.schedule.drivers import GPScheduler, UracamScheduler
from repro.schedule.mii import mii
from repro.schedule.result import ModuloSchedule, Placed
from repro.schedule.values import Use
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


def _clone(sched: ModuloSchedule) -> ModuloSchedule:
    """A structurally identical schedule with *no* cached analysis."""
    return ModuloSchedule(
        loop=sched.loop,
        machine=sched.machine,
        ii=sched.ii,
        placements=dict(sched.placements),
        values=dict(sched.values),
        aux_ops=list(sched.aux_ops),
        stats=sched.stats,
    )


def _outcome(shape, seed, scheduler_cls=GPScheduler, machine=None):
    loop = generate_loop("analysis-core", shape, seed)
    machine = machine or two_cluster(32)
    return scheduler_cls(machine).schedule(loop)


# ----------------------------------------------------------------------
# Cached validate() == from-scratch validate(full_recheck=True)
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_cached_validate_accepts_like_full_recheck(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    # The engine attached its live session; both paths must accept.
    assert sched._analysis is not None
    sched.validate()
    sched.validate(full_recheck=True)
    # A cache-less clone derives the same analysis lazily.
    clone = _clone(sched)
    clone.validate()
    assert clone.register_peaks() == sched.register_peaks()
    assert clone.register_cycles() == sched.register_cycles()


def _corrupt(rng: random.Random, sched: ModuloSchedule) -> str:
    """Apply one random structural corruption in place; returns its name."""
    choice = rng.randrange(5)
    if choice == 4:
        # Register-bound corruption: stretch one lifetime far past the
        # register file so only the MaxLives check can catch it.
        for value in sched.values.values():
            if value.uses:
                use = value.uses[0]
                value.uses[0] = Use(
                    use.consumer, use.cluster, use.read_time + 1000,
                    use.route, use.load_time,
                )
                return "stretch a lifetime"
        return "noop"
    if choice == 0:
        uid = rng.choice(sorted(sched.placements))
        placed = sched.placements[uid]
        sched.placements[uid] = Placed(placed.cluster, placed.time - rng.randrange(1, 50))
        return "shift placement early"
    if choice == 1:
        uid = rng.choice(sorted(sched.placements))
        del sched.placements[uid]
        return "drop placement"
    if choice == 2:
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


@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_cached_validate_rejects_like_full_recheck(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    rng = random.Random(seed)
    # Corrupt a cache-less clone so both paths analyze the same (broken)
    # raw ledger, then compare their verdicts.
    broken = _clone(outcome.schedule)
    what = _corrupt(rng, broken)
    if what == "noop":
        return
    cached_error = full_error = None
    try:
        _clone(broken).validate()
    except ValidationError as error:
        cached_error = error
    try:
        _clone(broken).validate(full_recheck=True)
    except ValidationError as error:
        full_error = error
    assert (cached_error is None) == (full_error is None), (
        f"divergent verdicts after {what!r}: cached={cached_error} "
        f"full={full_error}"
    )


@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_full_recheck_catches_stale_cached_analysis(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    assert sched._analysis is not None
    # Mutate the ledger *behind* the cached session: the paranoid mode
    # must notice the divergence even though no bound is exceeded.
    value = next(iter(sched.values.values()))
    value.uses.append(Use(10_000, value.home, value.birth + 200, "reg"))
    with pytest.raises(ValidationError):
        sched.validate(full_recheck=True)


def test_analysis_session_matches_reference_rebuild():
    outcome = _outcome(
        LoopShape(40, mem_ratio=0.3, depth_bias=0.35, recurrences=1,
                  trip_count=150),
        seed=11,
        scheduler_cls=UracamScheduler,
        machine=four_cluster(32),
    )
    assert outcome.is_modulo
    session = outcome.schedule.analysis
    rebuilt = session.rebuild()
    assert session.matches(rebuilt)
    session.verify()
    assert session.peaks() == rebuilt.peaks()
    assert session.reg_cycles == rebuilt.reg_cycles


def test_attach_analysis_rejects_mismatched_ii():
    outcome = _outcome(
        LoopShape(12, mem_ratio=0.3, depth_bias=0.3, trip_count=50), seed=3
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    with pytest.raises(ValueError):
        sched.attach_analysis(
            ScheduleAnalysis(sched.ii + 1, sched.machine.num_clusters)
        )


# ----------------------------------------------------------------------
# The pressure-aware estimator prices a refiner session like a full sweep
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_pressure_comm_state_estimates_agree_every_path(shape, seed):
    """estimate(comm_state=session) equals estimate() under random moves."""
    loop = generate_loop("pcomm", shape, seed)
    machine = four_cluster(32)
    estimator = PressureAwareEstimator(loop, machine, ii=mii(loop, machine))
    rng = random.Random(seed)
    uids = loop.ddg.uids()
    assignment = {uid: rng.randrange(4) for uid in uids}
    session = estimator.comm_session(assignment)

    for _ in range(5):
        moved = rng.sample(uids, k=min(len(uids), rng.randrange(1, 3)))
        target = rng.randrange(4)
        for uid in moved:
            assignment[uid] = target
        session.move_uids(moved, target)
        session.verify(assignment)
        reference = estimator.estimate(assignment)
        assert estimator.estimate(assignment, comm_state=session) == reference
