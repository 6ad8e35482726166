"""Property tests for the shared lifetime-analysis core.

Two contracts are enforced here:

* ``ModuloSchedule.validate()`` rebuilds the register picture from the
  raw value ledger every time: it gives the same verdict on a schedule
  whose analysis cache predates a corruption as on a cache-less copy,
  and a stale cache never hides a register violation.
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
# validate() rebuilds the register picture from the raw ledger
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_cached_validate_accepts_like_full_recheck(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    # The driver's validation left its rebuild as the analysis cache.
    assert sched._analysis is not None
    sched.analysis.verify()
    sched.validate()
    # ``full_recheck`` is accepted and ignored.
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
    """``validate()`` on a schedule the driver already validated (its
    analysis cache predates the corruption) gives the same verdict as on
    a cache-less copy of the corrupted ledger."""
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


@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_full_recheck_catches_stale_cached_analysis(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    assert sched._analysis is not None
    # Stretch one lifetime *behind* the cached analysis, far past any
    # register file: the cache still fits, the ledger does not.
    value = next(iter(sched.values.values()))
    value.uses.append(Use(10_000, value.home, value.birth + 100_000, "reg"))
    assert sched.analysis.fits(
        [sched.machine.cluster(c).registers
         for c in range(sched.machine.num_clusters)]
    )
    with pytest.raises(ValidationError, match="registers"):
        sched.validate()


def test_analysis_session_matches_reference_rebuild():
    outcome = _outcome(
        LoopShape(40, mem_ratio=0.3, depth_bias=0.35, recurrences=1,
                  trip_count=150),
        seed=11,
        scheduler_cls=UracamScheduler,
        machine=four_cluster(32),
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    session = sched.analysis
    session.verify()
    rebuilt = _clone(sched).analysis
    assert session.counts == rebuilt.counts
    assert session.peaks() == rebuilt.peaks()
    assert session.reg_cycles == rebuilt.reg_cycles


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
