"""The refiner's bound prunes are exact.

The refiner rejects most candidate moves without pricing them fully:

* from the would-be transfer count alone
  (:meth:`CommState.preview_ncomm` against
  :meth:`PartitionEstimator.max_ncomm`);
* on the full ``(exec_time, -cut_slack, cut_edges)`` incumbent, with the
  uncut path or the live assignment's critical path
  (:meth:`CommState.critical_at`) as the path floor — from a score-delta
  entry (:meth:`PartitionEstimator.may_beat`).

A survivor is priced from its entry over the live state
(:meth:`PartitionEstimator.estimate_preview`).  Each piece is checked here
against its from-scratch reference — a fresh :meth:`comm_session` of the
moved assignment, ``_longest_path`` and plain Bellman-Ford sweeps (forward
start times, backward tails, incremental start times),
``estimate(assignment)`` — and the partitions must equal those of the
apply/undo path, which prunes on the plain exec-time bound only.  The
loops are the paper suite plus three large (>= 150 operation)
extended-tier bodies; every draw is seeded.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.machine.presets import four_cluster
from repro.partition.estimator import (
    _CLASS_INDEX,
    PartitionEstimator,
    ii_bus_bound,
)
from repro.partition.partitioner import MultilevelPartitioner
from repro.partition.pressure import PressureAwareEstimator
from repro.schedule.mii import mii
from repro.workloads.spec import make_extended_benchmark, spec_suite

PAPER_LOOPS = [loop for bench in spec_suite() for loop in bench.loops]
LARGE = {"applu": "applu_ext20", "hydro2d": "hydro2d_ext6", "fpppp": "fpppp_ext7"}
LARGE_LOOPS = [
    loop
    for program, name in LARGE.items()
    for loop in make_extended_benchmark(program).loops
    if loop.name == name
]
LOOPS = PAPER_LOOPS[::4] + LARGE_LOOPS
ESTIMATORS = (PartitionEstimator, PressureAwareEstimator)


def _ids(loops):
    return [loop.name for loop in loops]


def _setup(loop, estimator_cls=PartitionEstimator, clusters_registers=32):
    """Estimator at MII plus the partitioner's own (realistic) assignment."""
    machine = four_cluster(clusters_registers)
    ii = mii(loop, machine)
    partitioner = MultilevelPartitioner(
        machine, pressure_aware=estimator_cls is PressureAwareEstimator
    )
    assignment = dict(partitioner.partition(loop, ii).assignment)
    return estimator_cls(loop, machine, ii), assignment


def _random_moves(rng, uids, clusters, swap):
    """One or two disjoint uid groups with target clusters."""
    picked = rng.sample(uids, k=min(len(uids), rng.randrange(2, 9)))
    if not swap or len(picked) < 2:
        return [(picked, rng.randrange(clusters))]
    cut = len(picked) // 2
    return [
        (picked[:cut], rng.randrange(clusters)),
        (picked[cut:], rng.randrange(clusters)),
    ]


def _after(assignment, moves):
    after = dict(assignment)
    for uids, target in moves:
        for uid in uids:
            after[uid] = target
    return after


def _class_counts(loop, assignment, clusters):
    counts = [[0] * len(_CLASS_INDEX) for _ in range(clusters)]
    for uid in loop.ddg.uids():
        counts[assignment[uid]][_CLASS_INDEX[loop.ddg.operation(uid).op_class]] += 1
    return counts


def _score(est):
    return (est.exec_time, -est.cut_slack, est.cut_edges)


# ----------------------------------------------------------------------
# Transfer-count bound
# ----------------------------------------------------------------------
def _walked(comm, moves):
    """The score-delta walk's group moves of ``moves`` ((uids, target)
    pairs)."""
    return [
        (comm.index_set(group), comm.records_for(group), target)
        for group, target in moves
    ]


def _entry_of(comm, moves):
    """The score-delta entry of ``moves`` ((uids, target) pairs)."""
    return comm.preview_delta(_walked(comm, moves))


@pytest.mark.parametrize("loop", LOOPS, ids=_ids(LOOPS))
def test_preview_ncomm_equals_preview_moves(loop):
    """The transfer-count walk and every field of the score-delta entry —
    the moves' only preview — equal a fresh session of the moved
    assignment minus the live one."""
    estimator, assignment = _setup(loop)
    comm = estimator.comm_session(assignment)
    rng = random.Random(loop.name)
    uids = loop.ddg.uids()
    newly_cut = 0
    for step in range(40):
        moves = _random_moves(rng, uids, 4, swap=step % 2 == 1)
        entry = _entry_of(comm, moves)
        dn, dcut, dslack, uncut, cut, dmem = entry
        lean = comm.preview_ncomm(_walked(comm, moves))
        after = estimator.comm_session(_after(assignment, moves))
        assert lean == comm.ncomm + dn == after.ncomm
        assert comm.cut_count + dcut == after.cut_count
        assert comm.slack_total + dslack == after.slack_total
        # Each cut change is listed once.
        assert sorted(uncut) == sorted(comm.cut - after.cut)
        assert sorted(cut) == sorted(after.cut - comm.cut)
        live_mem = comm.derive_comm_mem()
        assert [m + d for m, d in zip(live_mem, dmem)] == after.derive_comm_mem()
        newly_cut += bool(cut)
        if step % 5 == 4:
            # Move the live state too, so later previews start elsewhere.
            group, target = moves[0]
            comm.move_uids(group, target)
            for uid in group:
                assignment[uid] = target
    comm.verify(assignment)
    assert newly_cut


@pytest.mark.parametrize("loop", LOOPS, ids=_ids(LOOPS))
def test_max_ncomm_is_the_first_prune(loop):
    estimator, assignment = _setup(loop)
    machine = estimator.machine
    trip = loop.trip_count - 1
    floor = estimator._path_floor()
    exec_time = estimator.estimate(assignment).exec_time
    for bound in (exec_time - 7, exec_time - 1, exec_time, exec_time + 5):
        cap = estimator.max_ncomm(bound)
        for ncomm in range(0, 3 * machine.num_buses * estimator.ii + 8):
            pruned = (
                trip * max(estimator.ii, ii_bus_bound(ncomm, machine)) + floor
                > bound
            )
            assert pruned == (ncomm > cap), (bound, ncomm, cap)


# ----------------------------------------------------------------------
# Live critical path
# ----------------------------------------------------------------------
def _reference_critical(estimator, cut, ii):
    """Plain Bellman-Ford, forward and backward, until nothing changes."""
    bus = estimator._bus_latency
    lengths = [
        lat - ii * distance + (bus if i in cut else 0)
        for i, (_si, _di, lat, distance, _c) in enumerate(estimator._iedges)
    ]
    return _reference_critical_of(estimator, lengths, cut)


def _reference_critical_of(estimator, lengths, cut):
    n = estimator._n
    edges = [
        (si, di, length)
        for (si, di, _lat, _distance, _c), length in zip(estimator._iedges, lengths)
    ]
    dist = [0] * n
    changed = True
    while changed:
        changed = False
        for si, di, length in edges:
            if dist[si] + length > dist[di]:
                dist[di] = dist[si] + length
                changed = True
    latency = estimator._latency_arr
    path = max(d + lat for d, lat in zip(dist, latency))
    tail = list(latency)
    changed = True
    while changed:
        changed = False
        for si, di, length in edges:
            if length + tail[di] > tail[si]:
                tail[si] = length + tail[di]
                changed = True
    critical = {
        i for i in cut
        if dist[edges[i][0]] + edges[i][2] + tail[edges[i][1]] == path
    }
    return path, critical


@pytest.mark.parametrize("loop", LOOPS, ids=_ids(LOOPS))
def test_critical_at_matches_longest_path(loop):
    estimator, assignment = _setup(loop)
    comm = estimator.comm_session(assignment)
    rng = random.Random(loop.name)
    uids = loop.ddg.uids()
    floor_ii = max(estimator.ii, estimator._all_cut_mii())
    for step in range(6):
        # The live cut's own recurrence bound makes back edges relax.
        tight_ii = estimator._rec_mii_with_cut(sorted(comm.cut), 1)
        for ii in (tight_ii, floor_ii, floor_ii + 1, floor_ii + 4):
            path, critical = comm.critical_at(ii)
            assert path == estimator._longest_path(sorted(comm.cut), ii)
            assert comm.critical_at(ii) == (path, critical)  # cached
            assert (path, set(critical)) == _reference_critical(
                estimator, comm.cut, ii
            )
            # The live floor never exceeds a candidate's true path (at an
            # ii feasible for the candidate).
            for _ in range(5):
                moves = _random_moves(rng, uids, 4, swap=True)
                _dn, _dcut, _dslack, uncut, newly_cut, _dmem = _entry_of(
                    comm, moves
                )
                cut = estimator.comm_session(_after(assignment, moves)).cut
                live = comm.live_path_floor(ii, uncut)
                true_path = estimator._longest_path(cut, ii)
                if live is not None and true_path is not None:
                    assert live <= true_path
                # Start times, incremental or not, equal a full sweep.
                lengths, dist = comm.start_times_after(ii, uncut, newly_cut)
                assert lengths == estimator._lengths(cut, ii)
                assert dist == estimator._start_times(lengths)
        comm.verify(assignment)
        group, target = _random_moves(rng, uids, 4, swap=False)[0]
        comm.move_uids(group, target)
        for uid in group:
            assignment[uid] = target
        assert not comm._critical  # a move drops the cache
        assert not comm._starts and not comm._lengths
    comm.verify(assignment)


def _relaxes(comm, uncut, ii):
    """Whether the start times at ``ii`` of a candidate un-cutting
    ``uncut`` start from the live vector: no un-cut edge is tight in it
    (so shortening them changes nothing)."""
    live = comm.start_times(ii)
    if live is None:
        return False
    lengths = comm.lengths_at(ii)
    edges = comm.est._sweep_edges
    return all(live[edges[i][0]] + lengths[i] != live[edges[i][1]] for i in uncut)


@pytest.mark.parametrize("loop", LOOPS, ids=_ids(LOOPS))
def test_previews_relax_from_the_live_start_times(loop):
    """A candidate whose un-cut edges are not tight (none, or only slack
    ones) is priced from the live start times.  Its priced II, lengths and
    start times, its estimate, and the live state that adopts them after
    the moves are applied equal full sweeps: at an II infeasible for its
    cut set the pricing moves on to the first feasible one."""
    estimator, assignment = _setup(loop)
    comm = estimator.comm_session(assignment)
    rng = random.Random(loop.name)
    uids = loop.ddg.uids()
    floor_ii = max(estimator.ii, estimator._all_cut_mii())
    trip = loop.trip_count - 1
    kinds = {"cut only": 0, "slack un-cut": 0, "full": 0}
    adopted = raised = below = 0
    for step in range(200):
        moves = _random_moves(rng, uids, 4, swap=step % 2 == 1)
        entry = _entry_of(comm, moves)
        after = _after(assignment, moves)
        cut = estimator.comm_session(after).cut
        full = estimator.estimate(after)
        tight_ii = estimator._rec_mii_with_cut(sorted(comm.cut), 1)
        # Below ``tight_ii`` the live cut set is infeasible.
        for ii in (tight_ii - 1, tight_ii, floor_ii):
            if ii < 1:
                continue
            below += ii < tight_ii
            relaxes = _relaxes(comm, entry[3], ii)
            kind = (
                "full" if not relaxes
                else "slack un-cut" if entry[3] else "cut only"
            )
            kinds[kind] += 1
            estimate, times = estimator.estimate_preview(
                comm, entry, (full.ii_bus, ii)
            )
            priced_ii, lengths, dist = times
            assert priced_ii == estimator._rec_mii_with_cut(sorted(cut), ii)
            raised += priced_ii > ii
            assert lengths == estimator._lengths(cut, priced_ii)
            assert dist == _reference_start_times(estimator, lengths)
            path = max(d + lat for d, lat in zip(dist, estimator._latency_arr))
            assert estimate == dataclasses.replace(
                full,
                exec_time=trip * priced_ii + path,
                ii_est=priced_ii,
                critical_path=path,
            )
        if relaxes and step % 4 == 0:
            for group, target in moves:
                comm.move_uids(group, target)
            assignment = after
            comm.adopt(times)
            comm.verify(assignment)  # the adopted vector is the fresh one
            adopted += 1
    assert all(kinds.values()) and adopted, kinds
    assert raised or not below


def _reference_start_times(estimator, lengths):
    """Plain Bellman-Ford over every edge; None on a positive cycle."""
    dist = [0] * estimator._n
    for _ in range(estimator._n + 1):
        changed = False
        for (si, di, _back), length in zip(estimator._sweep_edges, lengths):
            if dist[si] + length > dist[di]:
                dist[di] = dist[si] + length
                changed = True
        if not changed:
            return dist
    return None


def _back_edge_relaxes(estimator, lengths):
    """Whether one sweep in topological edge order relaxes a back edge."""
    dist = [0] * estimator._n
    relaxed = False
    for (si, di, back), length in zip(estimator._sweep_edges, lengths):
        if dist[si] + length > dist[di]:
            dist[di] = dist[si] + length
            relaxed = relaxed or back
    return relaxed


def test_start_times_at_and_below_the_recurrence_bound():
    """The worklist re-relaxation equals plain Bellman-Ford, and an II
    below the cut set's recurrence bound is a positive cycle (None)."""
    infeasible = reworked = 0
    for loop in LOOPS:
        estimator, assignment = _setup(loop)
        comm = estimator.comm_session(assignment)
        all_cut = [record[0] for record in estimator._carry_edges]
        for cut in (sorted(comm.cut), all_cut):
            tight_ii = estimator._rec_mii_with_cut(cut, 1)
            for ii in (tight_ii - 1, tight_ii, tight_ii + 1, tight_ii + 3):
                if ii < 1:
                    continue
                lengths = estimator._lengths(cut, ii)
                dist = estimator._start_times(lengths)
                assert dist == _reference_start_times(estimator, lengths)
                assert (dist is None) == (ii < tight_ii), (loop.name, ii)
                infeasible += dist is None
        # Lengths p[dst] - p[src] - w with w >= 0 admit no positive cycle
        # (every cycle sums to -sum(w)), and random potentials make back
        # edges relax in the first sweep, so the worklist has work to do.
        rng = random.Random(loop.name)
        for _ in range(4):
            potential = [rng.randrange(-20, 20) for _ in range(estimator._n)]
            lengths = [
                potential[di] - potential[si] - rng.randrange(3)
                for si, di, _back in estimator._sweep_edges
            ]
            dist = estimator._start_times(lengths)
            assert dist is not None
            assert dist == _reference_start_times(estimator, lengths)
            reworked += _back_edge_relaxes(estimator, lengths)
    # Both the positive-cycle exit and the worklist fixpoint are exercised.
    assert infeasible and reworked


def test_critical_edges_equal_the_fixpoint_sweeps():
    """The search over tight edges from the path's ends finds the critical
    edges the plain forward and backward sweeps do, on real lengths and on
    random potentials (whose back edges relax, so a tight cycle can hide a
    path's witness)."""
    cyclic = 0
    for loop in LOOPS:
        estimator, assignment = _setup(loop)
        comm = estimator.comm_session(assignment)
        all_cut = [record[0] for record in estimator._carry_edges]
        cuts = [set(comm.cut), set(all_cut)]
        for cut in cuts:
            tight_ii = estimator._rec_mii_with_cut(sorted(cut), 1)
            for ii in (tight_ii, tight_ii + 1, tight_ii + 3):
                lengths = estimator._lengths(cut, ii)
                dist = estimator._start_times(lengths)
                path, critical = estimator._critical_edges(dist, lengths, cut)
                assert (path, set(critical)) == _reference_critical(
                    estimator, cut, ii
                )
        rng = random.Random(loop.name)
        for _ in range(4):
            potential = [rng.randrange(-20, 20) for _ in range(estimator._n)]
            lengths = [
                potential[di] - potential[si] - rng.randrange(2)
                for si, di, _back in estimator._sweep_edges
            ]
            cut = set(rng.sample(all_cut, k=len(all_cut) // 2))
            dist = estimator._start_times(lengths)
            path, critical = estimator._critical_edges(dist, lengths, cut)
            assert (path, set(critical)) == _reference_critical_of(
                estimator, lengths, cut
            )
            # A zero-length cycle of tight edges.
            cyclic += any(
                back and dist[si] + length == dist[di]
                for (si, di, back), length in zip(estimator._sweep_edges, lengths)
            )
    assert cyclic


# ----------------------------------------------------------------------
# Tie-aware prune
# ----------------------------------------------------------------------
@pytest.mark.parametrize("estimator_cls", ESTIMATORS, ids=lambda c: c.__name__)
def test_pruned_candidates_cannot_beat_the_incumbent(estimator_cls):
    """The prunes of the round the refiner runs for this estimator: the
    entry round's tie-aware ones, whose survivors price to the full
    estimate, or the apply/undo round's exec-time ``bound``."""
    pruned = ties = priced = 0
    for loop in LOOPS:
        estimator, assignment = _setup(loop, estimator_cls)
        clusters = estimator.machine.num_clusters
        comm = estimator.comm_session(assignment)
        live = _score(estimator.estimate(assignment))
        rng = random.Random(loop.name)
        uids = loop.ddg.uids()
        for step in range(30):
            moves = _random_moves(rng, uids, clusters, swap=step % 3 == 0)
            after = _after(assignment, moves)
            full = _score(estimator.estimate(after))
            counts = _class_counts(loop, after, clusters)
            for incumbent in (
                live,
                (live[0] - 1,) + live[1:],
                full,
                (full[0], full[1], full[2] + 1),
                (full[0], full[1] - 1, full[2]),
            ):
                if not estimator_cls.supports_preview:
                    est = estimator.estimate(
                        after, bound=incumbent[0], cluster_class_counts=counts
                    )
                    if est is None:
                        assert full[0] > incumbent[0], (loop.name, full, incumbent)
                        pruned += 1
                    else:
                        assert est == estimator.estimate(after)
                        ties += full[0] == incumbent[0]
                        priced += 1
                    continue
                entry = _entry_of(comm, moves)
                bounded = estimator.may_beat(incumbent, comm, entry, counts)
                if bounded is None:
                    assert full >= incumbent, (loop.name, full, incumbent)
                    pruned += 1
                    ties += full[0] == incumbent[0]
                else:
                    est, _times = estimator.estimate_preview(comm, entry, bounded)
                    assert est == estimator.estimate(after)
                    priced += 1
                if comm.ncomm + entry[0] > estimator.max_ncomm(incumbent[0]):
                    assert full[0] > incumbent[0]
    # The prunes fire, including on exact exec-time ties.
    assert pruned and ties and priced


@pytest.mark.parametrize("estimator_cls", [PartitionEstimator],
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "loop", PAPER_LOOPS[1::8] + LARGE_LOOPS[:1],
    ids=_ids(PAPER_LOOPS[1::8] + LARGE_LOOPS[:1]),
)
def test_partition_identical_with_and_without_preview(
    loop, estimator_cls, monkeypatch
):
    machine = four_cluster(32)
    ii = mii(loop, machine)
    with_preview = MultilevelPartitioner(machine).partition(loop, ii)
    monkeypatch.setattr(estimator_cls, "supports_preview", False)
    apply_undo = MultilevelPartitioner(machine).partition(loop, ii)
    assert with_preview.assignment == apply_undo.assignment
    assert with_preview.estimate == apply_undo.estimate
