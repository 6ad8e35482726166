"""The refinement session's cross-level state and transfer-delta table are exact.

One :class:`RefinementSession` serves a whole ``partition()`` call: it
keeps the communication state, loads and per-group constants across
hierarchy levels and caches the transfer-count change of every
(group, target) move until a uid of the group's D(G) moves.  Here every
cached delta is compared with a fresh :meth:`CommState.preview_ncomm`
walk, every independent-swap sum with the exact two-move walk, and
:meth:`RefinementSession.verify` runs after every move — both inside the
partitioner's own refinement and under seeded apply sequences of moves,
swaps and single-uid moves.  The loops are the paper suite plus the three
large extended-tier bodies of ``test_refine_prunes.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.machine.presets import four_cluster
from repro.partition.coarsen import build_hierarchy
from repro.partition.estimator import PartitionEstimator
from repro.partition.matching import greedy_matching
from repro.partition.partitioner import MultilevelPartitioner
from repro.partition.refine import RefinementSession, Refiner
from repro.partition.weights import compute_edge_weights
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
LOOPS = PAPER_LOOPS + LARGE_LOOPS


def _ids(loops):
    return [loop.name for loop in loops]


def _walk(session, moves):
    """The exact transfer-count change of ``moves`` ((group, target) pairs)."""
    comm = session.comm
    return comm.preview_ncomm(
        tuple((group.members, group.records, target) for group, target in moves)
    ) - comm.ncomm


def _fill_and_check(session, rng, clusters):
    """Price moves and swaps through the table and compare with walks."""
    info = session.info
    gids = sorted(info)
    independent = dependent = 0
    for gid in rng.sample(gids, k=min(len(gids), 12)):
        group = info[gid]
        source = session.groups[gid]
        for target in range(clusters):
            if target == source:
                continue
            assert session.delta(group, target) == _walk(session, [(group, target)])
            for other in rng.sample(gids, k=min(len(gids), 4)):
                if session.groups[other] != target:
                    continue
                partner = info[other]
                exact = _walk(session, [(group, target), (partner, source)])
                assert session.swap_delta(group, partner, source, target) == exact
                if group.independent_of(partner):
                    assert (
                        session.delta(group, target) + session.delta(partner, source)
                        == exact
                    )
                    independent += 1
                else:
                    dependent += 1
    return independent, dependent


@pytest.mark.parametrize("loop", LOOPS, ids=_ids(LOOPS))
def test_session_verifies_after_every_move_of_a_partition(loop, monkeypatch):
    moves = []
    original = RefinementSession.move

    def checked_move(session, gid, target):
        original(session, gid, target)
        session.verify()
        moves.append(gid)

    monkeypatch.setattr(RefinementSession, "move", checked_move)
    machine = four_cluster(32)
    ii = mii(loop, machine)
    checked = MultilevelPartitioner(machine).partition(loop, ii)
    monkeypatch.undo()
    assert checked == MultilevelPartitioner(machine).partition(loop, ii)
    assert moves


@pytest.mark.parametrize(
    "loop", PAPER_LOOPS[::3] + LARGE_LOOPS,
    ids=_ids(PAPER_LOOPS[::3] + LARGE_LOOPS),
)
def test_delta_table_under_apply_sequences(loop):
    """Walk the hierarchy, applying seeded moves, swaps and single-uid
    moves; every cached delta and swap sum must stay exact."""
    machine = four_cluster(32)
    clusters = machine.num_clusters
    ii = mii(loop, machine)
    estimator = PartitionEstimator(loop, machine, ii)
    refiner = Refiner(estimator, machine)
    hierarchy = build_hierarchy(
        compute_edge_weights(loop, ii, machine.bus_latency), clusters,
        greedy_matching,
    )
    rng = random.Random(loop.name)
    coarsest = hierarchy.coarsest()
    groups = {gid: i % clusters for i, gid in enumerate(sorted(coarsest))}
    session = None
    independent = dependent = 0
    for index in range(hierarchy.num_levels - 1, -1, -1):
        level = hierarchy.levels[index]
        if session is None:
            refiner.balance_workload(level, groups)
            session = refiner.session
        else:
            # Project the session's uid assignment: moves nothing.
            moves_before = session.moves
            session.enter(
                level, {gid: session.assignment[uids[0]] for gid, uids in level.items()}
            )
            assert session.moves == moves_before
        session.verify()
        gids = sorted(level)
        singletons = [gid for gid in gids if len(level[gid]) == 1]
        for step in range(4):
            found = _fill_and_check(session, rng, clusters)
            independent += found[0]
            dependent += found[1]
            session.verify()
            kind = step % 3
            if kind == 0 and singletons:
                # A single-uid move, as balancing makes at level starts.
                gid = rng.choice(singletons)
            else:
                gid = rng.choice(gids)
            source = session.groups[gid]
            target = rng.choice([c for c in range(clusters) if c != source])
            if kind == 2:
                partners = [g for g in gids if session.groups[g] == target]
                if partners:
                    other = rng.choice(partners)
                    session.move(gid, target)
                    session.verify()
                    session.move(other, source)
                    session.verify()
                    continue
            session.move(gid, target)
            session.verify()
    assert independent and dependent


def test_enter_moves_stray_operations():
    """A caller-chosen assignment that disagrees with the session's is
    adopted uid by uid, and the stale deltas go with it."""
    loop = LARGE_LOOPS[0]
    machine = four_cluster(64)
    estimator = PartitionEstimator(loop, machine, mii(loop, machine))
    refiner = Refiner(estimator, machine)
    finest = {i: (uid,) for i, uid in enumerate(loop.ddg.uids())}
    refiner.balance_workload(finest, {gid: gid % 4 for gid in finest})
    session = refiner.session
    rng = random.Random(7)
    _fill_and_check(session, rng, 4)
    shuffled = {gid: rng.randrange(4) for gid in finest}
    session.enter(finest, shuffled)
    assert session.groups == shuffled
    session.verify()
