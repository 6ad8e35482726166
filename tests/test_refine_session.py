"""The refinement session's cross-level state and score-delta table are exact.

One :class:`RefinementSession` serves a whole ``partition()`` call: it
keeps the communication state (with its cached start times and tails),
loads and per-group constants across hierarchy levels, descends a level by
splitting only the fused groups, and caches the score delta of every
(group, target) move until a uid of the group's D(G) moves.  Here every
cached entry is compared with a fresh :meth:`CommState.preview_delta`
walk, every independent-swap sum with the exact two-move walk, and
:meth:`RefinementSession.verify` — which compares the session with a
from-scratch :meth:`RefinementSession.enter` — runs after every move, swap
and level transition, both inside the partitioner's own refinement and
under seeded apply sequences of moves, swaps and single-uid moves.  The
loops are the paper suite plus the three large extended-tier bodies of
``test_refine_prunes.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.machine.presets import four_cluster
from repro.partition.coarsen import build_hierarchy
from repro.partition.estimator import CommState, PartitionEstimator
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


def _walks(session, moves):
    """The exact transfer-count change and score delta of ``moves``
    ((group, target) pairs)."""
    moves = tuple(
        (group.members, group.records.values(), target) for group, target in moves
    )
    comm = session.comm
    return comm.preview_ncomm(moves) - comm.ncomm, comm.preview_delta(moves)


def _same(entry, walked):
    """Entries are equal up to the order of their un-cut and newly cut
    edges."""
    return (
        entry[:3] + entry[5:] == walked[:3] + walked[5:]
        and set(entry[3]) == set(walked[3])
        and set(entry[4]) == set(walked[4])
    )


def _fill_and_check(session, rng, clusters):
    """Price moves and swaps through the tables and compare with walks."""
    order = session.order
    independent = dependent = 0
    for group in rng.sample(order, k=min(len(order), 12)):
        source = group.cluster
        for target in range(clusters):
            if target == source:
                continue
            dn, full = _walks(session, [(group, target)])
            assert session.delta(group, target) == dn == full[0]
            assert _same(session.entry(group, target), full)
            for partner in rng.sample(order, k=min(len(order), 4)):
                if partner.cluster != target:
                    continue
                dn, full = _walks(session, [(group, target), (partner, source)])
                assert session.swap_delta(group, partner, target) == dn == full[0]
                assert _same(session.swap_entry(group, partner, target), full)
                # Cached on both sides: the partner's view is the same swap.
                assert session.swap_delta(partner, group, source) == dn
                if group.independent_of(partner):
                    independent += 1
                else:
                    dependent += 1
    return independent, dependent


@pytest.mark.parametrize("loop", LOOPS, ids=_ids(LOOPS))
def test_session_verifies_after_every_move_of_a_partition(loop, monkeypatch):
    """Inside the partitioner: after every move (a swap is two) and every
    level transition, and after the live state adopts a winner's start
    times, the session equals a fresh derivation."""
    events = {"moves": 0, "levels": 0, "adopted": 0}

    def checked(owner, name, key, session_of=lambda self: self):
        original = getattr(owner, name)

        def wrapper(self, *args):
            original(self, *args)
            session = session_of(self)
            if session is not None:
                session.verify()
            events[key] += 1

        monkeypatch.setattr(owner, name, wrapper)

    sessions = []

    def opened(self, *args):
        init(self, *args)
        sessions.append(self)

    init = RefinementSession.__init__
    monkeypatch.setattr(RefinementSession, "__init__", opened)
    checked(RefinementSession, "move", "moves")
    checked(RefinementSession, "descend", "levels")
    checked(
        CommState, "adopt", "adopted",
        session_of=lambda comm: next(
            (s for s in sessions if s.comm is comm), None
        ),
    )
    machine = four_cluster(32)
    ii = mii(loop, machine)
    checked_partition = MultilevelPartitioner(machine).partition(loop, ii)
    monkeypatch.undo()
    assert checked_partition == MultilevelPartitioner(machine).partition(loop, ii)
    assert events["moves"] and events["levels"]
    if loop in LARGE_LOOPS:
        assert events["adopted"]


@pytest.mark.parametrize(
    "loop", PAPER_LOOPS[::3] + LARGE_LOOPS,
    ids=_ids(PAPER_LOOPS[::3] + LARGE_LOOPS),
)
def test_delta_table_under_apply_sequences(loop):
    """Walk down the hierarchy, applying seeded moves, swaps and single-uid
    moves; every cached entry and swap sum must stay exact, and every
    level the session descends to must equal a from-scratch enter."""
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
    top = hierarchy.num_levels - 1
    groups = {gid: i % clusters for i, gid in enumerate(sorted(hierarchy.coarsest()))}
    session = RefinementSession(
        estimator, refiner._class_of, hierarchy.coarsest(), groups,
        hierarchy.ranks[top],
    )
    independent = dependent = 0
    for index in range(top, -1, -1):
        if index < top:
            # Splitting the fused groups moves nothing.
            moves_before = session.moves
            session.descend(
                hierarchy.levels[index], hierarchy.fused[index + 1],
                hierarchy.ranks[index],
            )
            assert session.moves == moves_before
        session.verify()
        order = session.order
        singletons = [group for group in order if len(group.uids) == 1]
        for step in range(4):
            found = _fill_and_check(session, rng, clusters)
            independent += found[0]
            dependent += found[1]
            session.verify()
            kind = step % 3
            if kind == 0 and singletons:
                # A single-uid move, as balancing makes at level starts.
                group = rng.choice(singletons)
            else:
                group = rng.choice(order)
            source = group.cluster
            target = rng.choice([c for c in range(clusters) if c != source])
            if kind == 2:
                partners = [g for g in order if g.cluster == target]
                if partners:
                    other = rng.choice(partners)
                    session.move(group, target)
                    session.verify()
                    session.move(other, source)
                    session.verify()
                    continue
            session.move(group, target)
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
