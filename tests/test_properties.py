"""Property-based tests (hypothesis) on the core invariants.

These are the library's strongest correctness guarantees:

* every schedule any driver produces passes the independent validator,
* partitions always assign every node exactly once and within bounds,
* RecMII really is the *minimum* feasible recurrence interval,
* MaxLives accounting matches a brute-force per-cycle count,
* greedy matchings are valid and within 2x of the exact optimum.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.ir.analysis import analyze, rec_mii
from repro.machine.presets import four_cluster, two_cluster, unified
from repro.partition.matching import (
    exact_matching,
    greedy_matching,
    matching_weight,
)
from repro.partition.partitioner import MultilevelPartitioner
from repro.schedule.drivers import GPScheduler, UracamScheduler
from repro.schedule.lifetimes import LiveSegment, max_live
from repro.schedule.mii import mii
from repro.schedule.ordering import sms_order
from repro.workloads.generator import LoopShape, generate_loop

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=6, max_value=26),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.integers(min_value=20, max_value=400),
)

seeds = st.integers(min_value=0, max_value=10_000)


def make_loop(shape: LoopShape, seed: int):
    return generate_loop("prop", shape, seed)


# ----------------------------------------------------------------------
# Graph analysis invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_rec_mii_is_minimal_feasible(shape, seed):
    loop = make_loop(shape, seed)
    bound = rec_mii(loop.ddg)
    analysis = analyze(loop.ddg, bound)  # must not raise
    assert analysis.makespan >= 0
    for dep in loop.ddg.edges():
        assert analysis.edge_slack(dep) >= 0


@settings(max_examples=40, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_asap_alap_sandwich(shape, seed):
    loop = make_loop(shape, seed)
    ii = rec_mii(loop.ddg) + 1
    analysis = analyze(loop.ddg, ii)
    for uid in loop.ddg.uids():
        assert analysis.asap[uid] <= analysis.alap[uid]


@settings(max_examples=30, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_sms_order_is_permutation_without_sandwiches(shape, seed):
    loop = make_loop(shape, seed)
    order = sms_order(loop.ddg)
    assert sorted(order) == loop.ddg.uids()
    # No sandwiches outside recurrences.
    from repro.ir.analysis import strongly_connected_components

    in_cycle = set()
    for comp in strongly_connected_components(loop.ddg):
        if len(comp) > 1:
            in_cycle.update(comp)
        elif any(d.dst == comp[0] for d in loop.ddg.out_edges(comp[0])):
            in_cycle.add(comp[0])
    placed = set()
    for uid in order:
        if uid not in in_cycle:
            has_pred = any(p in placed for p in loop.ddg.predecessors(uid))
            has_succ = any(
                s in placed and s not in in_cycle
                for s in loop.ddg.successors(uid)
            )
            assert not (has_pred and has_succ) or (
                # Paths between recurrences may legitimately sandwich.
                any(p in in_cycle for p in loop.ddg.predecessors(uid))
                or any(s in in_cycle for s in loop.ddg.successors(uid))
            )
        placed.add(uid)


# ----------------------------------------------------------------------
# Matching invariants
# ----------------------------------------------------------------------
edges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.1, max_value=100.0),
    ),
    min_size=0,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(edges=edges_strategy)
def test_greedy_matching_valid_and_half_optimal(edges):
    greedy = greedy_matching(edges)
    nodes = [n for pair in greedy for n in pair]
    assert len(nodes) == len(set(nodes))  # no node matched twice
    exact = exact_matching(edges)
    gw = matching_weight(edges, greedy)
    ew = matching_weight(edges, exact)
    assert gw >= ew / 2 - 1e-9
    assert ew >= gw - 1e-9  # exact is at least greedy


# ----------------------------------------------------------------------
# Lifetime accounting invariants
# ----------------------------------------------------------------------
segments_strategy = st.lists(
    st.builds(
        LiveSegment,
        cluster=st.integers(min_value=0, max_value=2),
        birth=st.integers(min_value=-20, max_value=60),
        death=st.integers(min_value=-20, max_value=80),
    ),
    min_size=0,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(segments=segments_strategy, ii=st.integers(min_value=1, max_value=9))
def test_max_live_matches_bruteforce(segments, ii):
    fast = max_live(segments, ii, num_clusters=3)
    # Brute force: count, for each kernel cycle, every iteration overlap.
    for cluster in range(3):
        peak = 0
        for m in range(ii):
            count = 0
            for seg in segments:
                if seg.cluster != cluster:
                    continue
                length = max(seg.death - seg.birth, 1)
                b, d = seg.birth, seg.birth + length
                k_lo = math.ceil((b - m) / ii)
                k_hi = math.floor((d - 1 - m) / ii)
                count += max(0, k_hi - k_lo + 1)
            peak = max(peak, count)
        assert peak == fast[cluster]


# ----------------------------------------------------------------------
# Partition invariants
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(shape=loop_shapes, seed=seeds, clusters=st.sampled_from([2, 4]))
def test_partition_total_and_within_bounds(shape, seed, clusters):
    loop = make_loop(shape, seed)
    machine = two_cluster(64) if clusters == 2 else four_cluster(64)
    partition = MultilevelPartitioner(machine).partition(
        loop, ii=mii(loop, machine)
    )
    assert sorted(partition.assignment) == loop.ddg.uids()
    assert all(
        0 <= c < machine.num_clusters for c in partition.assignment.values()
    )
    assert partition.ii_bus == math.ceil(
        partition.ncomm * machine.bus_latency / machine.num_buses
    ) if partition.ncomm else partition.ii_bus == 0


# ----------------------------------------------------------------------
# End-to-end schedule validity
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_gp_schedules_always_validate(shape, seed):
    loop = make_loop(shape, seed)
    outcome = GPScheduler(two_cluster(32)).schedule(loop)
    if outcome.is_modulo:
        outcome.schedule.validate()


@settings(max_examples=15, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_uracam_schedules_always_validate(shape, seed):
    loop = make_loop(shape, seed)
    outcome = UracamScheduler(four_cluster(32)).schedule(loop)
    if outcome.is_modulo:
        outcome.schedule.validate()


@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_modulo_ii_never_below_mii(shape, seed):
    loop = make_loop(shape, seed)
    machine = unified(64)
    outcome = UracamScheduler(machine).schedule(loop)
    if outcome.is_modulo:
        assert outcome.schedule.ii >= mii(loop, machine)
