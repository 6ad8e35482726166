"""The scheduling front-end against from-scratch references.

The SMS ordering (``schedule.ordering``) keeps its sweep frontiers
incrementally in heaps, and every RecMII question goes through one
per-SCC Bellman-Ford kernel (``ir.analysis.recurrence_mii``).  The
references below are the straightforward versions they replaced: the
sweeps rescan every remaining node and take a keyed ``min`` over the
whole frontier per pick, and each RecMII is a binary search over a
positive-cycle test on the *whole* graph.  Outputs must be equal on
generated loops and on the full paper and extended suites, at every II
from RecMII to RecMII+3.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.analysis import (
    LoopAnalysis,
    analyze,
    rec_mii,
    recurrence_mii,
    recurrences,
    strongly_connected_components,
)
from repro.schedule.ordering import _node_sets, sms_order
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.spec import extended_suite, spec_suite

#: II offsets above RecMII at which orders and kernels are compared.
OFFSETS = range(4)


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def ref_has_positive_cycle(ddg, ii, extra=None):
    """Whole-graph Bellman-Ford, optionally with ``(dep, added)``."""
    dist = {uid: 0 for uid in ddg.uids()}
    edges = list(ddg.edges())

    def length(dep):
        added = extra[1] if extra is not None and dep is extra[0] else 0
        return dep.latency + added - ii * dep.distance

    for _ in range(ddg.num_operations):
        changed = False
        for dep in edges:
            cand = dist[dep.src] + length(dep)
            if cand > dist[dep.dst]:
                dist[dep.dst] = cand
                changed = True
        if not changed:
            return False
    return any(dist[dep.src] + length(dep) > dist[dep.dst] for dep in edges)


def ref_rec_mii(ddg, extra=None, lower_bound=1):
    """Smallest II >= lower_bound with no positive cycle in the graph."""
    if not ref_has_positive_cycle(ddg, lower_bound, extra):
        return lower_bound
    added = extra[1] if extra is not None else 0
    lo = lower_bound
    hi = max(lower_bound + 1, sum(dep.latency for dep in ddg.edges()) + added)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ref_has_positive_cycle(ddg, mid, extra):
            lo = mid
        else:
            hi = mid
    return hi


def ref_scc_rec_mii(ddg, component):
    """RecMII restricted to the cycles inside ``component``."""
    members = set(component)
    edges = [
        dep for dep in ddg.edges() if dep.src in members and dep.dst in members
    ]
    if not edges:
        return 1

    def has_positive_cycle(ii):
        dist = {uid: 0 for uid in members}
        for _ in range(len(members)):
            changed = False
            for dep in edges:
                cand = dist[dep.src] + dep.latency - ii * dep.distance
                if cand > dist[dep.dst]:
                    dist[dep.dst] = cand
                    changed = True
            if not changed:
                return False
        return any(
            dist[dep.src] + dep.latency - ii * dep.distance > dist[dep.dst]
            for dep in edges
        )

    if not has_positive_cycle(1):
        return 1
    lo, hi = 1, max(2, sum(dep.latency for dep in edges))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if has_positive_cycle(mid):
            lo = mid
        else:
            hi = mid
    return hi


def ref_reachable(ddg, roots, forward):
    seen = set(roots)
    stack = list(roots)
    while stack:
        uid = stack.pop()
        for other in ddg.successors(uid) if forward else ddg.predecessors(uid):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def ref_node_sets(ddg):
    components = strongly_connected_components(ddg)
    recurrent = [
        comp
        for comp in components
        if len(comp) > 1
        or any(dep.dst == comp[0] for dep in ddg.out_edges(comp[0]))
    ]
    recurrent.sort(key=lambda comp: (-ref_scc_rec_mii(ddg, comp), comp[0]))
    sets, consumed = [], set()
    for comp in recurrent:
        members = set(comp) - consumed
        if not members:
            continue
        if consumed:
            down = ref_reachable(ddg, consumed, forward=True)
            up = ref_reachable(ddg, set(comp), forward=False)
            members |= (down & up) - consumed
            down2 = ref_reachable(ddg, set(comp), forward=True)
            up2 = ref_reachable(ddg, consumed, forward=False)
            members |= (down2 & up2) - consumed
        sets.append(sorted(members))
        consumed |= members
    rest = [uid for uid in ddg.uids() if uid not in consumed]
    if rest:
        sets.append(rest)
    return sets


def ref_order_set(ddg, analysis: LoopAnalysis, node_set, ordered, placed):
    """Sweeps that recompute both frontiers from scratch."""
    remaining = set(node_set) - placed

    def top_down_key(uid):
        return (-analysis.height(uid), analysis.mobility(uid), uid)

    def bottom_up_key(uid):
        return (-analysis.depth(uid), analysis.mobility(uid), uid)

    while remaining:
        succ_candidates = {
            uid for uid in remaining
            if any(p in placed for p in ddg.predecessors(uid))
        }
        pred_candidates = {
            uid for uid in remaining
            if any(s in placed for s in ddg.successors(uid))
        }
        if succ_candidates:
            frontier, top_down = succ_candidates, True
        elif pred_candidates:
            frontier, top_down = pred_candidates, False
        else:
            seed = min(remaining, key=lambda uid: (analysis.asap[uid], uid))
            frontier, top_down = {seed}, True
        key = top_down_key if top_down else bottom_up_key
        while frontier:
            uid = min(frontier, key=key)
            ordered.append(uid)
            placed.add(uid)
            remaining.discard(uid)
            frontier.discard(uid)
            follow = ddg.successors(uid) if top_down else ddg.predecessors(uid)
            frontier.update(other for other in follow if other in remaining)


def ref_sms_order(ddg, ii):
    analysis = analyze(ddg, max(ii, ref_rec_mii(ddg)))
    ordered, placed = [], set()
    for node_set in ref_node_sets(ddg):
        ref_order_set(ddg, analysis, node_set, ordered, placed)
    return ordered


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
def assert_front_end_matches(ddg, bus_latencies=(1,)):
    bound = rec_mii(ddg)
    assert bound == ref_rec_mii(ddg)
    assert _node_sets(ddg) == ref_node_sets(ddg)
    for offset in OFFSETS:
        assert sms_order(ddg, bound + offset) == ref_sms_order(
            ddg, bound + offset
        )
    # The partition weights' bus-delayed RecMII probes one recurrence.
    for comp, deps in recurrences(ddg):
        assert recurrence_mii(comp, deps) == ref_scc_rec_mii(ddg, comp)
        for dep in deps:
            for added in bus_latencies:
                assert recurrence_mii(
                    comp, deps, (dep, added), lower_bound=bound
                ) == ref_rec_mii(ddg, (dep, added), lower_bound=bound)


loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=4, max_value=48),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=4),
    trip_count=st.just(100),
)


@settings(max_examples=60, deadline=None)
@given(shape=loop_shapes, seed=st.integers(min_value=0, max_value=10_000))
def test_front_end_matches_reference_on_generated_loops(shape, seed):
    loop = generate_loop("frontend", shape, seed)
    assert_front_end_matches(loop.ddg, bus_latencies=(1, 2, 5))


@pytest.mark.parametrize("tier", ["paper", "extended"])
def test_front_end_matches_reference_on_suites(tier):
    suite = spec_suite() if tier == "paper" else extended_suite()
    for benchmark in suite:
        for loop in benchmark.loops:
            assert_front_end_matches(loop.ddg)


def test_tarjan_fetches_each_successor_list_once():
    loop = max(
        (loop for benchmark in extended_suite() for loop in benchmark.loops),
        key=lambda loop: loop.ddg.num_operations,
    )
    ddg = loop.ddg
    fetches = {}
    successors = ddg.successors

    def counting(uid):
        fetches[uid] = fetches.get(uid, 0) + 1
        return successors(uid)

    ddg.successors = counting
    try:
        components = strongly_connected_components(ddg)
    finally:
        del ddg.successors
    assert max(fetches.values()) == 1
    assert sorted(uid for comp in components for uid in comp) == ddg.uids()
    assert components == strongly_connected_components(ddg)
