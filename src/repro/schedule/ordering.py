"""The Swing Modulo Scheduling node ordering (paper §3.3.3).

The paper sorts operations with the SMS ordering (Llosa et al., PACT'96),
whose guarantee is what makes a backtracking-free scheduler workable: when
an operation is scheduled, its already-placed neighbours are either all
predecessors or all successors (recurrence-closing edges excepted), so the
engine always scans a full II-wide window anchored on one side.

The algorithm has two phases:

1. **Node sets.**  Recurrences (non-trivial SCCs) are sorted by decreasing
   per-recurrence RecMII; each set consists of the recurrence plus all nodes
   lying on directed paths between it and previously selected sets (so the
   connective tissue is ordered together with the recurrences it joins).
   Remaining nodes form the final sets, one per weakly connected component.

2. **Alternating sweeps.**  Within each set, nodes adjacent to the ordered
   prefix are appended in directional sweeps: a *top-down* sweep repeatedly
   takes the candidate with the greatest height (most critical), appending
   nodes whose ordered neighbours are predecessors, then switches to a
   *bottom-up* sweep by greatest depth, and so on until the set is ordered.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Sequence, Set

from ..ir.analysis import LoopAnalysis, analyze, rec_mii, strongly_connected_components
from ..ir.ddg import DataDependenceGraph

#: (graph, clamped II) -> shared SMS order.  Weak keys let a graph and its
#: orders die with its loop only while no cached value references its key
#: graph (orders are plain uid lists); ``tests/test_memo_lifetime.py``
#: checks that rule.
_ORDER_CACHE: "weakref.WeakKeyDictionary[DataDependenceGraph, Dict[int, List[int]]]" = (
    weakref.WeakKeyDictionary()
)


def _scc_rec_mii(ddg: DataDependenceGraph, component: Sequence[int]) -> int:
    """RecMII restricted to the cycles inside ``component``."""
    members = set(component)
    edges = [
        dep for dep in ddg.edges() if dep.src in members and dep.dst in members
    ]
    if not edges:
        return 1

    def has_positive_cycle(ii: int) -> bool:
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
        for dep in edges:
            if dist[dep.src] + dep.latency - ii * dep.distance > dist[dep.dst]:
                return True
        return False

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


def _reachable(ddg: DataDependenceGraph, roots: Set[int], forward: bool) -> Set[int]:
    """Nodes reachable from ``roots`` (forward) or reaching them (backward)."""
    seen = set(roots)
    stack = list(roots)
    while stack:
        uid = stack.pop()
        neighbours = ddg.successors(uid) if forward else ddg.predecessors(uid)
        for other in neighbours:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def _node_sets(ddg: DataDependenceGraph) -> List[List[int]]:
    """Phase 1: recurrence sets (plus path nodes), then the leftovers."""
    components = strongly_connected_components(ddg)
    recurrences = [
        comp
        for comp in components
        if len(comp) > 1
        or any(dep.dst == comp[0] for dep in ddg.out_edges(comp[0]))
    ]
    recurrences.sort(key=lambda comp: (-_scc_rec_mii(ddg, comp), comp[0]))

    sets: List[List[int]] = []
    consumed: Set[int] = set()
    for comp in recurrences:
        members = set(comp) - consumed
        if not members:
            continue
        if consumed:
            # Nodes on directed paths between previous sets and this one.
            down = _reachable(ddg, consumed, forward=True)
            up = _reachable(ddg, set(comp), forward=False)
            members |= (down & up) - consumed
            down2 = _reachable(ddg, set(comp), forward=True)
            up2 = _reachable(ddg, consumed, forward=False)
            members |= (down2 & up2) - consumed
        sets.append(sorted(members))
        consumed |= members

    rest = [uid for uid in ddg.uids() if uid not in consumed]
    if rest:
        sets.append(rest)
    return sets


def sms_order(ddg: DataDependenceGraph, ii: int = 0) -> List[int]:
    """Operation uids in SMS scheduling order.

    Args:
        ddg: Loop body graph.
        ii: Initiation interval for the height/depth analysis; defaults to
            (and is clamped below by) the graph's RecMII.

    Memoized per (graph, clamped II): every scheduling attempt of every
    algorithm re-derives the same order.  The returned list is shared —
    callers must not mutate it.
    """
    if ddg.num_operations == 0:
        return []
    floor_ii = rec_mii(ddg)
    effective_ii = max(ii, floor_ii)
    per_ii = _ORDER_CACHE.get(ddg)
    if per_ii is not None and effective_ii in per_ii:
        return per_ii[effective_ii]
    analysis = analyze(ddg, effective_ii)

    ordered: List[int] = []
    placed: Set[int] = set()
    for node_set in _node_sets(ddg):
        _order_set(ddg, analysis, node_set, ordered, placed)
    _ORDER_CACHE.setdefault(ddg, {})[effective_ii] = ordered
    return ordered


def _order_set(
    ddg: DataDependenceGraph,
    analysis: LoopAnalysis,
    node_set: Sequence[int],
    ordered: List[int],
    placed: Set[int],
) -> None:
    """Phase 2: alternating directional sweeps over one node set."""
    remaining: Set[int] = set(node_set) - placed

    def top_down_key(uid: int):
        return (-analysis.height(uid), analysis.mobility(uid), uid)

    def bottom_up_key(uid: int):
        return (-analysis.depth(uid), analysis.mobility(uid), uid)

    while remaining:
        succ_candidates = {
            uid
            for uid in remaining
            if any(p in placed for p in ddg.predecessors(uid))
        }
        pred_candidates = {
            uid
            for uid in remaining
            if any(s in placed for s in ddg.successors(uid))
        }
        if succ_candidates:
            frontier, direction = succ_candidates, "top-down"
        elif pred_candidates:
            frontier, direction = pred_candidates, "bottom-up"
        else:
            seed = min(remaining, key=lambda uid: (analysis.asap[uid], uid))
            frontier, direction = {seed}, "top-down"

        key = top_down_key if direction == "top-down" else bottom_up_key
        while frontier:
            uid = min(frontier, key=key)
            ordered.append(uid)
            placed.add(uid)
            remaining.discard(uid)
            frontier.discard(uid)
            follow = (
                ddg.successors(uid)
                if direction == "top-down"
                else ddg.predecessors(uid)
            )
            for other in follow:
                if other in remaining:
                    frontier.add(other)
