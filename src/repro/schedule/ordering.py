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
   Remaining nodes form the final set.

2. **Alternating sweeps.**  Within each set, nodes adjacent to the ordered
   prefix are appended in directional sweeps: a *top-down* sweep repeatedly
   takes the candidate with the greatest height (most critical), appending
   nodes whose ordered neighbours are predecessors, then switches to a
   *bottom-up* sweep by greatest depth, and so on until the set is ordered.

**Sweep invariant.**  A top-down sweep's candidates are exactly the set's
unordered nodes with an ordered predecessor, a bottom-up sweep's exactly
those with an ordered successor.  :func:`_order_set` keeps both sets as
nodes are placed, each mirrored by a heap of keys computed once per node,
so ordering V nodes and E edges costs O((V + E) log V), not a rescan of
every remaining node per sweep and of the frontier per pick.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Dict, List, Sequence, Set, Tuple

from ..ir.analysis import LoopAnalysis, analyze, rec_mii, recurrence_mii, recurrences
from ..ir.ddg import DataDependenceGraph, memo_get

#: (graph, clamped II) -> shared SMS order, stored as ``(ddg.revision,
#: {II: order})`` so mutating a graph invalidates its orders.  Weak keys
#: let a graph and its orders die with its loop only while no cached
#: value references its key graph (orders are plain uid lists);
#: ``tests/test_memo_lifetime.py`` checks that rule.
_ORDER_CACHE: "weakref.WeakKeyDictionary[DataDependenceGraph, Tuple[int, Dict[int, List[int]]]]" = (
    weakref.WeakKeyDictionary()
)


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
    ranked = sorted(
        (-recurrence_mii(comp, deps), comp[0], comp)
        for comp, deps in recurrences(ddg)
    )

    sets: List[List[int]] = []
    consumed: Set[int] = set()
    for _, _, comp in ranked:
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

    Memoized per (graph revision, clamped II): every scheduling attempt
    of every algorithm re-derives the same order.  The returned list is
    shared — callers must not mutate it.
    """
    if ddg.num_operations == 0:
        return []
    floor_ii = rec_mii(ddg)
    effective_ii = max(ii, floor_ii)
    per_ii = memo_get(_ORDER_CACHE, ddg)
    if per_ii is None:
        per_ii = {}
        _ORDER_CACHE[ddg] = (ddg.revision, per_ii)
    elif effective_ii in per_ii:
        return per_ii[effective_ii]
    analysis = analyze(ddg, effective_ii)

    ordered: List[int] = []
    placed: Set[int] = set()
    for node_set in _node_sets(ddg):
        _order_set(ddg, analysis, node_set, ordered, placed)
    per_ii[effective_ii] = ordered
    return ordered


def _order_set(
    ddg: DataDependenceGraph,
    analysis: LoopAnalysis,
    node_set: Sequence[int],
    ordered: List[int],
    placed: Set[int],
) -> None:
    """Phase 2: alternating directional sweeps over one node set.

    ``below``/``above`` are the top-down/bottom-up frontiers (module
    docstring).  Picks take the greatest height (least ALAP) top-down and
    the greatest depth (ASAP) bottom-up, then the least mobility and uid.
    With neither frontier, a top-down sweep starts at the earliest node.
    """
    remaining: Set[int] = set(node_set) - placed
    asap, alap = analysis.asap, analysis.alap
    below: Set[int] = set()
    above: Set[int] = set()
    below_heap: List[Tuple[int, int, int]] = []
    above_heap: List[Tuple[int, int, int]] = []

    def join(uid: int, top_down: bool) -> None:
        frontier, heap = (below, below_heap) if top_down else (above, above_heap)
        if uid in remaining and uid not in frontier:
            frontier.add(uid)
            first = alap[uid] if top_down else -asap[uid]
            heapq.heappush(heap, (first, alap[uid] - asap[uid], uid))

    for uid in remaining:
        if any(p in placed for p in ddg.predecessors(uid)):
            join(uid, True)
        if any(s in placed for s in ddg.successors(uid)):
            join(uid, False)
    seeds = iter(sorted((asap[uid], uid) for uid in remaining))

    def place(uid: int) -> None:
        ordered.append(uid)
        placed.add(uid)
        for pool in (remaining, below, above):
            pool.discard(uid)
        for other in ddg.successors(uid):
            join(other, True)
        for other in ddg.predecessors(uid):
            join(other, False)

    while remaining:
        if not (below or above):
            place(next(uid for _, uid in seeds if uid in remaining))
            continue
        frontier, heap = (below, below_heap) if below else (above, above_heap)
        # One sweep.  Nodes leave a frontier only by being placed, so a
        # popped key whose node has left it is stale.
        while frontier:
            uid = heapq.heappop(heap)[2]
            if uid in frontier:
                place(uid)
