"""II-parametric analysis of data dependence graphs.

For a modulo schedule with initiation interval ``II``, a dependence
``u -> v`` with latency ``lat`` and iteration distance ``dist`` constrains
the *kernel* cycles by::

    cycle(v) - cycle(u) >= lat - II * dist

so every analysis below (earliest/latest start, slack, critical path) is a
longest-path computation over edges of **effective length**
``lat - II * dist``.  These lengths may be negative; the computation
converges iff ``II`` is at least the recurrence-constrained minimum
initiation interval (RecMII), which :func:`rec_mii` computes.

Every RecMII question (the graph's, a recurrence's for the SMS node sets,
a recurrence's with a bus delay on one edge for the partition weights)
goes through one kernel, :func:`recurrence_mii`: a binary search over a
Bellman-Ford positive-cycle test on one SCC's edges, O(V_c * E_c) per test
instead of O(V * E).  That is exact: every cycle lies inside one SCC, every
cycle has distance >= 1 so the test is monotone in II (the graph's RecMII
is the maximum over its recurrences), and an SCC's latency sum bounds each
of its simple cycles, so it is a feasible upper end for the search.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import GraphError
from .ddg import DataDependenceGraph, Dependence, memo_get

#: Memoization of the II-parametric analyses.  The schedulers re-analyze
#: the same graph at the same II for every scheduling attempt and
#: algorithm.  Entries are read through :func:`~repro.ir.ddg.memo_get`,
#: so mutating a graph invalidates them.  Weak keys let a graph and its
#: entries die with its loop only while no cached value references its
#: key graph (so :class:`LoopAnalysis` carries no ``ddg``);
#: ``tests/test_memo_lifetime.py`` checks that every memo keeps this rule.
_REC_MII_CACHE: "weakref.WeakKeyDictionary[DataDependenceGraph, Tuple[int, int]]" = (
    weakref.WeakKeyDictionary()
)
_ANALYZE_CACHE: "weakref.WeakKeyDictionary[DataDependenceGraph, Tuple[int, Dict[int, LoopAnalysis]]]" = (
    weakref.WeakKeyDictionary()
)


def effective_length(dep: Dependence, ii: int) -> int:
    """Minimum kernel-cycle separation imposed by ``dep`` at interval ``ii``."""
    return dep.latency - ii * dep.distance


# ----------------------------------------------------------------------
# Recurrence-constrained minimum initiation interval
# ----------------------------------------------------------------------
def _has_positive_cycle(
    n: int, edges: List[Tuple[int, int, int, int]], ii: int
) -> bool:
    """True if some dependence cycle has positive total effective length.

    ``edges`` holds ``(src index, dst index, latency, distance)`` of every
    edge of a graph with ``n`` operations.
    """
    relax = [(si, di, lat - ii * distance) for si, di, lat, distance in edges]
    dist = [0] * n
    for iteration in range(n):
        changed = False
        for si, di, length in relax:
            cand = dist[si] + length
            if cand > dist[di]:
                dist[di] = cand
                changed = True
        if not changed:
            return False
    # A relaxation in the n-th pass means an improving (positive) cycle.
    for si, di, length in relax:
        if dist[si] + length > dist[di]:
            return True
    return False


def recurrences(ddg: DataDependenceGraph) -> List[Tuple[List[int], List[Dependence]]]:
    """Every SCC with an edge inside it (a recurrence), with those edges."""
    components = strongly_connected_components(ddg)
    component_of = {uid: idx for idx, comp in enumerate(components) for uid in comp}
    inner: List[List[Dependence]] = [[] for _ in components]
    for dep in ddg.edges():
        idx = component_of[dep.src]
        if component_of[dep.dst] == idx:
            inner[idx].append(dep)
    return [(comp, deps) for comp, deps in zip(components, inner) if deps]


def recurrence_mii(
    component: Sequence[int],
    deps: Sequence[Dependence],
    extra_edge_latency: Optional[Tuple[Dependence, int]] = None,
    lower_bound: int = 1,
) -> int:
    """Smallest ``II >= lower_bound`` with no positive cycle in one
    :func:`recurrences` entry, optionally with ``(dep, added)`` on ``dep``."""
    index = {uid: i for i, uid in enumerate(component)}
    target, added = extra_edge_latency or (None, 0)
    edges = [
        (index[dep.src], index[dep.dst],
         dep.latency + (added if dep is target else 0), dep.distance)
        for dep in deps
    ]
    n = len(component)
    if not _has_positive_cycle(n, edges, lower_bound):
        return lower_bound
    lo = lower_bound  # known infeasible
    hi = max(lower_bound + 1, sum(edge[2] for edge in edges))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_positive_cycle(n, edges, mid):
            lo = mid
        else:
            hi = mid
    return hi


def rec_mii(ddg: DataDependenceGraph) -> int:
    """Recurrence-constrained minimum initiation interval.

    The smallest ``II >= 1`` such that every dependence cycle ``c`` satisfies
    ``sum(latency) <= II * sum(distance)``: the maximum of
    :func:`recurrence_mii` over the graph's recurrences, so no explicit
    cycle enumeration is needed.

    The result is memoized per graph revision: the II search loop and
    every scheduler re-ask for the same bound.
    """
    cached = memo_get(_REC_MII_CACHE, ddg)
    if cached is not None:
        return cached
    ddg.validate()
    result = max(
        (recurrence_mii(comp, deps) for comp, deps in recurrences(ddg)),
        default=1,
    )
    _REC_MII_CACHE[ddg] = (ddg.revision, result)
    return result


# ----------------------------------------------------------------------
# Strongly connected components (Tarjan, iterative)
# ----------------------------------------------------------------------
def strongly_connected_components(ddg: DataDependenceGraph) -> List[List[int]]:
    """SCCs of the DDG (all edges, including loop-carried), deterministic.

    Returned as lists of uids; components and their members are sorted so
    repeated runs produce identical output.  Each node's successor list
    is fetched once, when the node is entered.
    """
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    components: List[List[int]] = []

    def enter(node: int) -> Tuple[int, List[int], int]:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, ddg.successors(node), 0

    for root in ddg.uids():
        if root in index:
            continue
        # Iterative Tarjan with an explicit work stack of
        # (node, its successors, next successor position).
        work: List[Tuple[int, List[int], int]] = [enter(root)]
        while work:
            node, succs, child_idx = work.pop()
            for i in range(child_idx, len(succs)):
                succ = succs[i]
                if succ not in index:
                    work.append((node, succs, i + 1))
                    work.append(enter(succ))
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            else:
                if lowlink[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    components.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sorted(components)


# ----------------------------------------------------------------------
# Longest-path (ASAP / ALAP / slack) analysis at a fixed II
# ----------------------------------------------------------------------
@dataclass
class LoopAnalysis:
    """Earliest/latest start times and slacks of a DDG at a fixed II.

    Holds no reference to the analysed graph: it is the value of the
    weak-keyed :data:`_ANALYZE_CACHE`, and a back-reference would keep
    that key (and every memo entry keyed on it) alive forever.

    Attributes:
        ii: The initiation interval the analysis assumes (must be >= RecMII).
        asap: Earliest start cycle of each uid.
        alap: Latest start cycle of each uid (for the same makespan).
        makespan: Length of the critical path, i.e. one iteration's span:
            ``max(asap[u] + latency(u))``.
    """

    ii: int
    asap: Dict[int, int]
    alap: Dict[int, int]
    makespan: int

    def mobility(self, uid: int) -> int:
        """Scheduling freedom of a node: ``alap - asap``."""
        return self.alap[uid] - self.asap[uid]

    def edge_slack(self, dep: Dependence) -> int:
        """Delay cycles addable to ``dep`` without stretching the makespan."""
        return self.alap[dep.dst] - self.asap[dep.src] - effective_length(dep, ii=self.ii)

    def depth(self, uid: int) -> int:
        """Longest effective path from any source to ``uid`` (= asap)."""
        return self.asap[uid]

    def height(self, uid: int) -> int:
        """Longest effective path from ``uid`` to any sink, inclusive."""
        return self.makespan - self.alap[uid]


def analyze(
    ddg: DataDependenceGraph,
    ii: int,
    extra_edge_latency: Optional[Tuple[Dependence, int]] = None,
) -> LoopAnalysis:
    """Compute ASAP/ALAP/makespan for ``ddg`` at interval ``ii``.

    Args:
        ddg: Graph to analyse.
        ii: Initiation interval; must be at least the graph's RecMII (with the
            extra latency applied, if any), otherwise GraphError is raised.
        extra_edge_latency: Optionally ``(dep, added)`` — analyse as if
            ``dep``'s latency were ``dep.latency + added``.  Used by the
            partitioner to price a bus delay on a single edge.

    Raises:
        GraphError: if the longest-path computation does not converge, i.e.
            ``ii`` is below the (possibly modified) recurrence bound.

    Plain analyses (no ``extra_edge_latency``) are memoized per (graph
    revision, II); the returned :class:`LoopAnalysis` is shared and must
    not be mutated.
    """
    per_ii: Optional[Dict[int, LoopAnalysis]] = None
    if extra_edge_latency is None:
        per_ii = memo_get(_ANALYZE_CACHE, ddg)
        if per_ii is not None and ii in per_ii:
            return per_ii[ii]

    target, added = extra_edge_latency or (None, 0)
    relax = [
        (dep.src, dep.dst,
         dep.latency + (added if dep is target else 0) - ii * dep.distance)
        for dep in ddg.edges()
    ]
    uids = ddg.uids()
    n = len(uids)
    ops = ddg.op_table

    # ASAP by Bellman-Ford longest path from a virtual source at cycle 0.
    asap = {uid: 0 for uid in uids}
    for iteration in range(n):
        changed = False
        for src, dst, length in relax:
            cand = asap[src] + length
            if cand > asap[dst]:
                asap[dst] = cand
                changed = True
        if not changed:
            break
    else:
        for src, dst, length in relax:
            if asap[src] + length > asap[dst]:
                raise GraphError(
                    f"analysis of {ddg.name!r} at II={ii} does not converge "
                    "(II below recurrence bound)"
                )

    makespan = max((asap[uid] + ops[uid].latency for uid in uids), default=0)

    # ALAP: longest path to the sink, computed on the reversed graph.
    tail = {
        uid: ops[uid].latency for uid in uids
    }  # longest path from uid to completion, >= its own latency
    for iteration in range(n):
        changed = False
        for src, dst, length in relax:
            cand = length + tail[dst]
            if cand > tail[src]:
                tail[src] = cand
                changed = True
        if not changed:
            break
    alap = {uid: makespan - tail[uid] for uid in uids}

    result = LoopAnalysis(ii=ii, asap=asap, alap=alap, makespan=makespan)
    if extra_edge_latency is None:
        if per_ii is None:
            per_ii = {}
            _ANALYZE_CACHE[ddg] = (ddg.revision, per_ii)
        per_ii[ii] = result
    return result


def max_edge_slack(ddg: DataDependenceGraph, analysis: LoopAnalysis) -> int:
    """The paper's ``maxsl``: maximum slack over all edges of ``ddg``.

    ``analysis`` must be an analysis of ``ddg``.
    """
    return max((analysis.edge_slack(dep) for dep in ddg.edges()), default=0)
