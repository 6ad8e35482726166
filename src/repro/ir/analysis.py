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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import GraphError
from .ddg import DataDependenceGraph, Dependence

#: Memoization of the II-parametric analyses.  Graphs are immutable once
#: built and the schedulers re-analyze the same graph at the same II for
#: every scheduling attempt and algorithm.  Weak keys let a graph and its
#: entries die with its loop only while no cached value references its
#: key graph (so :class:`LoopAnalysis` carries no ``ddg``);
#: ``tests/test_memo_lifetime.py`` checks that every memo keeps this rule.
_REC_MII_CACHE: "weakref.WeakKeyDictionary[DataDependenceGraph, int]" = (
    weakref.WeakKeyDictionary()
)
_ANALYZE_CACHE: "weakref.WeakKeyDictionary[DataDependenceGraph, Dict[int, LoopAnalysis]]" = (
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
    edge of a graph with ``n`` operations, in edge order.
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


def rec_mii(ddg: DataDependenceGraph) -> int:
    """Recurrence-constrained minimum initiation interval.

    The smallest ``II >= 1`` such that every dependence cycle ``c`` satisfies
    ``sum(latency) <= II * sum(distance)``.  Found by binary search with a
    Bellman-Ford positive-cycle test, so no explicit cycle enumeration is
    needed.

    The result is memoized per graph (graphs are immutable once built):
    the II search loop and every scheduler re-ask for the same bound.
    """
    cached = _REC_MII_CACHE.get(ddg)
    if cached is not None:
        return cached
    ddg.validate()
    if ddg.num_operations == 0:
        result = 1
    else:
        n = ddg.num_operations
        index = {uid: i for i, uid in enumerate(ddg.uids())}
        edges = [
            (index[dep.src], index[dep.dst], dep.latency, dep.distance)
            for dep in ddg.edges()
        ]
        hi = max(1, sum(dep.latency for dep in ddg.edges()))
        if not _has_positive_cycle(n, edges, 1):
            result = 1
        else:
            lo = 1  # known infeasible
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _has_positive_cycle(n, edges, mid):
                    lo = mid
                else:
                    hi = mid
            result = hi
    _REC_MII_CACHE[ddg] = result
    return result


# ----------------------------------------------------------------------
# Strongly connected components (Tarjan, iterative)
# ----------------------------------------------------------------------
def strongly_connected_components(ddg: DataDependenceGraph) -> List[List[int]]:
    """SCCs of the DDG (all edges, including loop-carried), deterministic.

    Returned as lists of uids; components and their members are sorted so
    repeated runs produce identical output.
    """
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    counter = [0]
    components: List[List[int]] = []

    for root in ddg.uids():
        if root in index:
            continue
        # Iterative Tarjan with an explicit work stack of (node, succ-iter).
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = counter[0]
                lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            succs = ddg.successors(node)
            for i in range(child_idx, len(succs)):
                succ = succs[i]
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if on_stack.get(succ, False):
                    lowlink[node] = min(lowlink[node], index[succ])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
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

    Plain analyses (no ``extra_edge_latency``) are memoized per (graph, II);
    the returned :class:`LoopAnalysis` is shared and must not be mutated.
    """
    if extra_edge_latency is None:
        per_ii = _ANALYZE_CACHE.get(ddg)
        if per_ii is not None and ii in per_ii:
            return per_ii[ii]

    def length(dep: Dependence) -> int:
        lat = dep.latency
        if extra_edge_latency is not None and dep is extra_edge_latency[0]:
            lat += extra_edge_latency[1]
        return lat - ii * dep.distance

    uids = ddg.uids()
    edges = list(ddg.edges())
    n = len(uids)

    # ASAP by Bellman-Ford longest path from a virtual source at cycle 0.
    asap = {uid: 0 for uid in uids}
    for iteration in range(n):
        changed = False
        for dep in edges:
            cand = asap[dep.src] + length(dep)
            if cand > asap[dep.dst]:
                asap[dep.dst] = cand
                changed = True
        if not changed:
            break
    else:
        for dep in edges:
            if asap[dep.src] + length(dep) > asap[dep.dst]:
                raise GraphError(
                    f"analysis of {ddg.name!r} at II={ii} does not converge "
                    "(II below recurrence bound)"
                )

    makespan = max(
        (asap[uid] + ddg.operation(uid).latency for uid in uids), default=0
    )

    # ALAP: longest path to the sink, computed on the reversed graph.
    tail = {
        uid: ddg.operation(uid).latency for uid in uids
    }  # longest path from uid to completion, >= its own latency
    for iteration in range(n):
        changed = False
        for dep in edges:
            cand = length(dep) + tail[dep.dst]
            if cand > tail[dep.src]:
                tail[dep.src] = cand
                changed = True
        if not changed:
            break
    alap = {uid: makespan - tail[uid] for uid in uids}

    result = LoopAnalysis(ii=ii, asap=asap, alap=alap, makespan=makespan)
    if extra_edge_latency is None:
        _ANALYZE_CACHE.setdefault(ddg, {})[ii] = result
    return result


def max_edge_slack(ddg: DataDependenceGraph, analysis: LoopAnalysis) -> int:
    """The paper's ``maxsl``: maximum slack over all edges of ``ddg``.

    ``analysis`` must be an analysis of ``ddg``.
    """
    return max((analysis.edge_slack(dep) for dep in ddg.edges()), default=0)
