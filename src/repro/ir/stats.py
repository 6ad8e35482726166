"""Descriptive statistics of loop dependence graphs.

Used to characterize workloads (the suite documentation and the examples
print these) and to sanity-check that generated loops exhibit the intended
shape — operation mix, parallelism profile, recurrence census.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .analysis import analyze, rec_mii, recurrences
from .loop import Loop


@dataclass(frozen=True)
class GraphStats:
    """Shape summary of one loop body.

    Attributes:
        operations: Total operation count.
        by_class: Operations per functional-unit class value.
        edges: Dependence edge count (all kinds).
        loop_carried_edges: Edges with distance >= 1.
        critical_path: Longest latency-weighted path (at II = RecMII).
        rec_mii: Recurrence-constrained minimum initiation interval.
        recurrences: Non-trivial SCC count (self-loops included).
        max_width: Peak number of operations sharing an ASAP level —
            an optimistic parallelism measure.
        avg_fan_out: Mean DATA out-degree of value-producing operations.
        store_fraction: Stores over all memory operations.
    """

    operations: int
    by_class: Dict[str, int]
    edges: int
    loop_carried_edges: int
    critical_path: int
    rec_mii: int
    recurrences: int
    max_width: int
    avg_fan_out: float
    store_fraction: float

    def parallelism(self) -> float:
        """Operations per critical-path cycle — an ILP upper bound."""
        if self.critical_path <= 0:
            return float(self.operations)
        return self.operations / self.critical_path


def graph_stats(loop: Loop) -> GraphStats:
    """Compute :class:`GraphStats` for one loop."""
    ddg = loop.ddg
    bound = rec_mii(ddg)
    analysis = analyze(ddg, bound)

    levels: Dict[int, int] = {}
    for uid in ddg.uids():
        level = analysis.asap[uid]
        levels[level] = levels.get(level, 0) + 1

    producers = [
        op for op in ddg.operations() if not op.is_store
    ]
    fan_outs: List[int] = [
        len(ddg.consumers_of_value(op.uid)) for op in producers
    ]

    mem_ops = [op for op in ddg.operations() if op.is_memory]
    stores = [op for op in mem_ops if op.is_store]

    return GraphStats(
        operations=ddg.num_operations,
        by_class=ddg.count_by_class(),
        edges=ddg.num_edges,
        loop_carried_edges=sum(1 for d in ddg.edges() if d.distance),
        critical_path=analysis.makespan,
        rec_mii=bound,
        recurrences=len(recurrences(ddg)),
        max_width=max(levels.values(), default=0),
        avg_fan_out=(sum(fan_outs) / len(fan_outs)) if fan_outs else 0.0,
        store_fraction=(len(stores) / len(mem_ops)) if mem_ops else 0.0,
    )


def describe(loop: Loop) -> str:
    """One-paragraph human-readable summary of a loop's shape."""
    stats = graph_stats(loop)
    classes = ", ".join(f"{k}={v}" for k, v in sorted(stats.by_class.items()))
    return (
        f"{loop.name}: {stats.operations} ops ({classes}), "
        f"{stats.edges} edges ({stats.loop_carried_edges} carried), "
        f"critical path {stats.critical_path}, RecMII {stats.rec_mii}, "
        f"{stats.recurrences} recurrence(s), width {stats.max_width}, "
        f"ILP bound {stats.parallelism():.1f}, trip count {loop.trip_count}"
    )
