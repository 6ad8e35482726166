"""Edge weights for the coarsening matching (paper §3.2.1).

The weight of a dependence edge encodes how expensive it would be to cut it
(i.e. to place its endpoints in different clusters, forcing the value across
the inter-cluster bus):

* ``delay(e)`` — the increase in the loop's total execution time caused by
  adding a bus latency to the edge::

      delay(e) = (niter - 1) * (II_e - II) + new_max_path - max_path

  where ``II_e`` is the initiation interval required once the edge carries
  the extra latency (it grows only when the edge belongs to a recurrence)
  and ``new_max_path`` / ``max_path`` are the critical-path lengths with and
  without the extra latency.

* ``slack(e)`` — delay cycles the edge can absorb without stretching the
  critical path; low-slack edges are worse cut candidates.

The two factors combine lexicographically (any difference in ``delay``
dominates any difference in slack), plus one so no edge weighs zero::

    weight(e) = delay(e) * (maxsl + 1) + maxsl - slack(e) + 1

For edges outside every recurrence, ``new_max_path`` is computed in O(1)
from the base analysis (longest path through the edge plus the extra
latency); only edges inside a recurrence need a full re-analysis, and
their ``II_e`` probes only that recurrence
(:func:`~repro.ir.analysis.recurrence_mii`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..ir.analysis import (
    LoopAnalysis,
    analyze,
    effective_length,
    max_edge_slack,
    recurrence_mii,
    recurrences,
)
from ..ir.ddg import DataDependenceGraph, Dependence
from ..ir.loop import Loop


@dataclass
class EdgeWeighting:
    """Weights of every edge of a loop at a given initiation interval.

    Attributes:
        loop: The weighted loop.
        ii: Initiation interval assumed by the weighting.
        bus_latency: Delay added to a cut edge.
        analysis: Base schedule analysis at ``ii``.
        max_slack: The paper's ``maxsl``.
        delays: ``delay(e)`` per edge (keyed by edge identity order).
        weights: Final combined weight per edge.
    """

    loop: Loop
    ii: int
    bus_latency: int
    analysis: LoopAnalysis
    max_slack: int
    delays: Dict[int, int]
    weights: Dict[int, int]
    _edges: List[Dependence]

    def edge_list(self) -> List[Dependence]:
        """Edges in a stable order, aligned with weight indices."""
        return list(self._edges)

    def weight_of(self, index: int) -> int:
        """Weight of the edge at ``index`` in :meth:`edge_list` order."""
        return self.weights[index]

    def delay_of(self, index: int) -> int:
        return self.delays[index]


def compute_edge_weights(loop: Loop, ii: int, bus_latency: int) -> EdgeWeighting:
    """Weigh every edge of ``loop`` per the §3.2.1 formula.

    Args:
        loop: Loop whose DDG is to be weighted.
        ii: The initiation interval the partition is being computed for
            (the paper feeds MII on the first call and the bumped II on
            recomputations).  Must be >= the graph's RecMII.
        bus_latency: The machine's inter-cluster bus latency.
    """
    ddg = loop.ddg
    analysis = analyze(ddg, ii)
    maxsl = max(0, max_edge_slack(ddg, analysis))
    niter = loop.trip_count

    # Only an edge inside a recurrence can raise RecMII, and only its own
    # recurrence's: ``ii`` is at least every other recurrence's RecMII.
    recurrence_of = {uid: rec for rec in recurrences(ddg) for uid in rec[0]}

    tail = {uid: analysis.makespan - analysis.alap[uid] for uid in ddg.uids()}
    edges = list(ddg.edges())
    delays: Dict[int, int] = {}
    weights: Dict[int, int] = {}

    for index, dep in enumerate(edges):
        recurrence = recurrence_of.get(dep.src)
        if recurrence is not None and recurrence is recurrence_of.get(dep.dst):
            ii_e = recurrence_mii(
                *recurrence, extra_edge_latency=(dep, bus_latency), lower_bound=ii
            )
            new_analysis = analyze(
                ddg, ii_e, extra_edge_latency=(dep, bus_latency)
            )
            new_max_path = new_analysis.makespan
        else:
            ii_e = ii
            through = (
                analysis.asap[dep.src]
                + effective_length(dep, ii)
                + bus_latency
                + tail[dep.dst]
            )
            new_max_path = max(analysis.makespan, through)
        delay = (niter - 1) * (ii_e - ii) + new_max_path - analysis.makespan
        slack = max(0, min(maxsl, analysis.edge_slack(dep)))
        delays[index] = delay
        weights[index] = delay * (maxsl + 1) + maxsl - slack + 1

    return EdgeWeighting(
        loop=loop,
        ii=ii,
        bus_latency=bus_latency,
        analysis=analysis,
        max_slack=maxsl,
        delays=delays,
        weights=weights,
        _edges=edges,
    )
