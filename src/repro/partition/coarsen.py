"""Multilevel coarsening of the data dependence graph (paper §3.2.1).

Starting from the finest level (one group per operation), each step computes
a maximum-weight matching of the current *coarse graph* — whose nodes are
groups of original operations and whose edge weights are the summed weights
of the original dependences between two groups — and fuses every matched
pair into a single coarser group.  Nodes joined by heavy edges (expensive to
cut) are therefore fused early and can never be separated by the initial
assignment, only by later refinement.

Coarsening stops when the graph has exactly as many nodes as the machine has
clusters, or when no further matching is possible (disconnected remainder).
If a matching would overshoot below the target, only its heaviest pairs are
applied.

The hierarchy also records how each level was built — which pairs of the
finer level it fuses, and a rank per group that orders the groups of every
level they appear on as their group ids do — so refinement can walk back
down it by splitting only the fused groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Set, Tuple

from .matching import Edge, greedy_matching
from .weights import EdgeWeighting

#: One level of the hierarchy: group id -> sorted tuple of original uids.
Level = Dict[int, Tuple[int, ...]]

#: A group's rank: (-level it was formed on, its group id on that level).
Rank = Tuple[int, int]


@dataclass
class Hierarchy:
    """The coarsening hierarchy of one loop.

    Attributes:
        levels: ``levels[0]`` is the finest level (a singleton group per
            operation); ``levels[-1]`` is the coarsest.
        weighting: The edge weighting the matchings used.
        fused: ``fused[k]`` (``k >= 1``) lists the pairs of level ``k - 1``
            group ids fused into group ids ``0, 1, ...`` of level ``k``; the
            other groups of level ``k`` are those of level ``k - 1``, in
            order.  ``fused[0]`` is empty.
        ranks: ``ranks[k][gid]`` is the rank of group ``gid`` of level
            ``k``.  A group keeps its rank on every level it survives to,
            and on each such level ranks sort like group ids: fused groups
            come first, then the survivors in their previous order.
    """

    levels: List[Level]
    weighting: EdgeWeighting
    fused: List[Tuple[Tuple[int, int], ...]]
    ranks: List[List[Rank]]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def coarsest(self) -> Level:
        return self.levels[-1]

    def group_of_map(self, level_index: int) -> Dict[int, int]:
        """Map original uid -> group id at the given level."""
        out: Dict[int, int] = {}
        for gid, uids in self.levels[level_index].items():
            for uid in uids:
                out[uid] = gid
        return out


def _coarse_edges(
    weighting: EdgeWeighting, group_of: Dict[int, int]
) -> List[Edge]:
    """Weighted edges of the coarse graph induced by ``group_of``."""
    combined: Dict[Tuple[int, int], float] = {}
    for index, dep in enumerate(weighting.edge_list()):
        gu, gv = group_of[dep.src], group_of[dep.dst]
        if gu == gv:
            continue
        key = (gu, gv) if gu < gv else (gv, gu)
        combined[key] = combined.get(key, 0.0) + weighting.weight_of(index)
    return [(u, v, w) for (u, v), w in combined.items()]


def _trim_matching(
    matching: Set[Tuple[Hashable, Hashable]],
    edges: List[Edge],
    max_pairs: int,
) -> Set[Tuple[Hashable, Hashable]]:
    """Keep only the ``max_pairs`` heaviest pairs of ``matching``."""
    if len(matching) <= max_pairs:
        return matching
    weight_of: Dict[Tuple[Hashable, Hashable], float] = {}
    for u, v, w in edges:
        weight_of[(u, v)] = w
        weight_of[(v, u)] = w
    ranked = sorted(
        matching, key=lambda pair: (-weight_of.get(pair, 0.0), repr(pair))
    )
    return set(ranked[:max_pairs])


def build_hierarchy(
    weighting: EdgeWeighting,
    num_clusters: int,
    matcher: Callable[[Iterable[Edge]], Set[Tuple[Hashable, Hashable]]] = greedy_matching,
) -> Hierarchy:
    """Coarsen the weighted loop graph down to ``num_clusters`` groups.

    Args:
        weighting: Edge weights computed by
            :func:`repro.partition.weights.compute_edge_weights`.
        num_clusters: Target number of coarse nodes (the machine's cluster
            count).
        matcher: Matching routine (greedy by default, exact for LEDA
            fidelity).
    """
    ddg = weighting.loop.ddg
    finest: Level = {i: (uid,) for i, uid in enumerate(ddg.uids())}
    levels: List[Level] = [finest]
    fused: List[Tuple[Tuple[int, int], ...]] = [()]
    ranks: List[List[Rank]] = [[(0, gid) for gid in finest]]

    while len(levels[-1]) > num_clusters:
        current = levels[-1]
        group_of: Dict[int, int] = {}
        for gid, uids in current.items():
            for uid in uids:
                group_of[uid] = gid
        edges = _coarse_edges(weighting, group_of)
        if not edges:
            break
        matching = matcher(edges)
        if not matching:
            break
        matching = _trim_matching(
            matching, edges, max_pairs=len(current) - num_clusters
        )
        if not matching:
            break

        fused_into: Dict[int, int] = {}
        next_level: Level = {}
        pairs: List[Tuple[int, int]] = []
        depth = len(levels)
        next_ranks: List[Rank] = []
        next_gid = 0
        for u, v in sorted(matching, key=lambda p: (min(p), max(p))):
            u, v = min(u, v), max(u, v)
            merged = tuple(sorted(current[u] + current[v]))
            next_level[next_gid] = merged
            pairs.append((u, v))
            next_ranks.append((-depth, next_gid))
            fused_into[u] = next_gid
            fused_into[v] = next_gid
            next_gid += 1
        current_ranks = ranks[-1]
        for gid in sorted(current):
            if gid not in fused_into:
                next_level[next_gid] = current[gid]
                next_ranks.append(current_ranks[gid])
                next_gid += 1
        levels.append(next_level)
        fused.append(tuple(pairs))
        ranks.append(next_ranks)

    return Hierarchy(levels=levels, weighting=weighting, fused=fused, ranks=ranks)
