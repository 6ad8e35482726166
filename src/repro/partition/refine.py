"""Partition refinement (paper §3.2.2).

At every level of the hierarchy, from coarsest to finest, two heuristics
improve the partition induced by the coarser level:

1. **Workload balancing** — while any (functional unit class, cluster) is
   overloaded (more operations than ``units x II`` slots), move a coarse
   node using that resource to a cluster where it fits, treating resources
   from most to least saturated and never re-overloading a more critical
   resource already fixed.
2. **Cut-impact minimization** — repeatedly consider moving every boundary
   node to a neighbouring cluster (or, when the destination lacks room,
   exchanging it with a node of the destination), price each candidate with
   the :class:`~repro.partition.estimator.PartitionEstimator`, and apply the
   best one.  Ties are broken first by the total slack of the remaining cut
   edges (maximize), then by the number of cut edges (minimize), exactly as
   in the paper.  A candidate is applied only if it strictly improves the
   ``(exec_time, -cut_slack, cut_edges)`` tuple, which guarantees
   termination.

The candidate evaluation loop is the partitioner's hot path; cluster loads
are maintained incrementally and candidates are priced through
mutation-free previews of a delta-maintained communication session.  Most
candidates are rejected by exact bound prunes against the incumbent score
before a preview is built, or before its critical path is computed.  An
estimator without previews is priced by mutating the assignment in place
(and restoring it) around each trial estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig
from .coarsen import Level
from .estimator import PartitionEstimator

#: Assignment of hierarchy groups to clusters.
GroupAssignment = Dict[int, int]

_CLASSES = list(OpClass)
#: Class index used for the compact per-cluster/per-group count arrays.
_CLASS_INDEX = {cls: i for i, cls in enumerate(_CLASSES)}
_N_CLASSES = len(_CLASSES)
#: Sort key preserving the paper-order tie-break (the class *name*).
_CLASS_SORT_KEY = [cls.value for cls in _CLASSES]


@dataclass(frozen=True)
class _Candidate:
    """A refinement transformation: move one group, optionally swap two."""

    group: int
    to_cluster: int
    swap_with: Optional[int] = None  # group currently in ``to_cluster``


class Refiner:
    """Refines group-to-cluster assignments at one hierarchy level."""

    def __init__(
        self,
        estimator: PartitionEstimator,
        machine: MachineConfig,
        max_rounds: int = 64,
        max_swaps_per_group: int = 6,
    ) -> None:
        self.estimator = estimator
        self.machine = machine
        self.max_rounds = max_rounds
        self.max_swaps_per_group = max_swaps_per_group
        self._ddg = estimator.loop.ddg
        self._capacity = self._capacity_at(estimator.ii)
        #: uid -> class index, shared by every level's group counts.
        self._class_of = {
            uid: _CLASS_INDEX[self._ddg.operation(uid).op_class]
            for uid in self._ddg.uids()
        }

    def _capacity_at(self, ii: int) -> List[List[int]]:
        """capacity[cluster][class index] — issue slots at this II."""
        return [
            [
                self.machine.cluster(c).units_for_class(cls) * ii
                for cls in _CLASSES
            ]
            for c in range(self.machine.num_clusters)
        ]

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _uid_assignment(self, level: Level, groups: GroupAssignment) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for gid, uids in level.items():
            cluster = groups[gid]
            for uid in uids:
                out[uid] = cluster
        return out

    def _class_counts(self, level: Level) -> Dict[int, List[int]]:
        """Operations of each class (by class index) inside each group."""
        counts: Dict[int, List[int]] = {}
        class_of = self._class_of
        for gid, uids in level.items():
            per = [0] * _N_CLASSES
            for uid in uids:
                per[class_of[uid]] += 1
            counts[gid] = per
        return counts

    def _cluster_loads(
        self, level: Level, groups: GroupAssignment, class_counts
    ) -> List[List[int]]:
        loads: List[List[int]] = [
            [0] * _N_CLASSES for _ in range(self.machine.num_clusters)
        ]
        for gid in level:
            row = loads[groups[gid]]
            for idx, count in enumerate(class_counts[gid]):
                row[idx] += count
        return loads

    # ------------------------------------------------------------------
    # Heuristic 1: workload balancing
    # ------------------------------------------------------------------
    def balance_workload(
        self, level: Level, groups: GroupAssignment,
        class_counts: Optional[Dict[int, List[int]]] = None,
    ) -> GroupAssignment:
        """Remove resource overloads by moving groups (first-fit)."""
        groups = dict(groups)
        if class_counts is None:
            class_counts = self._class_counts(level)
        for _ in range(self.max_rounds):
            loads = self._cluster_loads(level, groups, class_counts)
            overloaded = [
                (cluster, idx, loads[cluster][idx] / max(1, self._capacity[cluster][idx]))
                for cluster in range(self.machine.num_clusters)
                for idx in range(_N_CLASSES)
                if loads[cluster][idx] > self._capacity[cluster][idx]
            ]
            if not overloaded:
                return groups
            overloaded.sort(
                key=lambda item: (-item[2], item[0], _CLASS_SORT_KEY[item[1]])
            )
            if not self._balance_step(level, groups, class_counts, loads, overloaded):
                return groups
        return groups

    def _balance_step(
        self, level, groups, class_counts, loads, overloaded
    ) -> bool:
        """Apply one balancing move; returns False if none is possible."""
        criticality_order = [(cl, idx) for cl, idx, _sat in overloaded]
        for rank, (cluster, idx, _sat) in enumerate(overloaded):
            movable = sorted(
                (
                    gid
                    for gid in level
                    if groups[gid] == cluster and class_counts[gid][idx] > 0
                ),
                key=lambda gid: (-class_counts[gid][idx], gid),
            )
            protected = {i for (_cl, i) in criticality_order[: rank + 1]}
            targets = sorted(
                (c for c in range(self.machine.num_clusters) if c != cluster),
                key=lambda c: (loads[c][idx], c),
            )
            for gid in movable:
                for target in targets:
                    if self._fits_after_add(
                        loads, class_counts[gid], target, protected
                    ):
                        groups[gid] = target
                        return True
        return False

    def _fits_after_add(self, loads, group_counts, target, class_indices) -> bool:
        for idx in class_indices:
            if loads[target][idx] + group_counts[idx] > self._capacity[target][idx]:
                return False
        return True

    # ------------------------------------------------------------------
    # Heuristic 2: cut-impact minimization
    # ------------------------------------------------------------------
    def _score(
        self,
        assignment: Dict[int, int],
        bound: Optional[int] = None,
        loads: Optional[List[List[int]]] = None,
        comm=None,
    ) -> Optional[Tuple[int, int, int]]:
        """Lexicographic objective: (exec time, -cut slack, cut edges).

        With ``bound``, returns None when the estimator proves the exec
        time strictly exceeds it (the candidate cannot win).  ``loads`` —
        the incrementally maintained cluster/class counts — and ``comm`` —
        the delta-maintained communication session — spare the estimator
        its own per-candidate sweeps.
        """
        est = self.estimator.estimate(
            assignment, bound=bound, cluster_class_counts=loads, comm_state=comm
        )
        if est is None:
            return None
        return (est.exec_time, -est.cut_slack, est.cut_edges)

    def _move_fits(self, loads, class_counts, gid, source, target) -> bool:
        target_loads = loads[target]
        cap = self._capacity[target]
        for idx, count in enumerate(class_counts[gid]):
            if count and target_loads[idx] + count > cap[idx]:
                return False
        return True

    def _swap_fits(self, loads, class_counts, gid, other, cl_g, cl_o) -> bool:
        counts_g = class_counts[gid]
        counts_o = class_counts[other]
        loads_g = loads[cl_g]
        loads_o = loads[cl_o]
        cap_g = self._capacity[cl_g]
        cap_o = self._capacity[cl_o]
        for idx in range(_N_CLASSES):
            delta_g = counts_g[idx]
            delta_o = counts_o[idx]
            if loads_o[idx] - delta_o + delta_g > cap_o[idx]:
                return False
            if loads_g[idx] - delta_g + delta_o > cap_g[idx]:
                return False
        return True

    def _boundary_candidates(
        self, level: Level, groups: GroupAssignment, class_counts, loads,
        group_pairs: List[Tuple[int, int]],
        sorted_gids: List[int], gids_by_size: List[int],
    ) -> List[_Candidate]:
        """Moves of boundary groups plus fallback swaps (paper §3.2.2).

        ``group_pairs`` is the deduplicated cross-group edge list of this
        level and ``sorted_gids``/``gids_by_size`` its fixed orderings, so
        each round only scans group pairs instead of every DDG edge and
        never re-sorts.
        """
        neighbour_clusters: Dict[int, Set[int]] = {gid: set() for gid in level}
        for gu, gv in group_pairs:
            cu, cv = groups[gu], groups[gv]
            if cu != cv:
                neighbour_clusters[gu].add(cv)
                neighbour_clusters[gv].add(cu)
        # Swap partners: the smallest groups of each cluster, in size order.
        partners: List[List[int]] = [[] for _ in range(self.machine.num_clusters)]
        for other in gids_by_size:
            partners[groups[other]].append(other)
        for row in partners:
            del row[self.max_swaps_per_group:]

        candidates: List[_Candidate] = []
        for gid in sorted_gids:
            neighbours = neighbour_clusters[gid]
            if not neighbours:
                continue
            source = groups[gid]
            for target in sorted(neighbours):
                if self._move_fits(loads, class_counts, gid, source, target):
                    candidates.append(_Candidate(gid, target))
                    continue
                for other in partners[target]:
                    if self._swap_fits(
                        loads, class_counts, gid, other, source, target
                    ):
                        candidates.append(_Candidate(gid, target, swap_with=other))
        return candidates

    def minimize_cut_impact(
        self, level: Level, groups: GroupAssignment,
        class_counts: Optional[Dict[int, List[int]]] = None,
    ) -> GroupAssignment:
        """Apply best-improvement moves/swaps until no candidate helps."""
        groups = dict(groups)
        if class_counts is None:
            class_counts = self._class_counts(level)
        group_of: Dict[int, int] = {}
        for gid, uids in level.items():
            for uid in uids:
                group_of[uid] = gid
        group_pairs = sorted(
            {
                (group_of[dep.src], group_of[dep.dst])
                for dep in self._ddg.edges()
                if group_of[dep.src] != group_of[dep.dst]
            }
        )
        assignment = self._uid_assignment(level, groups)
        loads = self._cluster_loads(level, groups, class_counts)
        comm = self.estimator.comm_session(assignment)
        # Per-group constants of this level: incident carry-edge records for
        # the delta updates, member index sets for the transfer-count
        # check, and the candidate/swap orderings.
        group_records = {gid: comm.records_for(uids) for gid, uids in level.items()}
        group_members = {gid: comm.index_set(uids) for gid, uids in level.items()}
        sorted_gids = sorted(level)
        gids_by_size = sorted(level, key=lambda g: (len(level[g]), g))
        current = self._score(assignment, loads=loads, comm=comm)

        def apply_candidate(cand: _Candidate) -> Tuple[int, ...]:
            """Apply in place; returns the inverse recipe (moves to undo)."""
            src_g = groups[cand.group]
            if cand.swap_with is None:
                self._apply_move(
                    level, class_counts, cand.group, src_g, cand.to_cluster,
                    groups, assignment, loads, comm, group_records,
                )
                return (cand.group, src_g)
            src_o = groups[cand.swap_with]
            self._apply_move(
                level, class_counts, cand.group, src_g, src_o,
                groups, assignment, loads, comm, group_records,
            )
            self._apply_move(
                level, class_counts, cand.swap_with, src_o, src_g,
                groups, assignment, loads, comm, group_records,
            )
            return (cand.group, src_g, cand.swap_with, src_o)

        def undo(recipe: Tuple[int, ...]) -> None:
            for i in range(0, len(recipe), 2):
                gid, original = recipe[i], recipe[i + 1]
                self._apply_move(
                    level, class_counts, gid, groups[gid], original,
                    groups, assignment, loads, comm, group_records,
                )

        use_preview = getattr(self.estimator, "supports_preview", False)
        # exec-time bound -> estimator.max_ncomm(bound)
        ncomm_caps: Dict[int, float] = {}

        def preview_score(cand: _Candidate, incumbent: Tuple[int, int, int]):
            """Score a candidate without mutating any state.

            Returns None when the candidate provably cannot beat
            ``incumbent``: first from its transfer count alone, then from
            the estimator's tie-aware bound prunes.
            """
            gid, target, other = cand.group, cand.to_cluster, cand.swap_with
            src_g = groups[gid]
            index_moves = [(group_members[gid], group_records[gid], target)]
            if other is not None:
                index_moves.append(
                    (group_members[other], group_records[other], src_g)
                )
            cap = ncomm_caps.get(incumbent[0])
            if cap is None:
                cap = ncomm_caps[incumbent[0]] = self.estimator.max_ncomm(
                    incumbent[0]
                )
            if comm.preview_ncomm(index_moves) > cap:
                return None
            moves = [(level[gid], group_records[gid], target)]
            deltas = [(gid, src_g, target)]
            if other is not None:
                moves.append((level[other], group_records[other], src_g))
                deltas.append((other, groups[other], src_g))
            loads_preview = [row[:] for row in loads]
            for moved, source, dest in deltas:
                source_row = loads_preview[source]
                target_row = loads_preview[dest]
                for idx, count in enumerate(class_counts[moved]):
                    if count:
                        source_row[idx] -= count
                        target_row[idx] += count
            est = self.estimator.estimate_preview(
                comm.preview_moves(moves),
                cluster_class_counts=loads_preview,
                incumbent=incumbent,
            )
            if est is None:
                return None
            return (est.exec_time, -est.cut_slack, est.cut_edges)

        for _ in range(self.max_rounds):
            candidates = self._boundary_candidates(
                level, groups, class_counts, loads, group_pairs,
                sorted_gids, gids_by_size,
            )
            best: Optional[Tuple[Tuple[int, int, int], _Candidate]] = None
            for cand in candidates:
                # A winner must beat both the incumbent partition and the
                # best candidate so far (best[0] < current once any
                # candidate won), so the lower of the two is an exact prune
                # bound.
                incumbent = best[0] if best is not None else current
                if use_preview:
                    score = preview_score(cand, incumbent)
                else:
                    # apply_candidate keeps the comm session in sync, so the
                    # trial estimate can use it instead of a full re-sweep.
                    recipe = apply_candidate(cand)
                    score = self._score(
                        assignment, bound=incumbent[0], loads=loads, comm=comm
                    )
                    undo(recipe)
                if score is None:
                    continue
                if score < current and (best is None or score < best[0]):
                    best = (score, cand)
            if best is None:
                return groups
            current, chosen = best
            apply_candidate(chosen)
        return groups

    def _apply_move(
        self, level, class_counts, gid, source, target,
        groups, assignment, loads, comm=None, group_records=None,
    ) -> None:
        groups[gid] = target
        for uid in level[gid]:
            assignment[uid] = target
        source_loads = loads[source]
        target_loads = loads[target]
        for idx, count in enumerate(class_counts[gid]):
            if count:
                source_loads[idx] -= count
                target_loads[idx] += count
        if comm is not None:
            records = group_records[gid] if group_records is not None else None
            comm.move_uids(level[gid], target, records)

    # ------------------------------------------------------------------
    def refine(self, level: Level, groups: GroupAssignment) -> GroupAssignment:
        """Balance workload, then minimize cut impact, at this level."""
        class_counts = self._class_counts(level)
        groups = self.balance_workload(level, groups, class_counts)
        return self.minimize_cut_impact(level, groups, class_counts)
