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

The candidate evaluation loop is the partitioner's hot path.  One
:class:`RefinementSession` per :meth:`MultilevelPartitioner.partition`
call keeps the uid-level state — cluster loads, the delta-maintained
communication session, per-group constants and a table of per-move
transfer-count deltas — across every level and round, since projecting
to a finer level moves no operation.  Candidates are priced through
mutation-free previews; most are rejected by exact bound prunes against
the incumbent score, the first of which (the transfer count) is read from
the delta table during enumeration, so rejected candidates are never
materialized.  An estimator without previews is priced by mutating the
assignment in place (and restoring it) around each trial estimate, the
from-scratch reference of the preview path.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig
from .coarsen import Level
from .estimator import PartitionEstimate, PartitionEstimator

#: Assignment of hierarchy groups to clusters.
GroupAssignment = Dict[int, int]

_CLASSES = list(OpClass)
#: Class index used for the compact per-cluster/per-group count arrays.
_CLASS_INDEX = {cls: i for i, cls in enumerate(_CLASSES)}
_N_CLASSES = len(_CLASSES)
#: Sort key preserving the paper-order tie-break (the class *name*).
_CLASS_SORT_KEY = [cls.value for cls in _CLASSES]

Score = Tuple[int, int, int]


def _objective(est: PartitionEstimate) -> Score:
    """The refinement objective of an estimate (lexicographic, minimized)."""
    return (est.exec_time, -est.cut_slack, est.cut_edges)


#: A refinement transformation: (group, target cluster, swap partner).
#: The partner, when there is one, is a group of the target cluster that
#: moves to the group's cluster in exchange.
Move = Tuple[int, int, Optional[int]]


class _Group:
    """Constants of one hierarchy group, plus its transfer-delta entries.

    A group that survives coarsening unchanged has the same uid tuple at
    every level it appears on, so the session derives it once.
    """

    __slots__ = ("uids", "members", "records", "counts", "deltas", "_keys")

    def __init__(self, uids: Tuple[int, ...], comm, class_of) -> None:
        self.uids = uids
        #: uid indices, as :meth:`CommState.preview_ncomm` takes them.
        self.members = comm.index_set(uids)
        #: Incident carry-edge records, for the delta updates.
        self.records = comm.records_for(uids)
        counts = [0] * _N_CLASSES
        for uid in uids:
            counts[class_of[uid]] += 1
        #: Operations of each class (by class index) inside the group.
        self.counts = counts
        #: target cluster -> transfer-count change of moving the group
        #: there; dropped whenever a uid of its D(G) moves.
        self.deltas: Dict[int, int] = {}
        self._keys: Optional[Tuple[FrozenSet[int], FrozenSet[int]]] = None

    def independent_of(self, other: "_Group") -> bool:
        """Whether the two groups share no carry edge and no producer.

        Such groups touch disjoint transfer pairs, so the transfer-count
        change of moving both is the sum of the two single moves'.
        """
        mine = self._keys
        if mine is None:
            mine = self._keys = self._edges_and_producers()
        theirs = other._keys
        if theirs is None:
            theirs = other._keys = other._edges_and_producers()
        return mine[0].isdisjoint(theirs[0]) and mine[1].isdisjoint(theirs[1])

    def _edges_and_producers(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        records = self.records
        return (
            frozenset([record[0] for record in records]),
            frozenset([record[1] for record in records]),
        )


class RefinementSession:
    """The refiner's state for one partition, across all hierarchy levels.

    Everything here is a function of the uid-level assignment, which
    projecting to a finer level leaves unchanged: the uid assignment, the
    per-cluster class loads, the estimator's delta-maintained
    :class:`~repro.partition.estimator.CommState` and the last computed
    score.  Per-group constants are keyed by the group's uid tuple.
    :meth:`enter` switches to a level, moving any operation whose cluster
    the caller's group assignment disagrees with.

    The transfer-delta table holds, per (group, target cluster), the
    change of the transfer count that moving the group there would cause.
    That change reads only the clusters of D(G) (see
    :meth:`PartitionEstimator.ncomm_dependents`), so when a uid moves,
    the entries of every group whose D(G) contains it are dropped, and a
    cached delta always equals a fresh :meth:`CommState.preview_ncomm`
    walk.  :meth:`verify` checks all of it against fresh derivations.
    """

    def __init__(
        self,
        estimator: PartitionEstimator,
        class_of: Dict[int, int],
        level: Level,
        groups: GroupAssignment,
    ) -> None:
        est = self.estimator = estimator
        self._class_of = class_of
        self.assignment: Dict[int, int] = {}
        for gid, uids in level.items():
            for uid in uids:
                self.assignment[uid] = groups[gid]
        self.comm = est.comm_session(self.assignment)
        self.loads = self._loads_of(self.assignment)
        self._dependents = est.ncomm_dependents()
        # uid-level edge pairs (every dependence, deduplicated), in index
        # space, mapped to group pairs at each level.
        index_of = est._index_of
        self._uid_pairs = {
            (index_of[dep.src], index_of[dep.dst])
            for dep in est.loop.ddg.edges()
            if dep.src != dep.dst
        }
        self._known: Dict[Tuple[int, ...], _Group] = {}
        #: uid index -> its group at the current level.
        self._group_at: List[Optional[_Group]] = [None] * len(index_of)
        #: Moves applied so far; a score is reusable while it is unchanged.
        self.moves = 0
        self._scored: Optional[Tuple[int, Score]] = None
        self.level: Level = {}
        self.groups: GroupAssignment = {}
        self.info: Dict[int, _Group] = {}
        self.group_pairs: Set[Tuple[int, int]] = set()
        self.sorted_gids: List[int] = []
        self.gids_by_size: List[int] = []
        self.enter(level, groups)

    def _loads_of(self, assignment: Dict[int, int]) -> List[List[int]]:
        """loads[cluster][class index] of a uid assignment."""
        loads = [[0] * _N_CLASSES for _ in range(self.estimator.machine.num_clusters)]
        class_of = self._class_of
        for uid, cluster in assignment.items():
            loads[cluster][class_of[uid]] += 1
        return loads

    # -- levels --------------------------------------------------------
    def _group(self, uids: Tuple[int, ...]) -> _Group:
        group = self._known.get(uids)
        if group is None:
            group = self._known[uids] = _Group(uids, self.comm, self._class_of)
        return group

    def enter(self, level: Level, groups: GroupAssignment) -> None:
        """Make ``level`` current with ``groups`` as its assignment."""
        previous = self.info.values()
        self.level = level
        self.groups = dict(groups)
        self.info = {gid: self._group(uids) for gid, uids in level.items()}
        # A group that left the level is forgotten: its deltas would no
        # longer be invalidated (and a finer level never brings it back).
        current = {id(group) for group in self.info.values()}
        for group in previous:
            if id(group) not in current:
                del self._known[group.uids]
        group_at = self._group_at
        gid_at = [0] * len(group_at)
        for gid, group in self.info.items():
            for i in group.members:
                group_at[i] = group
                gid_at[i] = gid
        self.group_pairs = {
            (gid_at[si], gid_at[di])
            for si, di in self._uid_pairs
            if gid_at[si] != gid_at[di]
        }
        self.sorted_gids = sorted(level)
        self.gids_by_size = sorted(level, key=lambda g: (len(level[g]), g))
        # Projection moves nothing; a caller-chosen assignment may.
        assignment = self.assignment
        for gid, group in self.info.items():
            cluster = self.groups[gid]
            stray = [uid for uid in group.uids if assignment[uid] != cluster]
            if stray:
                self._relocate(stray, cluster)

    # -- moves ---------------------------------------------------------
    def move(self, gid: int, target: int) -> None:
        """Move group ``gid`` of the current level to cluster ``target``."""
        group = self.info[gid]
        source = self.groups[gid]
        self.groups[gid] = target
        source_loads = self.loads[source]
        target_loads = self.loads[target]
        for idx, count in enumerate(group.counts):
            if count:
                source_loads[idx] -= count
                target_loads[idx] += count
        assignment = self.assignment
        for uid in group.uids:
            assignment[uid] = target
        self.comm.move_uids(group.uids, target, group.records)
        self._invalidate(group.members)

    def _relocate(self, uids: Sequence[int], target: int) -> None:
        """Move single uids, whatever their current clusters."""
        loads = self.loads
        class_of = self._class_of
        assignment = self.assignment
        for uid in uids:
            idx = class_of[uid]
            loads[assignment[uid]][idx] -= 1
            loads[target][idx] += 1
            assignment[uid] = target
        self.comm.move_uids(uids, target)
        index_of = self.estimator._index_of
        self._invalidate([index_of[uid] for uid in uids])

    def _invalidate(self, moved: Sequence[int]) -> None:
        self.moves += 1
        group_at = self._group_at
        dependents = self._dependents
        for u in moved:
            for v in dependents[u]:
                group_at[v].deltas.clear()

    # -- pricing -------------------------------------------------------
    def delta(self, group: _Group, target: int) -> int:
        """Transfer-count change of moving ``group`` to ``target``."""
        delta = group.deltas.get(target)
        if delta is None:
            comm = self.comm
            delta = group.deltas[target] = (
                comm.preview_ncomm(((group.members, group.records, target),))
                - comm.ncomm
            )
        return delta

    def swap_delta(
        self, group: _Group, other: _Group, source: int, target: int
    ) -> int:
        """Transfer-count change of moving ``group`` from ``source`` to
        ``target`` and ``other`` the opposite way.

        Groups sharing no carry edge and no producer touch disjoint
        transfer pairs, so the swap's change is the sum of the two moves';
        otherwise the two-move walk is exact.
        """
        if group.independent_of(other):
            return self.delta(group, target) + self.delta(other, source)
        comm = self.comm
        return comm.preview_ncomm(
            (
                (group.members, group.records, target),
                (other.members, other.records, source),
            )
        ) - comm.ncomm

    def score(self) -> Score:
        """The live assignment's score, reused while nothing moved."""
        if self._scored is None or self._scored[0] != self.moves:
            est = self.estimator.estimate(
                self.assignment, cluster_class_counts=self.loads,
                comm_state=self.comm,
            )
            self.remember(_objective(est))
        return self._scored[1]

    def remember(self, score: Score) -> None:
        """Record ``score`` as the live assignment's."""
        self._scored = (self.moves, score)

    # -- checking ------------------------------------------------------
    def verify(self) -> None:
        """Assert the session equals a fresh derivation of its level."""
        self.comm.verify(self.assignment)
        expected = {
            uid: self.groups[gid]
            for gid, uids in self.level.items()
            for uid in uids
        }
        fresh_comm = self.estimator.comm_session(expected)
        if (
            self.assignment != expected
            or self.loads != self._loads_of(expected)
        ):
            raise AssertionError("refinement session diverged from its level")
        for gid, group in self.info.items():
            fresh = _Group(self.level[gid], fresh_comm, self._class_of)
            if (
                group.members != fresh.members
                or group.records != fresh.records
                or group.counts != fresh.counts
            ):
                raise AssertionError(f"group {gid} constants are stale")
            for target, delta in group.deltas.items():
                walked = fresh_comm.preview_ncomm(
                    ((fresh.members, fresh.records, target),)
                ) - fresh_comm.ncomm
                if delta != walked:
                    raise AssertionError(
                        f"cached transfer delta of group {gid} -> {target} "
                        f"is {delta}, a fresh walk gives {walked}"
                    )


class Refiner:
    """Refines group-to-cluster assignments level by level.

    A refiner serves one partition: its :class:`RefinementSession` starts
    at the first level it is given and follows the assignment down the
    hierarchy.
    """

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
        self.session: Optional[RefinementSession] = None
        # exec-time bound -> estimator.max_ncomm(bound)
        self._ncomm_caps: Dict[int, float] = {}

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

    def _enter(self, level: Level, groups: GroupAssignment) -> RefinementSession:
        if self.session is None:
            self.session = RefinementSession(
                self.estimator, self._class_of, level, groups
            )
        else:
            self.session.enter(level, groups)
        return self.session

    def _ncomm_cap(self, bound: int) -> float:
        cap = self._ncomm_caps.get(bound)
        if cap is None:
            cap = self._ncomm_caps[bound] = self.estimator.max_ncomm(bound)
        return cap

    # ------------------------------------------------------------------
    # Heuristic 1: workload balancing
    # ------------------------------------------------------------------
    def balance_workload(self, level: Level, groups: GroupAssignment) -> GroupAssignment:
        """Remove resource overloads by moving groups (first-fit)."""
        session = self._enter(level, groups)
        self._balance(session)
        return dict(session.groups)

    def _balance(self, session: RefinementSession) -> None:
        loads = session.loads
        capacity = self._capacity
        for _ in range(self.max_rounds):
            overloaded = [
                (cluster, idx, loads[cluster][idx] / max(1, capacity[cluster][idx]))
                for cluster in range(self.machine.num_clusters)
                for idx in range(_N_CLASSES)
                if loads[cluster][idx] > capacity[cluster][idx]
            ]
            if not overloaded:
                return
            overloaded.sort(
                key=lambda item: (-item[2], item[0], _CLASS_SORT_KEY[item[1]])
            )
            if not self._balance_step(session, overloaded):
                return

    def _balance_step(self, session: RefinementSession, overloaded) -> bool:
        """Apply one balancing move; returns False if none is possible."""
        groups = session.groups
        info = session.info
        loads = session.loads
        criticality_order = [(cl, idx) for cl, idx, _sat in overloaded]
        for rank, (cluster, idx, _sat) in enumerate(overloaded):
            movable = sorted(
                (
                    gid
                    for gid in session.level
                    if groups[gid] == cluster and info[gid].counts[idx] > 0
                ),
                key=lambda gid: (-info[gid].counts[idx], gid),
            )
            protected = {i for (_cl, i) in criticality_order[: rank + 1]}
            targets = sorted(
                (c for c in range(self.machine.num_clusters) if c != cluster),
                key=lambda c: (loads[c][idx], c),
            )
            for gid in movable:
                for target in targets:
                    if self._fits_after_add(
                        loads, info[gid].counts, target, protected
                    ):
                        session.move(gid, target)
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
    ) -> Optional[Score]:
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
        return None if est is None else _objective(est)

    def _move_fits(self, loads, counts, target) -> bool:
        target_loads = loads[target]
        cap = self._capacity[target]
        for idx, count in enumerate(counts):
            if count and target_loads[idx] + count > cap[idx]:
                return False
        return True

    def _swap_fits(self, loads, counts_g, counts_o, cl_g, cl_o) -> bool:
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

    def _boundary_candidates(self, session: RefinementSession) -> Iterator[Move]:
        """Moves of boundary groups plus fallback swaps (paper §3.2.2).

        Yields ``(group, target, partner)`` lazily, so the preview path can
        reject a candidate before anything is built for it; the lists and
        fits are taken at round start (nothing moves during a round).
        """
        groups = session.groups
        info = session.info
        loads = session.loads
        neighbour_clusters: Dict[int, Set[int]] = {gid: set() for gid in session.level}
        for gu, gv in session.group_pairs:
            cu, cv = groups[gu], groups[gv]
            if cu != cv:
                neighbour_clusters[gu].add(cv)
                neighbour_clusters[gv].add(cu)
        # Swap partners: the smallest groups of each cluster, in size order.
        partners: List[List[int]] = [[] for _ in range(self.machine.num_clusters)]
        for other in session.gids_by_size:
            partners[groups[other]].append(other)
        for row in partners:
            del row[self.max_swaps_per_group:]
        # A partner must free at least ``count - free`` slots of each class
        # in the target, so a group needing more than every partner of the
        # target holds has no swap there.
        free = [
            [cap - load for cap, load in zip(caps, row)]
            for caps, row in zip(self._capacity, loads)
        ]
        partner_most = [
            [max(counts) for counts in zip(*(info[o].counts for o in row))]
            if row else [0] * _N_CLASSES
            for row in partners
        ]
        for gid in session.sorted_gids:
            neighbours = neighbour_clusters[gid]
            if not neighbours:
                continue
            source = groups[gid]
            counts = info[gid].counts
            for target in sorted(neighbours):
                if self._move_fits(loads, counts, target):
                    yield gid, target, None
                    continue
                if any(
                    count - room > most
                    for count, room, most in zip(
                        counts, free[target], partner_most[target]
                    )
                ):
                    continue
                for other in partners[target]:
                    if self._swap_fits(
                        loads, counts, info[other].counts, source, target
                    ):
                        yield gid, target, other

    def minimize_cut_impact(
        self, level: Level, groups: GroupAssignment
    ) -> GroupAssignment:
        """Apply best-improvement moves/swaps until no candidate helps."""
        session = self._enter(level, groups)
        self._minimize(session)
        return dict(session.groups)

    def _minimize(self, session: RefinementSession) -> None:
        use_preview = getattr(self.estimator, "supports_preview", False)
        current = session.score()
        for _ in range(self.max_rounds):
            if use_preview:
                best = self._preview_round(session, current)
            else:
                best = self._apply_undo_round(session, current)
            if best is None:
                return
            current, chosen = best
            self._apply(session, chosen)
            session.remember(current)

    def _apply(self, session: RefinementSession, move: Move) -> Tuple[int, ...]:
        """Apply in place; returns the inverse recipe (moves to undo)."""
        gid, target, other = move
        src_g = session.groups[gid]
        if other is None:
            session.move(gid, target)
            return (gid, src_g)
        session.move(gid, target)
        session.move(other, src_g)
        return (gid, src_g, other, target)

    def _apply_undo_round(
        self, session: RefinementSession, current: Score
    ) -> Optional[Tuple[Score, Move]]:
        """One round priced by applying, estimating and undoing every
        candidate: the from-scratch reference of :meth:`_preview_round`."""
        best: Optional[Tuple[Score, Move]] = None
        # Listed before any is applied: the trial moves touch the state
        # the enumeration reads.
        for move in list(self._boundary_candidates(session)):
            # A winner must beat both the incumbent partition and the best
            # candidate so far (best[0] < current once any candidate won),
            # so the lower of the two is an exact prune bound.
            incumbent = best[0] if best is not None else current
            recipe = self._apply(session, move)
            score = self._score(
                session.assignment, bound=incumbent[0],
                loads=session.loads, comm=session.comm,
            )
            for i in range(0, len(recipe), 2):
                session.move(recipe[i], recipe[i + 1])
            if score is not None and score < current and (
                best is None or score < best[0]
            ):
                best = (score, move)
        return best

    def _preview_round(
        self, session: RefinementSession, current: Score
    ) -> Optional[Tuple[Score, Move]]:
        """One round over the candidates, with the transfer-count prune
        fused into the enumeration.

        A candidate whose would-be transfer count exceeds
        ``max_ncomm(incumbent)`` loses whatever else it does, so it is
        rejected from the delta table before it is previewed.
        """
        groups = session.groups
        info = session.info
        ncomm = session.comm.ncomm
        best: Optional[Tuple[Score, Move]] = None
        incumbent = current
        cap = self._ncomm_cap(incumbent[0])
        for move in self._boundary_candidates(session):
            gid, target, other = move
            if other is None:
                delta = session.delta(info[gid], target)
            else:
                delta = session.swap_delta(info[gid], info[other], groups[gid], target)
            if ncomm + delta > cap:
                continue
            score = self._preview_score(session, move, incumbent)
            # Strictly below the incumbent, which is below ``current``.
            if score is not None and score < incumbent:
                best = (score, move)
                incumbent = score
                cap = self._ncomm_cap(incumbent[0])
        return best

    def _preview_score(
        self, session: RefinementSession, move: Move, incumbent: Score
    ) -> Optional[Score]:
        """Score a candidate without mutating any state.

        Returns None when the estimator's tie-aware bound prunes prove the
        candidate cannot beat ``incumbent``.
        """
        groups = session.groups
        info = session.info
        gid, target, other = move
        src_g = groups[gid]
        group = info[gid]
        moves = [(group.uids, group.records, target)]
        deltas = [(group, src_g, target)]
        if other is not None:
            other_group = info[other]
            moves.append((other_group.uids, other_group.records, src_g))
            deltas.append((other_group, target, src_g))
        loads_preview = [row[:] for row in session.loads]
        for moved, source, dest in deltas:
            source_row = loads_preview[source]
            target_row = loads_preview[dest]
            for idx, count in enumerate(moved.counts):
                if count:
                    source_row[idx] -= count
                    target_row[idx] += count
        est = self.estimator.estimate_preview(
            session.comm.preview_moves(moves),
            cluster_class_counts=loads_preview,
            incumbent=incumbent,
        )
        return None if est is None else _objective(est)

    # ------------------------------------------------------------------
    def refine(self, level: Level, groups: GroupAssignment) -> GroupAssignment:
        """Balance workload, then minimize cut impact, at this level."""
        session = self._enter(level, groups)
        self._balance(session)
        self._minimize(session)
        return dict(session.groups)
