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

The candidate evaluation loop is the partitioner's hot path, so each step
costs only what it changes.  One :class:`RefinementSession` per
:meth:`MultilevelPartitioner.partition` call keeps the uid-level state —
cluster loads, the delta-maintained communication session with its cached
critical paths, and per-group constants — across every level and round,
since projecting to a finer level moves no operation:

* Walking down the hierarchy splits only the groups the coarser level
  fused.  A child inherits its parent's cluster and derives its constants
  from the parent's; the group adjacency, the per-cluster neighbour counts
  and the size-ordered swap partners are updated around the split.
* A score-delta table holds, per (group, target cluster), what moving the
  group there changes: the transfer count, the cut edges, the cut slack,
  the edges it un-cuts and newly cuts, and the memory-route charge.
  Every candidate reads the transfer count, and most die on it; for the
  rest the estimator's exact bound prunes run from the full entry plus
  load arithmetic on the two clusters the move touches
  (:meth:`PartitionEstimator.may_beat`).  A survivor is priced from its
  entry and the live communication state
  (:meth:`PartitionEstimator.estimate_preview`), and the round's applied
  winner hands its critical-path start times to the live state.

An estimator that cannot price from entries is priced by mutating the
assignment in place (and restoring it) around each trial estimate, the
from-scratch reference of the entry path.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import add, sub
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import PartitionError
from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig
from .coarsen import Hierarchy, Level, Rank
from .estimator import (
    PartitionEstimate, PartitionEstimator, ScoreDelta, StartTimes,
)

#: Assignment of hierarchy groups to clusters.
GroupAssignment = Dict[int, int]

_CLASSES = list(OpClass)
#: Class index used for the compact per-cluster/per-group count arrays.
_CLASS_INDEX = {cls: i for i, cls in enumerate(_CLASSES)}
_N_CLASSES = len(_CLASSES)
#: Sort key preserving the paper-order tie-break (the class *name*).
_CLASS_SORT_KEY = [cls.value for cls in _CLASSES]

#: Balancing steps, and refinement rounds, per level at most.
MAX_ROUNDS = 64
#: Swap partners tried per (group, target): the target's smallest groups.
MAX_SWAPS_PER_GROUP = 6

Score = Tuple[int, int, int]


def _objective(est: PartitionEstimate) -> Score:
    """The refinement objective of an estimate (lexicographic, minimized)."""
    return (est.exec_time, -est.cut_slack, est.cut_edges)


class _Group:
    """One hierarchy group: its constants, cluster, neighbours and its
    score-delta entries.

    A group that survives coarsening unchanged is the same object on every
    level it appears on, so its constants and entries carry over.
    """

    __slots__ = (
        "uids", "members", "records", "counts", "cluster", "rank",
        "links", "near", "deltas", "entries", "_keys",
    )

    def __init__(
        self,
        uids: Tuple[int, ...],
        members: frozenset,
        records: Dict[int, Tuple[int, int, int, int]],
        counts: Tuple[int, ...],
        cluster: int,
        rank: Rank,
    ) -> None:
        self.uids = uids
        #: uid indices, as :meth:`CommState.preview_delta` takes them.
        self.members = members
        #: Incident carry-edge records by edge index, for the delta updates.
        self.records = records
        #: Operations of each class (by class index) inside the group.
        self.counts = counts
        self.cluster = cluster
        #: Orders the groups of a level as their group ids do.
        self.rank = rank
        #: Neighbour group -> the uid pairs joining it to this one by a
        #: dependence.
        self.links: Dict[_Group, int] = {}
        #: cluster -> how many of the neighbours it holds.
        self.near: List[int] = []
        #: target cluster -> transfer-count change of moving the group
        #: there, and (target, partner) -> that of a swap with a dependent
        #: partner; dropped whenever a uid of its D(G) moves.
        self.deltas: Dict[object, int] = {}
        #: The same keys -> the full score delta, filled only for
        #: candidates that survive the transfer-count prune.
        self.entries: Dict[object, ScoreDelta] = {}
        self._keys: Optional[Tuple[frozenset, frozenset]] = None

    def independent_of(self, other: "_Group") -> bool:
        """Whether the two groups share no carry edge and no producer.

        Such groups touch disjoint transfer pairs and edges, so the score
        delta of moving both is the sum of the two single moves'.
        """
        mine = self._keys
        if mine is None:
            mine = self._keys = self._edges_and_producers()
        theirs = other._keys
        if theirs is None:
            theirs = other._keys = other._edges_and_producers()
        return mine[0].isdisjoint(theirs[0]) and mine[1].isdisjoint(theirs[1])

    def _edges_and_producers(self) -> Tuple[frozenset, frozenset]:
        records = self.records.values()
        return (
            frozenset([record[0] for record in records]),
            frozenset([record[1] for record in records]),
        )


def _summed(first: ScoreDelta, second: ScoreDelta) -> ScoreDelta:
    """The score delta of two independent moves."""
    return (
        first[0] + second[0],
        first[1] + second[1],
        first[2] + second[2],
        first[3] + second[3],
        first[4] + second[4],
        tuple(map(add, first[5], second[5])),
    )


class RefinementSession:
    """The refiner's state for one partition, across all hierarchy levels.

    Everything here is a function of the uid-level assignment, which
    projecting to a finer level leaves unchanged: the uid assignment, the
    per-cluster class loads, the estimator's delta-maintained
    :class:`~repro.partition.estimator.CommState` and the last computed
    score.  ``order`` lists the current level's groups by group id.
    :meth:`descend` walks to the next finer level of a hierarchy by
    splitting the groups the current one fused; :meth:`enter` switches to
    any level from scratch, moving every operation whose cluster the
    caller's group assignment disagrees with.

    The score-delta table holds, per (group, target cluster), the change
    moving the group there would cause: its transfer-count change (see
    :meth:`CommState.preview_ncomm`), which every candidate needs, and —
    filled only for candidates that survive the transfer-count prune —
    the full score delta (see :meth:`CommState.preview_delta`).  Both read
    only the clusters of D(G) (see
    :meth:`PartitionEstimator.ncomm_dependents`), so when a uid moves, the
    entries of every group whose D(G) contains it are dropped, and a
    cached entry always equals a fresh walk.  :meth:`verify` checks all of
    it against fresh derivations.
    """

    def __init__(
        self,
        estimator: PartitionEstimator,
        class_of: Dict[int, int],
        level: Level,
        groups: GroupAssignment,
        ranks: Optional[Sequence[Rank]] = None,
    ) -> None:
        est = self.estimator = estimator
        self._class_of = class_of
        self._clusters = est.machine.num_clusters
        self.assignment: Dict[int, int] = {}
        for gid, uids in level.items():
            for uid in uids:
                self.assignment[uid] = groups[gid]
        self.comm = est.comm_session(self.assignment)
        self.loads = self._loads_of(self.assignment)
        self._dependents = est.ncomm_dependents()
        # uid index -> the uid indices it shares a dependence with.
        index_of = est._index_of
        adjacent: List[Set[int]] = [set() for _ in range(len(index_of))]
        for dep in est.loop.ddg.edges():
            if dep.src != dep.dst:
                si, di = index_of[dep.src], index_of[dep.dst]
                adjacent[si].add(di)
                adjacent[di].add(si)
        self._adjacent = [tuple(sorted(near)) for near in adjacent]
        #: uid index -> its group at the current level.
        self._group_at: List[Optional[_Group]] = [None] * len(index_of)
        #: Moves applied so far; a score is reusable while it is unchanged.
        self.moves = 0
        self._scored: Optional[Tuple[int, Score]] = None
        self.level: Level = {}
        #: The current level's groups; a group's index is its group id.
        self.order: List[_Group] = []
        #: cluster -> its groups in (size, group id) order: swap partners.
        self.by_size: List[List[_Group]] = []
        self._size_keys: List[List[Tuple[int, Rank]]] = []
        self.enter(level, groups, ranks)

    def _loads_of(self, assignment: Dict[int, int]) -> List[List[int]]:
        """loads[cluster][class index] of a uid assignment."""
        loads = [[0] * _N_CLASSES for _ in range(self._clusters)]
        class_of = self._class_of
        for uid, cluster in assignment.items():
            loads[cluster][class_of[uid]] += 1
        return loads

    @property
    def groups(self) -> GroupAssignment:
        """The current level's group assignment (group id -> cluster)."""
        return {gid: group.cluster for gid, group in enumerate(self.order)}

    # -- levels --------------------------------------------------------
    def _derive(self, uids: Tuple[int, ...], cluster: int, rank: Rank) -> _Group:
        counts = [0] * _N_CLASSES
        class_of = self._class_of
        for uid in uids:
            counts[class_of[uid]] += 1
        members = self.comm.index_set(uids)
        return _Group(
            uids, members, self._records_of(members), tuple(counts), cluster, rank
        )

    def _records_of(self, members: frozenset) -> Dict[int, Tuple[int, int, int, int]]:
        """The carry-edge records incident to ``members``, by edge index."""
        incident = self.estimator._incident_carry
        records: Dict[int, Tuple[int, int, int, int]] = {}
        for i in members:
            for record in incident[i]:
                records[record[0]] = record
        return records

    def enter(
        self,
        level: Level,
        groups: GroupAssignment,
        ranks: Optional[Sequence[Rank]] = None,
    ) -> None:
        """Make ``level`` current with ``groups`` as its assignment, from
        scratch.

        Group ids must be ``0 .. len(level) - 1``.  ``ranks`` — the
        hierarchy's (see :class:`~repro.partition.coarsen.Hierarchy`) —
        let :meth:`descend` continue from here; without them the groups
        rank by group id.  Groups the session already holds keep their
        score-delta entries.
        """
        if any(gid not in level for gid in range(len(level))):
            raise PartitionError("level group ids must be 0 .. len(level) - 1")
        known = {group.uids: group for group in self.order}
        order: List[_Group] = []
        for gid in range(len(level)):
            uids = level[gid]
            rank = ranks[gid] if ranks is not None else (0, gid)
            group = known.get(uids)
            if group is None:
                group = self._derive(uids, groups[gid], rank)
            else:
                group.cluster = groups[gid]
                group.rank = rank
            order.append(group)
        self.level = level
        self.order = order
        group_at = self._group_at
        for group in order:
            for i in group.members:
                group_at[i] = group
        # Projection moves nothing; a caller-chosen assignment may.
        assignment = self.assignment
        for group in order:
            stray = [uid for uid in group.uids if assignment[uid] != group.cluster]
            if stray:
                self._relocate(stray, group.cluster)
        adjacent = self._adjacent
        for group in order:
            links: Dict[_Group, int] = {}
            for i in group.members:
                for j in adjacent[i]:
                    other = group_at[j]
                    links[other] = links.get(other, 0) + 1
            links.pop(group, None)
            group.links = links
        for group in order:
            near = group.near = [0] * self._clusters
            for other in group.links:
                near[other.cluster] += 1
        self.by_size = [[] for _ in range(self._clusters)]
        self._size_keys = [[] for _ in range(self._clusters)]
        for group in order:
            self._insort(group)

    def descend(
        self,
        level: Level,
        fused: Sequence[Tuple[int, int]],
        ranks: Sequence[Rank],
    ) -> None:
        """Make the next finer ``level`` of a hierarchy current.

        ``fused`` lists the pairs of ``level``'s group ids that the current
        level fused into its first groups, and ``ranks`` are ``level``'s
        (see :class:`~repro.partition.coarsen.Hierarchy`).  Only those
        groups split; every other group carries over, entries and all.  A
        child inherits its parent's cluster, so no operation moves.  The
        larger child takes over the parent's object and everything is
        derived from the smaller one, so the work is proportional to the
        smaller child and the parent's neighbours.
        """
        order = self.order
        parents = order[:len(fused)]
        del order[:len(fused)]
        children: List[Tuple[int, _Group]] = []
        for parent, (u, v) in zip(parents, fused):
            if len(parent.uids) != len(level[u]) + len(level[v]):
                raise PartitionError("descend() needs the level below the current one")
            if len(level[u]) > len(level[v]):
                u, v = v, u
            children.append((u, self._split_off(parent, level[u], ranks[u])))
            self._unsort(parent)
            parent.uids = level[v]
            parent.rank = ranks[v]
            self._insort(parent)
            children.append((v, parent))
        children.sort(key=lambda item: item[0])
        for gid, child in children:
            order.insert(gid, child)
        self.level = level

    def _split_off(self, parent: _Group, uids: Tuple[int, ...], rank: Rank) -> _Group:
        """Split the group of ``uids`` off ``parent``, which keeps the rest.

        The new group's constants are derived from its own uids, the
        parent's by subtraction, and the links of both (and of their
        neighbours) from the new group's dependences.
        """
        comm = self.comm
        class_of = self._class_of
        members = comm.index_set(uids)
        counts = [0] * _N_CLASSES
        for uid in uids:
            counts[class_of[uid]] += 1
        records = self._records_of(members)
        cluster = parent.cluster
        counts = tuple(counts)
        child = _Group(uids, members, records, counts, cluster, rank)
        rest = parent.members = parent.members - members
        # Every parent record the rest does not touch is the child's.
        parent_records = parent.records
        for i, si, di, _slack in records.values():
            if si not in rest and di not in rest:
                del parent_records[i]
        parent.counts = tuple(
            [whole - part for whole, part in zip(parent.counts, counts)]
        )
        parent.deltas = {}
        parent.entries = {}
        parent._keys = None
        group_at = self._group_at
        for i in members:
            group_at[i] = child
        adjacent = self._adjacent
        links = child.links
        for i in members:
            for j in adjacent[i]:
                other = group_at[j]
                if other is not child:
                    links[other] = links.get(other, 0) + 1
        near = child.near = [0] * self._clusters
        parent_links = parent.links
        for other, count in links.items():
            near[other.cluster] += 1
            if other is not parent:
                left = parent_links[other] - count
                if left:
                    parent_links[other] = other.links[parent] = left
                else:
                    del parent_links[other]
                    del other.links[parent]
                    parent.near[other.cluster] -= 1
                    other.near[cluster] -= 1
            other.links[child] = count
            other.near[cluster] += 1
        self._insort(child)
        return child

    def _insort(self, group: _Group) -> None:
        key = (len(group.uids), group.rank)
        keys = self._size_keys[group.cluster]
        at = bisect_left(keys, key)
        keys.insert(at, key)
        self.by_size[group.cluster].insert(at, group)

    def _unsort(self, group: _Group) -> None:
        keys = self._size_keys[group.cluster]
        at = bisect_left(keys, (len(group.uids), group.rank))
        del keys[at]
        del self.by_size[group.cluster][at]

    # -- moves ---------------------------------------------------------
    def move(self, group: _Group, target: int) -> None:
        """Move ``group`` of the current level to cluster ``target``."""
        source = group.cluster
        self._unsort(group)
        group.cluster = target
        self._insort(group)
        source_loads = self.loads[source]
        target_loads = self.loads[target]
        for idx, count in enumerate(group.counts):
            if count:
                source_loads[idx] -= count
                target_loads[idx] += count
        assignment = self.assignment
        for uid in group.uids:
            assignment[uid] = target
        for other in group.links:
            near = other.near
            near[source] -= 1
            near[target] += 1
        self.comm.move_uids(group.uids, target, group.records.values())
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
                group = group_at[v]
                group.deltas.clear()
                group.entries.clear()

    # -- pricing -------------------------------------------------------
    def delta(self, group: _Group, target: int) -> int:
        """Transfer-count change of moving ``group`` to ``target``."""
        dn = group.deltas.get(target)
        if dn is None:
            comm = self.comm
            dn = group.deltas[target] = comm.preview_ncomm(
                ((group.members, group.records.values(), target),)
            ) - comm.ncomm
        return dn

    def entry(self, group: _Group, target: int) -> ScoreDelta:
        """Score delta of moving ``group`` to ``target``."""
        entry = group.entries.get(target)
        if entry is None:
            entry = group.entries[target] = self.comm.preview_delta(
                ((group.members, group.records.values(), target),)
            )
        return entry

    def swap_delta(self, group: _Group, other: _Group, target: int) -> int:
        """Transfer-count change of moving ``group`` to ``target`` and
        ``other`` to ``group``'s cluster (see :meth:`swap_entry`)."""
        if group.independent_of(other):
            return self.delta(group, target) + self.delta(other, group.cluster)
        comm = self.comm
        return self._pair(
            group.deltas, other.deltas, group, other, target,
            lambda moves: comm.preview_ncomm(moves) - comm.ncomm,
        )

    def swap_entry(self, group: _Group, other: _Group, target: int) -> ScoreDelta:
        """Score delta of moving ``group`` to ``target`` and ``other`` to
        ``group``'s cluster.

        Independent groups sum their two entries.  A dependent pair takes
        the exact two-move walk, cached on both groups: the walk reads
        D(group) and D(other), and each table is dropped when its own
        group's D moves, so it is exact while both halves are present.
        """
        if group.independent_of(other):
            return _summed(
                self.entry(group, target), self.entry(other, group.cluster)
            )
        return self._pair(
            group.entries, other.entries, group, other, target,
            self.comm.preview_delta,
        )

    def _pair(self, mine, theirs, group: _Group, other: _Group, target: int, walk):
        """A dependent swap's ``walk``, cached in ``group``'s table
        ``mine`` and ``other``'s table ``theirs``."""
        source = group.cluster
        value = mine.get((target, other))
        if value is None or (source, group) not in theirs:
            value = walk(
                (
                    (group.members, group.records.values(), target),
                    (other.members, other.records.values(), source),
                )
            )
            mine[(target, other)] = theirs[(source, group)] = value
        return value

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
        """Assert the session equals a fresh derivation of its level.

        The fresh derivation is a from-scratch :meth:`enter` of the current
        level and group assignment: the uid state, every group's constants,
        neighbours and neighbour counts, the swap-partner order, every
        score-delta entry and (through :meth:`CommState.verify`) every
        cached length and start-time vector and critical-edge set must
        equal it.
        """
        self.comm.verify(self.assignment)
        fresh = RefinementSession(
            self.estimator, self._class_of, self.level, self.groups
        )
        if self.assignment != fresh.assignment or self.loads != fresh.loads:
            raise AssertionError("refinement session diverged from its level")
        if [[g.uids for g in row] for row in self.by_size] != [
            [g.uids for g in row] for row in fresh.by_size
        ]:
            raise AssertionError("swap partners are out of order")
        position = {id(group): gid for gid, group in enumerate(self.order)}
        for gid, (group, twin) in enumerate(zip(self.order, fresh.order)):
            if (
                group.uids != twin.uids
                or group.members != twin.members
                or group.records != twin.records
                or group.counts != twin.counts
                or group.cluster != twin.cluster
                or group.near != twin.near
                or {g.uids: n for g, n in group.links.items()}
                != {g.uids: n for g, n in twin.links.items()}
                or any(self._group_at[i] is not group for i in group.members)
            ):
                raise AssertionError(f"group {gid} differs from a fresh enter")
            fresh_comm = fresh.comm
            walks = {
                "deltas": lambda moves: (
                    fresh_comm.preview_ncomm(moves) - fresh_comm.ncomm
                ),
                "entries": fresh_comm.preview_delta,
            }
            for table, walk in walks.items():
                for key, cached in getattr(group, table).items():
                    if isinstance(key, int):
                        moves = ((twin.members, twin.records.values(), key),)
                    else:
                        target, other = key
                        if (
                            id(other) not in position
                            or (group.cluster, group) not in getattr(other, table)
                        ):
                            continue  # half of a dropped pair: never read
                        partner = fresh.order[position[id(other)]]
                        moves = (
                            (twin.members, twin.records.values(), target),
                            (partner.members, partner.records.values(), twin.cluster),
                        )
                    walked = walk(moves)
                    if _comparable(cached) != _comparable(walked):
                        raise AssertionError(
                            f"cached delta of group {gid}, {key} is {cached}, "
                            f"a fresh walk gives {walked}"
                        )


def _comparable(value):
    """A delta or score-delta entry up to the order of its un-cut and newly
    cut edges."""
    if isinstance(value, int):
        return value
    return value[:3] + value[5:] + (frozenset(value[3]), frozenset(value[4]))


#: A refinement transformation: (group, target cluster, swap partner).
#: The partner, when there is one, is a group of the target cluster that
#: moves to the group's cluster in exchange.
Move = Tuple[_Group, int, Optional[_Group]]


def _shifted(loads: List[List[int]], move: Move) -> List[List[int]]:
    """Cluster loads after ``move``: only the two rows it touches are new."""
    group, target, other = move
    source = group.cluster
    out = list(loads)
    source_row = out[source] = list(loads[source])
    target_row = out[target] = list(loads[target])
    for idx, count in enumerate(group.counts):
        if count:
            source_row[idx] -= count
            target_row[idx] += count
    if other is not None:
        for idx, count in enumerate(other.counts):
            if count:
                target_row[idx] -= count
                source_row[idx] += count
    return out


_UNKNOWN = object()


def _fitting(
    counts: Tuple[int, ...],
    free_source: List[int],
    free_target: List[int],
    partners: List[_Group],
    partner_most: List[int],
) -> Optional[List[_Group]]:
    """None if a group of ``counts`` fits in the target cluster, else the
    ``partners`` (groups of the target) it can swap with.

    ``free_*`` are the source's and target's free slots per class, and
    ``partner_most`` the most any partner holds of each class (filled in
    here when empty).
    """
    for count, room in zip(counts, free_target):
        if count and count > room:
            break
    else:
        return None
    if not partners:
        return []
    if not partner_most:
        partner_most.extend(map(max, zip(*(other.counts for other in partners))))
    # A partner must free at least ``count - room`` slots of each class in
    # the target, so a group needing more than every partner holds has no
    # swap there.
    for count, room, most in zip(counts, free_target, partner_most):
        if count - room > most:
            return []
    fitting = []
    for other in partners:
        for mine, theirs, room_t, room_s in zip(
            counts, other.counts, free_target, free_source
        ):
            if mine - theirs > room_t or theirs - mine > room_s:
                break
        else:
            fitting.append(other)
    return fitting


class Refiner:
    """Refines group-to-cluster assignments level by level.

    A refiner serves one partition: its :class:`RefinementSession` starts
    at the first level it is given and follows the assignment down the
    hierarchy.
    """

    def __init__(self, estimator: PartitionEstimator, machine: MachineConfig) -> None:
        self.estimator = estimator
        self.machine = machine
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

    def _enter(
        self,
        level: Level,
        groups: GroupAssignment,
        ranks: Optional[Sequence[Rank]] = None,
    ) -> RefinementSession:
        if self.session is None:
            self.session = RefinementSession(
                self.estimator, self._class_of, level, groups, ranks
            )
        else:
            self.session.enter(level, groups, ranks)
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
        return session.groups

    def _balance(self, session: RefinementSession) -> None:
        loads = session.loads
        capacity = self._capacity
        for _ in range(MAX_ROUNDS):
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
        loads = session.loads
        criticality_order = [(cl, idx) for cl, idx, _sat in overloaded]
        for rank, (cluster, idx, _sat) in enumerate(overloaded):
            # (-count, group id) order; ranks sort like group ids.
            movable = sorted(
                (
                    group
                    for group in session.order
                    if group.cluster == cluster and group.counts[idx] > 0
                ),
                key=lambda group: (-group.counts[idx], group.rank),
            )
            protected = {i for (_cl, i) in criticality_order[: rank + 1]}
            targets = sorted(
                (c for c in range(self.machine.num_clusters) if c != cluster),
                key=lambda c: (loads[c][idx], c),
            )
            for group in movable:
                for target in targets:
                    if self._fits_after_add(loads, group.counts, target, protected):
                        session.move(group, target)
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

    def _boundary_candidates(self, session: RefinementSession) -> Iterator[Move]:
        """Moves of boundary groups plus fallback swaps (paper §3.2.2).

        Yields ``(group, target, partner)`` lazily in (group id, target,
        partner) order, so the entry path can reject a candidate before
        anything is built for it; nothing moves during a round.
        """
        clusters = range(self.machine.num_clusters)
        # Swap partners: the smallest groups of each cluster, in size order.
        partners = [row[:MAX_SWAPS_PER_GROUP] for row in session.by_size]
        free = [
            list(map(sub, caps, row))
            for caps, row in zip(self._capacity, session.loads)
        ]
        partner_most: List[List[int]] = [[] for _ in clusters]
        # Whether a group fits in a target, or which partners it can swap
        # with there, depends only on its class counts and the two
        # clusters: fits[source][target][counts] is None if the move fits,
        # else the fitting partners.
        fits = [[{} for _ in clusters] for _ in clusters]
        for group in session.order:
            near = group.near
            source = group.cluster
            counts = group.counts
            known = fits[source]
            for target, neighbours in enumerate(near):
                if not neighbours or target == source:
                    continue
                fitting = known[target].get(counts, _UNKNOWN)
                if fitting is _UNKNOWN:
                    fitting = known[target][counts] = _fitting(
                        counts, free[source], free[target], partners[target],
                        partner_most[target],
                    )
                if fitting is None:
                    yield group, target, None
                else:
                    for other in fitting:
                        yield group, target, other

    def minimize_cut_impact(
        self, level: Level, groups: GroupAssignment
    ) -> GroupAssignment:
        """Apply best-improvement moves/swaps until no candidate helps."""
        session = self._enter(level, groups)
        self._minimize(session)
        return session.groups

    def _minimize(self, session: RefinementSession) -> None:
        use_preview = getattr(self.estimator, "supports_preview", False)
        current = session.score()
        for _ in range(MAX_ROUNDS):
            if use_preview:
                best = self._preview_round(session, current)
                if best is None:
                    return
                current, chosen, times = best
                self._apply(session, chosen)
                session.comm.adopt(times)
            else:
                found = self._apply_undo_round(session, current)
                if found is None:
                    return
                current, chosen = found
                self._apply(session, chosen)
            session.remember(current)

    def _apply(
        self, session: RefinementSession, move: Move
    ) -> Tuple[Tuple[_Group, int], ...]:
        """Apply in place; returns the inverse recipe (moves to undo)."""
        group, target, other = move
        source = group.cluster
        session.move(group, target)
        if other is None:
            return ((group, source),)
        session.move(other, source)
        return ((group, source), (other, target))

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
            for group, cluster in recipe:
                session.move(group, cluster)
            if score is not None and score < current and (
                best is None or score < best[0]
            ):
                best = (score, move)
        return best

    def _preview_round(
        self, session: RefinementSession, current: Score
    ) -> Optional[Tuple[Score, Move, StartTimes]]:
        """One round over the candidates, priced from the score-delta table.

        A candidate whose would-be transfer count exceeds
        ``max_ncomm(incumbent)`` loses whatever else it does; one the
        estimator's bound prunes reject on its entry and the two shifted
        load rows loses too.  A survivor is priced from its entry over the
        live state, without mutating it.  Returns the winner with the
        start times it was priced at, which the live state then adopts.
        """
        est = self.estimator
        comm = session.comm
        loads = session.loads
        ncomm = comm.ncomm
        best: Optional[Tuple[Score, Move, StartTimes]] = None
        incumbent = current
        cap = self._ncomm_cap(incumbent[0])
        for move in self._boundary_candidates(session):
            group, target, other = move
            if other is None:
                dn = group.deltas.get(target)
                if dn is None:
                    dn = session.delta(group, target)
                if ncomm + dn > cap:
                    continue
                entry = session.entry(group, target)
            else:
                if ncomm + session.swap_delta(group, other, target) > cap:
                    continue
                entry = session.swap_entry(group, other, target)
            bounded = est.may_beat(incumbent, comm, entry, _shifted(loads, move))
            if bounded is None:
                continue
            estimate, times = est.estimate_preview(comm, entry, bounded)
            score = _objective(estimate)
            # Strictly below the incumbent, which is below ``current``.
            if score < incumbent:
                best = (score, move, times)
                incumbent = score
                cap = self._ncomm_cap(incumbent[0])
        return best

    # ------------------------------------------------------------------
    def refine(
        self,
        hierarchy: Hierarchy,
        index: int,
        groups: Optional[GroupAssignment] = None,
    ) -> RefinementSession:
        """Balance workload, then minimize cut impact, at level ``index``.

        ``groups`` — the coarsest level's initial assignment — starts the
        walk down ``hierarchy``; without it the session descends from level
        ``index + 1``, which it must hold, by splitting the groups that
        level fused.
        """
        level = hierarchy.levels[index]
        if groups is not None:
            session = self._enter(level, groups, hierarchy.ranks[index])
        else:
            session = self.session
            if session is None:
                raise PartitionError("refine() starts at the coarsest level")
            session.descend(level, hierarchy.fused[index + 1], hierarchy.ranks[index])
        self._balance(session)
        self._minimize(session)
        return session
