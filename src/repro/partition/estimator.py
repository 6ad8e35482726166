"""Execution-time estimation of a cluster assignment (paper §3.2.2).

The refinement phase never schedules instructions; it prices a candidate
partition on a *hypothetical machine*: the actual functional units, memory
ports and inter-cluster bus, but unlimited registers and no scheduling
conflicts.  The estimate for a software-pipelined loop is::

    exec_time = (niter - 1) * II_est + critical_path

where ``II_est`` is the largest of

* the initiation interval the partition was requested for,
* ``IIbus = ceil(NComm * LatBus / NBus)`` — the bus bound of §3.1,
* each cluster's resource-constrained MII given the operations assigned to
  it, and
* the recurrence MII of the graph *with bus delays on cut edges* (a cut
  edge inside a recurrence stretches that recurrence),

and ``critical_path`` is the longest effective path where every cut DATA
edge is lengthened by the bus latency.

Communications are counted point-to-point: one bus transfer per (value,
remote consumer cluster) pair, matching what the scheduler will later
place.

The estimator is the refinement loop's inner cost function, so everything
graph-shaped (edge tuples, topological order, operation classes) is
precomputed at construction.  The refiner describes a candidate only by
its score-delta entry over the live :class:`CommState`
(:meth:`CommState.preview_delta`: the changes of the transfer count, cut
edges, cut slack and memory-route charge, and the edges the moves un-cut
and newly cut), and prices it in two steps of rising cost, each exact:

* :meth:`PartitionEstimator.may_beat` runs the bound prunes from the
  entry plus the shifted class counts — no path;
* :meth:`PartitionEstimator.estimate_preview` prices a survivor.  Its
  critical path starts from the live state's cached start times when the
  move un-cuts no edge on a longest path to its destination (it then only
  relaxes the edges it cuts), and from one full sweep otherwise.  The
  round's applied winner hands its start times to the live state.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import add
from typing import (
    Callable, Deque, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set,
    Tuple,
)

from ..errors import PartitionError
from ..ir.analysis import analyze
from ..ir.ddg import DataDependenceGraph, Dependence
from ..ir.loop import Loop
from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig

#: Cluster assignment: operation uid -> cluster index.
Assignment = Mapping[int, int]

_INFEASIBLE_II = 10**6

#: Index of each operation class, for compact per-cluster count arrays.
_CLASS_INDEX = {cls: i for i, cls in enumerate(OpClass)}
_MEM_INDEX = _CLASS_INDEX[OpClass.MEM]


def cut_data_edges(ddg: DataDependenceGraph, assignment: Assignment) -> List[Dependence]:
    """DATA edges whose endpoints are assigned to different clusters."""
    return [
        dep
        for dep in ddg.edges()
        if dep.carries_value and assignment[dep.src] != assignment[dep.dst]
    ]


def count_communications(ddg: DataDependenceGraph, assignment: Assignment) -> int:
    """Bus transfers required: distinct (producer, remote cluster) pairs."""
    pairs = set()
    for dep in ddg.edges():
        if dep.carries_value and assignment[dep.src] != assignment[dep.dst]:
            pairs.add((dep.src, assignment[dep.dst]))
    return len(pairs)


def ii_bus_bound(ncomm: int, machine: MachineConfig) -> int:
    """The paper's ``IIbus``: cycles needed to ship all transfers."""
    if not machine.is_clustered or ncomm == 0:
        return 0
    return math.ceil(ncomm * machine.bus_latency / machine.num_buses)


def _loses(
    exec_floor: int,
    slack_total: int,
    cut_count: int,
    bound: int,
    incumbent: Optional[Tuple[int, int, int]],
) -> bool:
    """Whether a candidate whose exec time is at least ``exec_floor`` cannot
    win: its score is not strictly below ``incumbent`` (ties settled on the
    known slack and cut count), or without one its exec time exceeds
    ``bound``."""
    if incumbent is not None:
        return (exec_floor, -slack_total, cut_count) >= incumbent
    return exec_floor > bound


@dataclass(frozen=True)
class PartitionEstimate:
    """Outcome of pricing a partition.

    Attributes:
        exec_time: Estimated loop execution time in cycles.
        ii_est: Initiation interval the estimate assumes.
        ii_bus: Bus-imposed II bound of the partition.
        ncomm: Number of point-to-point bus transfers.
        cut_edges: Number of DATA edges crossing clusters.
        critical_path: Makespan with bus delays on cut edges.
    """

    exec_time: int
    ii_est: int
    ii_bus: int
    ncomm: int
    cut_edges: int
    critical_path: int
    #: Total slack of the cut DATA edges (the refinement tie-breaker); filled
    #: by the same edge sweep that prices the partition so the refiner does
    #: not need a second pass.
    cut_slack: int = 0


class PartitionEstimator:
    """Prices cluster assignments for one loop at one initiation interval."""

    def __init__(self, loop: Loop, machine: MachineConfig, ii: int) -> None:
        self.loop = loop
        self.machine = machine
        self.ii = ii
        self._ddg = loop.ddg
        self._analysis = analyze(loop.ddg, ii)
        self._uids = loop.ddg.uids()
        # Compact per-edge tuples: (src, dst, latency, distance, carries).
        self._edges: List[Tuple[int, int, int, int, bool]] = [
            (dep.src, dep.dst, dep.latency, dep.distance, dep.carries_value)
            for dep in loop.ddg.edges()
        ]
        position = {uid: i for i, uid in enumerate(loop.ddg.topological_order())}
        self._edges.sort(key=lambda e: position[e[0]])
        self._edge_slacks: List[int] = [
            max(0, self._analysis.edge_slack(dep)) for dep in loop.ddg.edges()
        ]
        # Align precomputed slacks with the topo-sorted edge tuples.
        slack_of = {
            (dep.src, dep.dst, dep.latency, dep.distance, dep.carries_value): s
            for dep, s in zip(loop.ddg.edges(), self._edge_slacks)
        }
        self._sorted_edge_slacks = [slack_of[e] for e in self._edges]
        self._op_latency = {
            uid: loop.ddg.operation(uid).latency for uid in self._uids
        }
        self._class_of = {
            uid: _CLASS_INDEX[loop.ddg.operation(uid).op_class]
            for uid in self._uids
        }
        # units[cluster][class index]
        self._units = [
            [machine.cluster(c).units_for_class(cls) for cls in OpClass]
            for c in range(machine.num_clusters)
        ]
        self._bus_latency = machine.bus_latency
        self._num_buses = machine.num_buses
        self._clustered = machine.is_clustered
        # Index-based mirrors of the uid-keyed structures: the estimate is
        # the refinement loop's inner cost function, and list indexing beats
        # dict lookups in the per-move sweeps below.
        self._index_of = {uid: i for i, uid in enumerate(self._uids)}
        self._n = len(self._uids)
        self._iedges: List[Tuple[int, int, int, int, bool]] = [
            (self._index_of[src], self._index_of[dst], lat, distance, carries)
            for src, dst, lat, distance, carries in self._edges
        ]
        # (src index, dst index, is back edge) per edge, for the longest-path
        # sweeps.  A back edge's destination does not come after its source
        # in topological order; the edges are sorted by source position, so
        # a Bellman-Ford sweep in which no back edge relaxes has already
        # reached the fixpoint.
        self._sweep_edges: List[Tuple[int, int, bool]] = [
            (self._index_of[src], self._index_of[dst], position[dst] <= position[src])
            for src, dst, _l, _d, _c in self._edges
        ]
        # node index -> (dst index, edge index) of its out-edges, for the
        # worklist re-relaxation after a back edge relaxes.
        self._out_edges: List[List[Tuple[int, int]]] = [[] for _ in range(self._n)]
        # node index -> (src index, edge index) of its in-edges, for the
        # backward search over tight edges.
        self._in_edges: List[List[Tuple[int, int]]] = [[] for _ in range(self._n)]
        for i, (si, di, _back) in enumerate(self._sweep_edges):
            self._out_edges[si].append((di, i))
            self._in_edges[di].append((si, i))
        self._latency_arr = [self._op_latency[uid] for uid in self._uids]
        self._class_arr = [self._class_of[uid] for uid in self._uids]
        # ii -> per-edge base length (latency - ii*distance), reused across
        # the thousands of estimates the refiner prices at the same II.
        self._length_cache: Dict[int, List[int]] = {}
        # Value-carrying edges only, with their slack: the communication
        # sweep never looks at the rest.
        self._carry_edges: List[Tuple[int, int, int, int]] = [
            (i, si, di, self._sorted_edge_slacks[i])
            for i, (si, di, _lat, _dist, carries) in enumerate(self._iedges)
            if carries
        ]
        # The uncut critical path is nonincreasing in II, so its value at an
        # II no estimate can exceed bounds every partition's path from below
        # (lazily computed).
        self._nocut_path_floor: Optional[int] = None
        # ii -> uncut critical path, the stronger per-II path floor (valid
        # once ``ii`` is known to be feasible for the candidate's cut set).
        self._nocut_path_cache: Dict[int, Optional[int]] = {}
        # Smallest II feasible when *every* carry edge is cut — an upper
        # bound on any cut set's recurrence MII (more cut edges only
        # lengthen cycles), so ii >= this guarantees feasibility.
        self._all_cut_rec_mii: Optional[int] = None
        self._ii_ceiling = (
            sum(e[2] for e in self._edges)
            + self._bus_latency * len(self._edges)
            + ii
            + 1
        )
        # uid index -> incident value-carrying edge records, for the
        # delta-maintained CommState sessions.
        self._incident_carry: List[List[Tuple[int, int, int, int]]] = [
            [] for _ in range(self._n)
        ]
        for record in self._carry_edges:
            _i, si, di, _slack = record
            self._incident_carry[si].append(record)
            if di != si:
                self._incident_carry[di].append(record)

    # ------------------------------------------------------------------
    def estimate(
        self,
        assignment: Assignment,
        bound: Optional[int] = None,
        cluster_class_counts: Optional[Sequence[Sequence[int]]] = None,
        comm_state: "Optional[CommState]" = None,
    ) -> Optional[PartitionEstimate]:
        """Estimate the execution time of ``assignment`` (§3.2.2).

        When ``bound`` is given and a cheap lower bound on the execution
        time already exceeds it, returns None instead of paying for the
        remaining computation — the refiner passes its incumbent score so
        clearly-losing candidate moves are rejected early.  The pruning is
        exact: it fires only when the true estimate is strictly worse than
        ``bound``.

        ``cluster_class_counts[cluster][class index]`` — the operation
        counts the refiner already maintains incrementally — skips this
        function's own O(ops) recount.  ``comm_state`` — a
        :meth:`comm_session` the refiner keeps in step with its moves —
        skips the edge sweep entirely.  Callers must keep both consistent
        with ``assignment``.
        """
        if len(assignment) < self._n:
            missing = [uid for uid in self._uids if uid not in assignment]
            raise PartitionError(f"assignment misses operations {missing[:5]}")

        if comm_state is not None:
            return self._price(
                ncomm=comm_state.ncomm,
                cut_count=comm_state.cut_count,
                slack_total=comm_state.slack_total,
                get_comm_mem=comm_state.derive_comm_mem,
                cut_idx=comm_state.cut,
                bound=bound,
                cluster_class_counts=cluster_class_counts,
                assignment=assignment,
                start_times=comm_state.start_times,
            )
        # One fused sweep over the value-carrying edges: cut edge indices
        # (reused by the critical path), transfer pairs, per-cluster
        # memory-route usage and the cut slack the refiner tie-breaks on.
        asg = [assignment[uid] for uid in self._uids]
        cut_idx: List[int] = []
        pairs = set()
        slack_total = 0
        comm_mem = [0] * self.machine.num_clusters
        for i, si, di, slack in self._carry_edges:
            cs = asg[si]
            cd = asg[di]
            if cs == cd:
                continue
            cut_idx.append(i)
            slack_total += slack
            pair = (si, cd)
            if pair not in pairs:
                pairs.add(pair)
                comm_mem[cs] += 1
                comm_mem[cd] += 1
        return self._price(
            ncomm=len(pairs),
            cut_count=len(cut_idx),
            slack_total=slack_total,
            get_comm_mem=lambda: comm_mem,
            cut_idx=cut_idx,
            bound=bound,
            cluster_class_counts=cluster_class_counts,
            assignment=assignment,
            asg=asg,
        )

    def _price(
        self,
        ncomm: int,
        cut_count: int,
        slack_total: int,
        get_comm_mem,
        cut_idx,
        bound: Optional[int],
        cluster_class_counts: Optional[Sequence[Sequence[int]]],
        assignment: Optional[Assignment] = None,
        asg: Optional[List[int]] = None,
        start_times: Optional[Callable[[int], Optional[List[int]]]] = None,
    ) -> Optional[PartitionEstimate]:
        """Pricing tail of :meth:`estimate`.

        ``get_comm_mem`` is lazy: the memory-route usage is only derived on
        bus overflow.  ``start_times(ii)`` — when given — supplies the
        longest-path start times of the priced cut set, which a live
        session caches.
        """
        if cluster_class_counts is None and asg is None:
            asg = [assignment[uid] for uid in self._uids]
        bounded = self._bounded_ii(
            ncomm, cut_count, slack_total, get_comm_mem, cluster_class_counts,
            asg, bound,
        )
        if bounded is None:
            return None
        ii_bus, ii_est = bounded
        if start_times is None:

            def start_times(ii: int) -> Optional[List[int]]:
                return self._start_times(self._lengths(cut_idx, ii))

        dist = start_times(ii_est)
        if dist is None:
            ii_est = self._rec_mii_with_cut(cut_idx, lower_bound=ii_est)
            dist = start_times(ii_est)
            if dist is None:  # pragma: no cover - defensive
                raise PartitionError("estimator failed to converge")
        return self._estimate_of(
            ii_bus, ii_est, dist, ncomm, cut_count, slack_total
        )

    def _estimate_of(
        self,
        ii_bus: int,
        ii_est: int,
        dist: List[int],
        ncomm: int,
        cut_count: int,
        slack_total: int,
    ) -> PartitionEstimate:
        """The estimate of a partition priced at ``ii_est`` with longest-path
        start times ``dist``."""
        path = max(map(add, dist, self._latency_arr)) if dist else 0
        return PartitionEstimate(
            exec_time=(self.loop.trip_count - 1) * ii_est + path,
            ii_est=ii_est,
            ii_bus=ii_bus,
            ncomm=ncomm,
            cut_edges=cut_count,
            critical_path=path,
            cut_slack=slack_total,
        )

    def _bounded_ii(
        self,
        ncomm: int,
        cut_count: int,
        slack_total: int,
        get_comm_mem,
        counts: Optional[Sequence[Sequence[int]]],
        asg: Optional[Sequence[int]],
        bound: Optional[int],
        incumbent: Optional[Tuple[int, int, int]] = None,
        live_floor: Optional[Callable[[int], Optional[int]]] = None,
    ) -> Optional[Tuple[int, int]]:
        """``(ii_bus, ii_est)`` of a partition, or None when the exact bound
        prunes prove it cannot beat ``bound`` (or ``incumbent``).

        Everything here reads the partition's totals, its class counts
        (``counts``, else recounted from ``asg``) and, on bus overflow, its
        memory-route usage — never the cut set itself, so the refiner can
        run it from a score-delta table entry (:meth:`may_beat`).

        ``incumbent`` — a full ``(exec_time, -cut_slack, cut_edges)`` score
        to beat — lets the second prune settle exec-time ties on the slack
        and cut count it already knows.  ``live_floor(ii)`` may return a
        further lower bound on the critical path at a feasible ``ii`` (see
        :meth:`CommState.live_path_floor`).
        """
        ii_bus = (
            math.ceil(ncomm * self._bus_latency / self._num_buses)
            if (self._clustered and ncomm)
            else 0
        )
        trip = self.loop.trip_count - 1
        if bound is not None:
            # Early exact prune: ii_est can only be >= max(ii, ii_bus), and
            # no partition's critical path undercuts the uncut floor.
            floor = self._path_floor()
            if floor is not None and (
                trip * max(self.ii, ii_bus) + floor > bound
            ):
                return None
        # Transfers the bus cannot absorb at the requested interval will go
        # through memory (§3.1/§3.3.2): a store in the producer's cluster
        # plus a load in the consumer's.  Charge that port usage to the
        # partition so refinement keeps memory headroom for it.
        overflow_fraction = 0.0
        if ncomm and self._clustered:
            bus_capacity = (self.ii * self._num_buses) // self._bus_latency
            overflow = max(0, ncomm - bus_capacity)
            overflow_fraction = overflow / ncomm
        if overflow_fraction > 0.0:
            mem_extra: Optional[List[float]] = [
                usage * overflow_fraction for usage in get_comm_mem()
            ]
        else:
            mem_extra = None
        if counts is not None:
            res_ii = self._res_mii_from_counts(counts, mem_extra)
        else:
            res_ii = self._cluster_res_mii(asg, mem_extra)
        ii_est = max(self.ii, ii_bus, res_ii)

        if bound is not None:
            # Second exact prune with the tighter ii_est.  When ii_est is
            # provably feasible for any cut set (>= the all-cut recurrence
            # MII) the uncut path *at ii_est* is a valid floor, and so is a
            # live floor; otherwise the II could still rise and shrink the
            # path, so only the global floor is sound.
            if ii_est >= self._all_cut_mii():
                # A candidate wins only with a score strictly below the
                # incumbent, and its exec time is at least trip * ii_est
                # plus a path floor (a pressure penalty only raises it
                # further).
                base = trip * ii_est
                floor = self._nocut_at(ii_est)
                if floor is not None and _loses(
                    base + floor, slack_total, cut_count, bound, incumbent
                ):
                    return None
                if live_floor is not None:
                    floor = live_floor(ii_est)
                    if floor is not None and _loses(
                        base + floor, slack_total, cut_count, bound, incumbent
                    ):
                        return None
            else:
                floor = self._path_floor()
                if floor is not None and trip * ii_est + floor > bound:
                    return None
        return ii_bus, ii_est

    def may_beat(
        self,
        incumbent: Tuple[int, int, int],
        comm: "CommState",
        entry: "ScoreDelta",
        cluster_class_counts: Sequence[Sequence[int]],
    ) -> Optional[Tuple[int, int]]:
        """The bound prunes of a candidate described by its score-delta
        ``entry`` over the live ``comm``, against the full score
        ``incumbent``.

        ``cluster_class_counts`` are the class counts after the moves.  The
        path floor is the uncut path or, when the moves un-cut no critical
        edge, the live critical path (:meth:`CommState.live_path_floor`).
        None proves the candidate's score is not strictly below
        ``incumbent``; a survivor gets its ``(ii_bus, ii_est)``, which
        :meth:`estimate_preview` prices it from.
        """
        dn, dcut, dslack, uncut, _newly_cut, dmem = entry
        return self._bounded_ii(
            comm.ncomm + dn,
            comm.cut_count + dcut,
            comm.slack_total + dslack,
            lambda: list(map(add, comm.derive_comm_mem(), dmem)),
            cluster_class_counts,
            None,
            incumbent[0],
            incumbent,
            lambda ii: comm.live_path_floor(ii, uncut),
        )

    #: Whether refiners may score candidate moves through
    #: :meth:`estimate_preview`.  Subclasses whose objective cannot be
    #: priced from a score-delta entry set this False, as the
    #: pressure-aware estimator does (see :mod:`repro.partition.pressure`).
    supports_preview = True

    def estimate_preview(
        self,
        comm: "CommState",
        entry: "ScoreDelta",
        bounded: Tuple[int, int],
    ) -> Tuple[PartitionEstimate, "StartTimes"]:
        """Price a candidate that survived :meth:`may_beat`, without
        mutating any state.

        ``entry`` is the candidate's score-delta entry over the live
        ``comm`` and ``bounded`` the ``(ii_bus, ii_est)`` :meth:`may_beat`
        returned for it.  The estimate comes with the ``(ii, lengths,
        start times)`` it priced, which :meth:`CommState.adopt` takes once
        the moves are applied.
        """
        dn, dcut, dslack, uncut, newly_cut, _dmem = entry
        ii_bus, ii_est = bounded
        lengths, dist = comm.start_times_after(ii_est, uncut, newly_cut)
        if dist is None:
            cut = comm.cut.difference(uncut).union(newly_cut)
            ii_est = self._rec_mii_with_cut(cut, lower_bound=ii_est)
            lengths, dist = comm.start_times_after(ii_est, uncut, newly_cut)
            if dist is None:  # pragma: no cover - defensive
                raise PartitionError("estimator failed to converge")
        estimate = self._estimate_of(
            ii_bus,
            ii_est,
            dist,
            comm.ncomm + dn,
            comm.cut_count + dcut,
            comm.slack_total + dslack,
        )
        return estimate, (ii_est, lengths, dist)

    def max_ncomm(self, bound: int) -> float:
        """The largest transfer count that survives the first bound prune.

        A candidate with more transfers than this has ``exec_time > bound``
        whatever else it does, so the refiner rejects it from its transfer
        count alone, before walking its full score delta.  Returns
        ``math.inf`` when the prune cannot fire and -1 when it rejects
        every candidate.
        """
        floor = self._path_floor()
        if floor is None:
            return math.inf
        trip = self.loop.trip_count - 1
        if trip * self.ii + floor > bound:
            return -1
        if not self._clustered or trip <= 0:
            return math.inf
        # trip * max(ii, ceil(ncomm * lat / buses)) + floor <= bound
        return (bound - floor) // trip * self._num_buses // self._bus_latency

    def _path_floor(self) -> Optional[int]:
        """The uncut critical path at an II no estimate can exceed.

        Edge lengths are nonincreasing in II, so this value bounds every
        partition's critical path (at any feasible ``ii_est``) from below.
        """
        if self._nocut_path_floor is None:
            self._nocut_path_floor = self._longest_path(None, self._ii_ceiling)
        return self._nocut_path_floor

    def _nocut_at(self, ii: int) -> Optional[int]:
        """The uncut critical path at ``ii`` (cached per II)."""
        if ii in self._nocut_path_cache:
            return self._nocut_path_cache[ii]
        path = self._longest_path(None, ii)
        self._nocut_path_cache[ii] = path
        return path

    def _all_cut_mii(self) -> int:
        """Smallest II feasible with every carry edge cut (lazily cached)."""
        if self._all_cut_rec_mii is None:
            all_cut = [record[0] for record in self._carry_edges]
            self._all_cut_rec_mii = self._rec_mii_with_cut(all_cut, lower_bound=1)
        return self._all_cut_rec_mii

    # ------------------------------------------------------------------
    def _cluster_res_mii(
        self, asg: Sequence[int], mem_extra: Optional[Sequence[float]] = None
    ) -> int:
        """Resource MII over clusters; ``asg`` is indexed like ``_uids``."""
        counts = [
            [0] * len(OpClass) for _ in range(self.machine.num_clusters)
        ]
        class_arr = self._class_arr
        for i in range(self._n):
            counts[asg[i]][class_arr[i]] += 1
        return self._res_mii_from_counts(counts, mem_extra)

    def _res_mii_from_counts(
        self,
        counts: Sequence[Sequence[int]],
        mem_extra: Optional[Sequence[float]] = None,
    ) -> int:
        mem_index = _MEM_INDEX
        worst = 1
        for cluster, (row, units) in enumerate(zip(counts, self._units)):
            for count, unit in zip(row, units):
                if count:
                    if not unit:
                        return _INFEASIBLE_II
                    if count > worst * unit:
                        worst = -(-count // unit)  # ceil
            # Memory-routed transfers only add to the MEM class (and so
            # only raise its need above the one just taken).
            if mem_extra is not None:
                extra = math.ceil(mem_extra[cluster])
                if extra:
                    unit = units[mem_index]
                    if not unit:
                        return _INFEASIBLE_II
                    count = row[mem_index] + extra
                    if count > worst * unit:
                        worst = -(-count // unit)
        return worst

    def _longest_path(
        self, cut_idx: Optional[Sequence[int]], ii: int
    ) -> Optional[int]:
        """Critical path with bus delays on cut DATA edges, or None if the
        modified recurrences make ``ii`` infeasible.

        ``cut_idx`` lists the cut edges' indices into ``_iedges`` (None =
        no cut edges); the per-edge base lengths are cached per II across
        estimates.
        """
        if not self._n:
            return 0
        dist = self._start_times(self._lengths(cut_idx, ii))
        if dist is None:
            return None
        return max(map(add, dist, self._latency_arr))

    def _lengths(self, cut_idx: Optional[Sequence[int]], ii: int) -> List[int]:
        """Per-edge lengths at ``ii``, bus latency added on the cut edges."""
        base = self._length_cache.get(ii)
        if base is None:
            base = [lat - ii * distance for _si, _di, lat, distance, _c in self._iedges]
            self._length_cache[ii] = base
        if not cut_idx:
            return base
        lengths = list(base)
        bus = self._bus_latency
        for i in cut_idx:
            lengths[i] += bus
        return lengths

    def _start_times(self, lengths: Sequence[int]) -> Optional[List[int]]:
        """Longest-path start times, or None on a positive cycle.

        The first sweep follows the topological edge order, so unless a
        back edge relaxes in it, it has already reached the fixpoint.
        Otherwise only the destinations of the relaxed back edges can
        have unsatisfied out-edges, and :meth:`_settle` re-relaxes from
        them.  This is the only full longest-path sweep.
        """
        dist = [0] * self._n
        seeds: List[int] = []
        for (si, di, back), length in zip(self._sweep_edges, lengths):
            cand = dist[si] + length
            if cand > dist[di]:
                dist[di] = cand
                if back:
                    seeds.append(di)
        if not seeds:
            return dist
        return self._settle(dist, lengths, seeds)

    def _recut(
        self, lengths: Sequence[int], uncut: Sequence[int], newly_cut: Sequence[int]
    ) -> List[int]:
        """``lengths`` with the bus latency taken off the edges ``uncut``
        and put on the edges ``newly_cut`` (a new list)."""
        out = list(lengths)
        bus = self._bus_latency
        for i in uncut:
            out[i] -= bus
        for i in newly_cut:
            out[i] += bus
        return out

    def _keeps_fixpoint(
        self, dist: Sequence[int], lengths: Sequence[int], uncut: Sequence[int]
    ) -> bool:
        """Whether shortening the edges ``uncut`` leaves ``dist`` — the
        fixpoint of ``lengths`` — the least fixpoint.

        Every longest path runs over *tight* edges (``dist[u] + len ==
        dist[v]``), so when no shortened edge is tight every longest path
        keeps its length.
        """
        edges = self._sweep_edges
        for i in uncut:
            si, di, _back = edges[i]
            if dist[si] + lengths[i] == dist[di]:
                return False
        return True

    def _raise(
        self, dist: List[int], lengths: Sequence[int], grown: Sequence[int]
    ) -> Optional[List[int]]:
        """Start times after the edges ``grown`` lengthened, from ``dist``.

        ``dist`` must be the fixpoint of the lengths before the change (it
        is updated in place).  Lengthening edges only raises the least
        fixpoint, so ``dist`` starts below the new one, and relaxing the
        grown edges then settling from the raised destinations converges
        to it exactly — or returns None on a positive cycle.
        """
        edges = self._sweep_edges
        seeds: List[int] = []
        for i in grown:
            si, di, _back = edges[i]
            cand = dist[si] + lengths[i]
            if cand > dist[di]:
                dist[di] = cand
                seeds.append(di)
        if not seeds:
            return dist
        return self._settle(dist, lengths, seeds)

    def _settle(
        self, dist: List[int], lengths: Sequence[int], seeds: Sequence[int]
    ) -> Optional[List[int]]:
        """Re-relax from ``seeds`` — the only nodes with unsatisfied
        out-edges — to the fixpoint, or None on a positive cycle.

        A FIFO worklist reaches the same (unique least) fixpoint a repeated
        whole-graph sweep would.  Without a positive cycle no node is
        queued more than ``n`` times.
        """
        n = self._n
        out_edges = self._out_edges
        queued = [False] * n
        pushes = [0] * n
        queue: Deque[int] = deque()
        for di in seeds:
            if not queued[di]:
                queued[di] = True
                pushes[di] = 1
                queue.append(di)
        while queue:
            u = queue.popleft()
            queued[u] = False
            du = dist[u]
            for di, i in out_edges[u]:
                cand = du + lengths[i]
                if cand > dist[di]:
                    dist[di] = cand
                    if not queued[di]:
                        pushes[di] += 1
                        if pushes[di] > n:
                            return None
                        queued[di] = True
                        queue.append(di)
        return dist

    def _critical_edges(
        self, dist: Sequence[int], lengths: Sequence[int], cut: Set[int]
    ) -> Tuple[int, FrozenSet[int]]:
        """The critical path of start times ``dist`` and the edges of
        ``cut`` lying on a critical path.

        Every edge of a longest path is *tight* (``dist[u] + len ==
        dist[v]``).  So a node lies on a critical path exactly when it ends
        one (``dist + latency == path``) or a tight edge leads from it to
        such a node, and an edge lies on one exactly when it is tight and
        its destination does.  A search backwards over tight edges from the
        path's ends finds them, touching only the critical subgraph instead
        of sweeping every edge for the tails.
        """
        ends = list(map(add, dist, self._latency_arr))
        path = max(ends)
        stack = [ends.index(path)]
        while True:
            try:
                stack.append(ends.index(path, stack[-1] + 1))
            except ValueError:
                break
        seen = set(stack)
        found: List[int] = []
        in_edges = self._in_edges
        while stack:
            w = stack.pop()
            dw = dist[w]
            for u, i in in_edges[w]:
                if dist[u] + lengths[i] == dw:
                    if i in cut:
                        found.append(i)
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
        return path, frozenset(found)

    # ------------------------------------------------------------------
    def comm_session(self, assignment: Assignment) -> "CommState":
        """Start a delta-maintained communication-state session.

        The refiner prices hundreds of single-group moves against one base
        assignment; a session keeps the cut set, transfer pairs, slack and
        memory-route usage incrementally (O(degree) per move) instead of
        re-sweeping every edge per candidate.  Callers must mirror every
        assignment mutation through :meth:`CommState.move_uids`.
        """
        return CommState(self, assignment)

    def ncomm_dependents(self) -> List[Tuple[int, ...]]:
        """uid index -> the uid indices whose move delta reads its cluster.

        :meth:`CommState.preview_delta` for moving a group G reads the
        clusters of D(G): G, its carry predecessors and successors, and
        the carry successors of those predecessors (the pair counts of
        every producer it touches, and the producers' clusters the
        memory-route charge sits on).  So u is in D({g}) exactly when g is
        u, a carry successor or predecessor of u, or a carry successor of
        one of u's predecessors.  A refiner caching per-group score deltas
        drops the entries of these groups when u moves.
        """
        succ: List[Set[int]] = [set() for _ in range(self._n)]
        pred: List[Set[int]] = [set() for _ in range(self._n)]
        for _i, si, di, _slack in self._carry_edges:
            succ[si].add(di)
            pred[di].add(si)
        out: List[Tuple[int, ...]] = []
        for u in range(self._n):
            reach = {u} | succ[u] | pred[u]
            for p in pred[u]:
                reach |= succ[p]
            out.append(tuple(sorted(reach)))
        return out

    def _rec_mii_with_cut(self, cut_idx: Sequence[int], lower_bound: int) -> int:
        lo = lower_bound
        if self._longest_path(cut_idx, lo) is not None:
            return lo
        hi = max(
            lo + 1,
            sum(e[2] for e in self._edges)
            + self._bus_latency * len(self._edges)
            + 1,
        )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._longest_path(cut_idx, mid) is None:
                lo = mid
            else:
                hi = mid
        return hi


#: A score-delta entry: the change a move set makes to the transfer count,
#: the cut-edge count and the cut slack, the carry edges it un-cuts and
#: those it newly cuts, and the per-cluster change of the memory-route
#: charge (see :meth:`CommState.preview_delta`).
ScoreDelta = Tuple[
    int, int, int, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]
]

#: One group move of a score-delta walk: (uid index set, carry records,
#: target).
GroupMove = Tuple[FrozenSet[int], Sequence[Tuple[int, int, int, int]], int]

#: A priced cut set's ``(ii, edge lengths, longest-path start times)``.
StartTimes = Tuple[int, List[int], List[int]]


class CommState:
    """Delta-maintained communication state of one refinement session.

    Mirrors exactly what :meth:`PartitionEstimator.estimate`'s full edge
    sweep derives — the cut edge set, distinct (producer, remote cluster)
    transfer pairs, cut slack and per-cluster memory-route usage — but
    updated per moved operation instead of per edge.  It also caches, per
    II, the live cut set's edge lengths, longest-path start times and
    critical cut edges until the next move; the refinement round's applied
    winner hands its start times over (:meth:`adopt`).  :meth:`verify`
    cross-checks all of it against the full sweep and is exercised by the
    tests.
    """

    __slots__ = (
        "est",
        "asg",
        "edge_clusters",
        "cut",
        "slack_total",
        "pair_counts",
        "_lengths",
        "_starts",
        "_critical",
        "_comm_mem",
    )

    def __init__(self, est: PartitionEstimator, assignment: Assignment) -> None:
        self.est = est
        self.asg = [assignment[uid] for uid in est._uids]
        self.edge_clusters: Dict[int, Tuple[int, int]] = {}
        self.cut: Set[int] = set()
        self.slack_total = 0
        self.pair_counts: Dict[Tuple[int, int], int] = {}
        # Derived views of the live assignment, dropped by every move:
        # ii -> edge lengths, start times (None if infeasible) and
        # :meth:`critical_at`; and :meth:`derive_comm_mem`.
        self._lengths: Dict[int, List[int]] = {}
        self._starts: Dict[int, Optional[List[int]]] = {}
        self._critical: Dict[int, Optional[Tuple[int, FrozenSet[int]]]] = {}
        self._comm_mem: Optional[List[int]] = None
        asg = self.asg
        for i, si, di, slack in est._carry_edges:
            cs = asg[si]
            cd = asg[di]
            self.edge_clusters[i] = (cs, cd)
            if cs != cd:
                self._add_cut(i, si, slack, cd)

    # -- internal ------------------------------------------------------
    def _add_cut(self, i: int, si: int, slack: int, cd: int) -> None:
        self.cut.add(i)
        self.slack_total += slack
        pair = (si, cd)
        self.pair_counts[pair] = self.pair_counts.get(pair, 0) + 1

    def _remove_cut(self, i: int, si: int, slack: int, cd: int) -> None:
        self.cut.discard(i)
        self.slack_total -= slack
        pair = (si, cd)
        count = self.pair_counts[pair] - 1
        if count:
            self.pair_counts[pair] = count
        else:
            del self.pair_counts[pair]

    def _forget(self) -> None:
        self._lengths.clear()
        self._starts.clear()
        self._critical.clear()
        self._comm_mem = None

    def derive_comm_mem(self) -> List[int]:
        """Per-cluster memory-route usage of the current transfer pairs.

        Derived on demand from the live pair set: the producer's cluster is
        read from the *current* assignment, so producer moves that keep a
        pair alive charge the right cluster (a running counter updated on
        pair create/destroy would go stale).  Cached until the next move;
        returns a fresh list.
        """
        if self._comm_mem is None:
            mem = [0] * self.est.machine.num_clusters
            asg = self.asg
            for si, cd in self.pair_counts:
                mem[asg[si]] += 1
                mem[cd] += 1
            self._comm_mem = mem
        return list(self._comm_mem)

    # -- updates -------------------------------------------------------
    def records_for(self, uids: Sequence[int]) -> Tuple[Tuple[int, int, int, int], ...]:
        """Deduplicated incident carry-edge records of a group of uids.

        The refiner precomputes these per hierarchy group so repeated
        trial moves of the same group skip the per-uid union.
        """
        est = self.est
        index_of = est._index_of
        affected: Dict[int, Tuple[int, int, int, int]] = {}
        for uid in uids:
            for record in est._incident_carry[index_of[uid]]:
                affected[record[0]] = record
        return tuple(affected.values())

    def index_set(self, uids: Sequence[int]) -> FrozenSet[int]:
        """The uid indices of a group, as :meth:`preview_delta` and
        :meth:`preview_ncomm` take them."""
        index_of = self.est._index_of
        return frozenset(index_of[uid] for uid in uids)

    def move_uids(
        self,
        uids: Sequence[int],
        target: int,
        records: Optional[Sequence[Tuple[int, int, int, int]]] = None,
    ) -> None:
        """Reassign ``uids`` to cluster ``target`` and update the state.

        ``records`` — the precomputed :meth:`records_for` of ``uids`` —
        skips re-deriving the incident edge set per move.
        """
        est = self.est
        index_of = est._index_of
        asg = self.asg
        if records is None:
            records = self.records_for(uids)
        self._forget()
        for uid in uids:
            asg[index_of[uid]] = target
        edge_clusters = self.edge_clusters
        for i, si, di, slack in records:
            old_cs, old_cd = edge_clusters[i]
            new_cs = asg[si]
            new_cd = asg[di]
            if old_cs == new_cs and old_cd == new_cd:
                continue
            if old_cs != old_cd:
                self._remove_cut(i, si, slack, old_cd)
            if new_cs != new_cd:
                self._add_cut(i, si, slack, new_cd)
            edge_clusters[i] = (new_cs, new_cd)

    def adopt(self, times: StartTimes) -> None:
        """Take over the ``times`` :meth:`PartitionEstimator.estimate_preview`
        priced a candidate at.

        The caller has just applied the candidate's moves, so its cut set is
        the live one and its lengths and start times are the live ones at
        the II it priced.
        """
        ii, lengths, dist = times
        self._lengths[ii] = lengths
        self._starts[ii] = dist

    def preview_ncomm(self, moves: Sequence[GroupMove]) -> int:
        """The transfer count after ``moves``, and nothing else.

        Takes ``moves`` as :meth:`preview_delta` does and equals the live
        count plus that entry's transfer-count change, at a fraction of the
        cost: the refiner rejects most candidates on this count alone (see
        :meth:`PartitionEstimator.max_ncomm`).
        """
        members, records, target = moves[0]
        if len(moves) > 1:
            other, other_records, other_target = moves[1]
            records = {r[0]: r for r in (*records, *other_records)}.values()
        else:
            other, other_target = (), None
        asg = self.asg
        pair_counts = self.pair_counts
        ncomm = len(pair_counts)
        pair_delta: Dict[Tuple[int, int], int] = {}
        for _i, si, di, _slack in records:
            old_cs = asg[si]
            old_cd = asg[di]
            new_cs = (
                target if si in members
                else other_target if si in other else old_cs
            )
            new_cd = (
                target if di in members
                else other_target if di in other else old_cd
            )
            if old_cs == new_cs and old_cd == new_cd:
                continue
            if old_cs != old_cd:
                pair = (si, old_cd)
                delta = pair_delta.get(pair, 0) - 1
                pair_delta[pair] = delta
                if pair_counts.get(pair, 0) + delta == 0:
                    ncomm -= 1
            if new_cs != new_cd:
                pair = (si, new_cd)
                delta = pair_delta.get(pair, 0)
                if pair_counts.get(pair, 0) + delta == 0:
                    ncomm += 1
                pair_delta[pair] = delta + 1
        return ncomm

    def preview_delta(self, moves: Sequence[GroupMove]) -> ScoreDelta:
        """The score-delta entry of ``moves``, and nothing else.

        ``moves`` holds one ``(index_set, records, target_cluster)`` group
        move, or two for a swap; ``index_set`` is the group's
        :meth:`index_set`.  The entry is the candidate's only description:
        its totals minus the live ones, the edges it un-cuts and newly
        cuts, and its memory-route usage minus the live usage equal those
        of a fresh session of the moved assignment.
        """
        members, records, target = moves[0]
        if len(moves) > 1:
            other, other_records, other_target = moves[1]
            records = {r[0]: r for r in (*records, *other_records)}.values()
        else:
            other, other_target = (), None
        asg = self.asg
        pair_counts = self.pair_counts
        dn = dcut = dslack = 0
        uncut: List[int] = []
        newly_cut: List[int] = []
        pair_delta: Dict[Tuple[int, int], int] = {}
        for i, si, di, slack in records:
            old_cs = asg[si]
            old_cd = asg[di]
            new_cs = (
                target if si in members
                else other_target if si in other else old_cs
            )
            new_cd = (
                target if di in members
                else other_target if di in other else old_cd
            )
            if old_cs == new_cs and old_cd == new_cd:
                continue
            was_cut = old_cs != old_cd
            is_cut = new_cs != new_cd
            if was_cut:
                pair = (si, old_cd)
                delta = pair_delta.get(pair, 0) - 1
                pair_delta[pair] = delta
                if pair_counts.get(pair, 0) + delta == 0:
                    dn -= 1
                if not is_cut:
                    dcut -= 1
                    dslack -= slack
                    uncut.append(i)
            if is_cut:
                pair = (si, new_cd)
                delta = pair_delta.get(pair, 0)
                if pair_counts.get(pair, 0) + delta == 0:
                    dn += 1
                pair_delta[pair] = delta + 1
                if not was_cut:
                    dcut += 1
                    dslack += slack
                    newly_cut.append(i)
        # Only pairs in ``pair_delta`` change their charge.  That includes
        # every live pair whose producer changes cluster, because the
        # producer's edge behind such a pair was cut and changes its
        # clusters, so the walk counted it down.
        mem = [0] * self.est.machine.num_clusters
        for (si, cd), delta in pair_delta.items():
            count = pair_counts.get((si, cd), 0)
            if count:
                mem[asg[si]] -= 1
                mem[cd] -= 1
            if count + delta > 0:
                mem[
                    target if si in members
                    else other_target if si in other else asg[si]
                ] += 1
                mem[cd] += 1
        return dn, dcut, dslack, tuple(uncut), tuple(newly_cut), tuple(mem)

    # -- queries -------------------------------------------------------
    @property
    def ncomm(self) -> int:
        return len(self.pair_counts)

    @property
    def cut_count(self) -> int:
        return len(self.cut)

    def lengths_at(self, ii: int) -> List[int]:
        """The live cut set's edge lengths at ``ii`` (cached until a move)."""
        lengths = self._lengths.get(ii)
        if lengths is None:
            lengths = self._lengths[ii] = self.est._lengths(self.cut, ii)
        return lengths

    def start_times(self, ii: int) -> Optional[List[int]]:
        """The live longest-path start times at ``ii``, or None if ``ii``
        is infeasible for the live cut set (cached until a move)."""
        starts = self._starts
        if ii not in starts:
            starts[ii] = self.est._start_times(self.lengths_at(ii))
        return starts[ii]

    def critical_at(self, ii: int) -> Optional[Tuple[int, FrozenSet[int]]]:
        """The live assignment's critical path at ``ii`` and its critical
        cut edges (cached until the next move; None if ``ii`` is
        infeasible for the live cut set).

        An edge ``u -> v`` is critical when ``dist[u] + len + tail[v]``
        equals the path, ``tail[v]`` being the longest path from ``v``'s
        start to the end of the iteration (see
        :meth:`PartitionEstimator._critical_edges`).
        """
        critical = self._critical
        if ii not in critical:
            dist = self.start_times(ii)
            critical[ii] = None if dist is None else self.est._critical_edges(
                dist, self.lengths_at(ii), self.cut
            )
        return critical[ii]

    def start_times_after(
        self, ii: int, uncut: Sequence[int], newly_cut: Sequence[int]
    ) -> Tuple[List[int], Optional[List[int]]]:
        """Edge lengths and longest-path start times at ``ii`` (None if
        infeasible) of the live cut set less ``uncut`` plus ``newly_cut``.

        When no edge of ``uncut`` is tight in the live start times
        (:meth:`PartitionEstimator._keeps_fixpoint`), the live fixpoint
        stays in place, and lengthening the newly cut edges only raises
        it: the start times relax from the live ones
        (:meth:`PartitionEstimator._raise`).  Otherwise they pay a full
        sweep.
        """
        est = self.est
        live_lengths = self.lengths_at(ii)
        lengths = est._recut(live_lengths, uncut, newly_cut)
        # Only live start times already derived are worth checking when
        # edges are un-cut: a tight one would pay a second sweep.
        live = self._starts.get(ii) if uncut else self.start_times(ii)
        if live is not None and est._keeps_fixpoint(live, live_lengths, uncut):
            if newly_cut:
                dist = est._raise(list(live), lengths, newly_cut)
            else:
                dist = live
        elif uncut:
            dist = est._start_times(lengths)
        else:
            dist = None  # infeasible live, and only lengthened
        return lengths, dist

    def live_path_floor(self, ii: int, uncut: Sequence[int]) -> Optional[int]:
        """A floor on the critical path, at a feasible ``ii``, of a move
        set that un-cuts the carry edges ``uncut``.

        If no un-cut edge lies on a critical path of the live assignment,
        every such path keeps (or grows) its length, so the live critical
        path bounds the moved one's from below.  Returns None when that
        does not hold.
        """
        live = self.critical_at(ii)
        if live is None:
            return None
        path, critical = live
        return path if critical.isdisjoint(uncut) else None

    def verify(self, assignment: Assignment) -> None:
        """Assert this state equals a fresh full-sweep derivation."""
        fresh = CommState(self.est, assignment)
        if (
            self.asg != fresh.asg
            or self.cut != fresh.cut
            or self.slack_total != fresh.slack_total
            or self.pair_counts != fresh.pair_counts
            or self.edge_clusters != fresh.edge_clusters
            or self.derive_comm_mem() != fresh.derive_comm_mem()
            or any(
                cached != fresh.lengths_at(ii)
                for ii, cached in self._lengths.items()
            )
            or any(
                cached != fresh.start_times(ii)
                for ii, cached in self._starts.items()
            )
            or any(
                cached != fresh.critical_at(ii)
                for ii, cached in self._critical.items()
            )
        ):
            raise AssertionError(
                "delta-maintained CommState diverged from the full sweep"
            )

