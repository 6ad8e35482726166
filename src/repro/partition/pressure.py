"""Register-pressure-aware partitioning (extension).

The paper observes (§4.2) that its partitioner ignores register pressure,
which occasionally hurts register-starved configurations (hydro2d/mgrid on
the 4-cluster, 32-register machine), and names pressure-aware partitioning
as future work.  This module implements that extension: an estimator whose
objective adds a penalty when the partition's estimated per-cluster register
pressure exceeds the cluster's register file.

Pressure is estimated analytically from the II-parametric analysis, without
scheduling: a value born at ``asap(producer) + latency`` and last read at
``max(asap(consumer) + II x distance)`` occupies roughly
``lifetime / II`` registers of its producer's cluster in the steady state
(plus one register in every cluster it is communicated to).

The estimate decomposes per cluster into two *integers* — the summed
lifetimes of the values homed there, and the number of (value, remote
cluster) copy pairs — divided by II only at the end.  That makes the
quantity maintainable by exact integer deltas: :class:`PressureState`
mirrors :class:`~repro.partition.estimator.CommState` (one session per
refinement run, O(moved-node-degree) updates per move, mutation-free
previews), so the pressure-aware ablation scores refinement candidates at
the same speed as the main path instead of re-deriving pressure from the
full assignment per candidate.  :func:`estimate_register_pressure` stays
the from-scratch reference; :meth:`PressureState.verify` cross-checks
against it and the property tests enforce exact equality.

Note the canonical decomposition deliberately replaces the historical
per-value float accumulation (``+= lifetime/II`` in uid order), whose
result depended on summation order and therefore could not be maintained
by delta.  The two differ by ULPs per cluster; where that nudged a
``ceil`` of the penalty across an integer boundary, one refinement tie
flipped — the ablation artifact's pressure-aware average IPC moved from
5.509 to 5.495 (baseline unchanged).  The main scheduling path never
uses this estimator, so paper/extended-tier results are unaffected.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.analysis import LoopAnalysis, analyze
from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .estimator import (
    Assignment,
    CommPreview,
    CommState,
    PartitionEstimate,
    PartitionEstimator,
)


def _pressure_terms(
    loop: Loop, ii: int, analysis: Optional[LoopAnalysis] = None
) -> List[Tuple[int, int, List[Tuple[int, int]]]]:
    """Per-producer pressure constants: (producer uid, lifetime, consumers).

    ``consumers`` lists ``(consumer uid, dependence count)`` pairs.  Stores
    and dead values contribute nothing.  Everything here is a function of
    the graph and II only, so sessions share one precomputation.
    """
    ddg = loop.ddg
    if analysis is None:
        analysis = analyze(ddg, ii)
    terms: List[Tuple[int, int, List[Tuple[int, int]]]] = []
    for uid in ddg.uids():
        op = ddg.operation(uid)
        uses = ddg.consumers_of_value(uid)
        if op.is_store or not uses:
            continue
        birth = analysis.asap[uid] + op.latency
        death = max(analysis.asap[dep.dst] + ii * dep.distance for dep in uses)
        lifetime = max(death - birth, 1)
        per: Dict[int, int] = {}
        for dep in uses:
            per[dep.dst] = per.get(dep.dst, 0) + 1
        terms.append((uid, lifetime, sorted(per.items())))
    return terms


def estimate_register_pressure(
    loop: Loop, assignment: Assignment, ii: int, analysis: LoopAnalysis = None
) -> Dict[int, float]:
    """Steady-state register pressure each cluster would sustain.

    Returns a map cluster -> estimated registers in use, computed as
    ``(summed home lifetimes) / II + (remote copy count)`` per cluster —
    the canonical integer decomposition :class:`PressureState` maintains
    by delta, so the two agree exactly.
    """
    home_life: Dict[int, int] = {}
    remote: Dict[int, int] = {}
    for producer, lifetime, consumers in _pressure_terms(loop, ii, analysis):
        home = assignment[producer]
        home_life[home] = home_life.get(home, 0) + lifetime
        for cluster in {assignment[uid] for uid, _count in consumers} - {home}:
            remote[cluster] = remote.get(cluster, 0) + 1
    pressure: Dict[int, float] = {}
    for cluster in sorted(set(home_life) | set(remote)):
        pressure[cluster] = home_life.get(cluster, 0) / ii + remote.get(cluster, 0)
    return pressure


class PressureState:
    """Delta-maintained register-pressure session of one refinement run.

    Mirrors exactly what :func:`estimate_register_pressure` derives — the
    per-cluster summed home lifetimes and remote-copy counts — but updated
    per moved operation instead of per value: a move touches only the
    moved node's own value and the values it consumes (O(degree) work).
    :meth:`verify` cross-checks against the from-scratch derivation.
    """

    __slots__ = (
        "est",
        "asg",
        "home_life",
        "remote",
        "_lifetime",
        "_feeds",
        "_ccount",
    )

    def __init__(self, est: PartitionEstimator, assignment: Assignment) -> None:
        self.est = est
        index_of = est._index_of
        n = est._n
        clusters = est.machine.num_clusters
        self.asg: List[int] = [assignment[uid] for uid in est._uids]
        #: Summed lifetimes of the values homed in each cluster.
        self.home_life: List[int] = [0] * clusters
        #: Number of (value, remote cluster) copy pairs per cluster.
        self.remote: List[int] = [0] * clusters
        # Per-producer constants and reverse incidence, by uid index.
        self._lifetime: Dict[int, int] = {}
        self._feeds: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self._ccount: Dict[int, List[int]] = {}
        for uid, lifetime, consumers in _pressure_model(est):
            i = index_of[uid]
            self._lifetime[i] = lifetime
            counts = [0] * clusters
            for consumer_uid, k in consumers:
                j = index_of[consumer_uid]
                self._feeds[j].append((i, k))
                counts[self.asg[j]] += k
            self._ccount[i] = counts
            home = self.asg[i]
            self.home_life[home] += lifetime
            for cluster in range(clusters):
                if counts[cluster] and cluster != home:
                    self.remote[cluster] += 1

    # -- internal ------------------------------------------------------
    def _detach(self, producer: int, remote: List[int]) -> None:
        home = self.asg[producer]
        counts = self._ccount[producer]
        for cluster in range(len(remote)):
            if counts[cluster] and cluster != home:
                remote[cluster] -= 1

    def _attach(self, producer: int, remote: List[int]) -> None:
        home = self.asg[producer]
        counts = self._ccount[producer]
        for cluster in range(len(remote)):
            if counts[cluster] and cluster != home:
                remote[cluster] += 1

    def _move_one(self, i: int, target: int) -> None:
        old = self.asg[i]
        if old == target:
            return
        affected = {producer for producer, _k in self._feeds[i]}
        lifetime = self._lifetime.get(i)
        if lifetime is not None:
            affected.add(i)
        for producer in affected:
            self._detach(producer, self.remote)
        for producer, k in self._feeds[i]:
            counts = self._ccount[producer]
            counts[old] -= k
            counts[target] += k
        self.asg[i] = target
        if lifetime is not None:
            self.home_life[old] -= lifetime
            self.home_life[target] += lifetime
        for producer in affected:
            self._attach(producer, self.remote)

    # -- updates -------------------------------------------------------
    def move_uids(self, uids: Sequence[int], target: int) -> None:
        """Reassign ``uids`` to cluster ``target`` and update the state."""
        index_of = self.est._index_of
        for uid in uids:
            self._move_one(index_of[uid], target)

    def preview_moves(
        self, moves: Sequence[Tuple[Sequence[int], int]]
    ) -> Tuple[List[int], List[int]]:
        """(home_life, remote) after applying ``moves``, without mutating.

        ``moves`` is a sequence of ``(uids, target_cluster)`` group moves.
        """
        est = self.est
        index_of = est._index_of
        asg = self.asg
        over: Dict[int, int] = {}
        for uids, target in moves:
            for uid in uids:
                i = index_of[uid]
                if asg[i] != target:
                    over[i] = target
        if not over:
            return list(self.home_life), list(self.remote)
        affected = set()
        for i in over:
            for producer, _k in self._feeds[i]:
                affected.add(producer)
            if i in self._lifetime:
                affected.add(i)
        home_life = list(self.home_life)
        remote = list(self.remote)
        for producer in affected:
            self._detach(producer, remote)
        counts_over = {p: self._ccount[p][:] for p in affected}
        for i, target in over.items():
            old = asg[i]
            for producer, k in self._feeds[i]:
                counts = counts_over[producer]
                counts[old] -= k
                counts[target] += k
            lifetime = self._lifetime.get(i)
            if lifetime is not None:
                home_life[old] -= lifetime
                home_life[target] += lifetime
        for producer in affected:
            home = over.get(producer, asg[producer])
            counts = counts_over[producer]
            for cluster in range(len(remote)):
                if counts[cluster] and cluster != home:
                    remote[cluster] += 1
        return home_life, remote

    # -- queries -------------------------------------------------------
    def pressure(self) -> Dict[int, float]:
        """Cluster -> pressure, exactly as the reference function reports."""
        return _pressure_map(self.home_life, self.remote, self.est.ii)

    def verify(self, assignment: Assignment) -> None:
        """Assert this state equals a fresh from-scratch derivation."""
        fresh = PressureState(self.est, assignment)
        if (
            self.asg != fresh.asg
            or self.home_life != fresh.home_life
            or self.remote != fresh.remote
            or self._ccount != fresh._ccount
        ):
            raise AssertionError(
                "delta-maintained PressureState diverged from the full sweep"
            )
        reference = estimate_register_pressure(
            self.est.loop, assignment, self.est.ii, self.est._analysis
        )
        if self.pressure() != reference:
            raise AssertionError(
                f"PressureState pressure {self.pressure()} != "
                f"reference {reference}"
            )


def _pressure_model(est: PartitionEstimator):
    """The estimator-cached per-producer pressure constants."""
    model = getattr(est, "_pressure_terms_cache", None)
    if model is None:
        model = _pressure_terms(est.loop, est.ii, est._analysis)
        est._pressure_terms_cache = model
    return model


def _pressure_map(
    home_life: Sequence[int], remote: Sequence[int], ii: int
) -> Dict[int, float]:
    pressure: Dict[int, float] = {}
    for cluster in range(len(home_life)):
        if home_life[cluster] or remote[cluster]:
            pressure[cluster] = home_life[cluster] / ii + remote[cluster]
    return pressure


class PressureCommState(CommState):
    """A :class:`CommState` that also keeps a pressure session in step.

    The refiner mirrors every move through :meth:`move_uids`, so both the
    communication state and the pressure state stay consistent with the
    assignment; previews carry the would-be pressure arrays alongside the
    communication deltas.
    """

    __slots__ = ("pressure_state",)

    def __init__(self, est: PartitionEstimator, assignment: Assignment) -> None:
        super().__init__(est, assignment)
        self.pressure_state = PressureState(est, assignment)

    def move_uids(self, uids, target, records=None) -> None:
        super().move_uids(uids, target, records)
        self.pressure_state.move_uids(uids, target)

    def preview_moves(self, moves) -> "PressureCommPreview":
        base = super().preview_moves(moves)
        return PressureCommPreview(
            base, self.pressure_state, [(uids, target) for uids, _records, target in moves]
        )

    def verify(self, assignment: Assignment) -> None:
        super().verify(assignment)
        self.pressure_state.verify(assignment)


class PressureCommPreview:
    """A communication preview plus the lazily computed pressure arrays.

    Exposes the same pricing surface as
    :class:`~repro.partition.estimator.CommPreview` (delegated), so the
    base estimator's ``estimate_preview`` consumes it unchanged; the
    pressure arrays are only derived when the candidate survives the
    bound prunes and the penalty is actually needed.
    """

    __slots__ = ("base", "_state", "_moves", "_arrays")

    def __init__(
        self,
        base: CommPreview,
        state: PressureState,
        moves: Sequence[Tuple[Sequence[int], int]],
    ) -> None:
        self.base = base
        self._state = state
        self._moves = moves
        self._arrays: Optional[Tuple[List[int], List[int]]] = None

    # Delegated pricing surface -----------------------------------------
    @property
    def ncomm(self) -> int:
        return self.base.ncomm

    @property
    def cut_count(self) -> int:
        return self.base.cut_count

    @property
    def slack_total(self) -> int:
        return self.base.slack_total

    def derive_comm_mem(self) -> List[int]:
        return self.base.derive_comm_mem()

    def cut_for_path(self):
        return self.base.cut_for_path()

    def live_path_floor(self, ii: int) -> Optional[int]:
        return self.base.live_path_floor(ii)

    def start_times(self, ii: int) -> Optional[List[int]]:
        return self.base.start_times(ii)

    @property
    def times(self):
        return self.base.times

    # Pressure -----------------------------------------------------------
    def pressure_arrays(self) -> Tuple[List[int], List[int]]:
        if self._arrays is None:
            self._arrays = self._state.preview_moves(self._moves)
        return self._arrays


class PressureAwareEstimator(PartitionEstimator):
    """Partition estimator whose objective penalizes register overflow.

    The penalty models the spill traffic an overflowing cluster would incur:
    every excess register forces roughly one store/load pair per iteration,
    costing memory-port slots; we charge ``penalty_per_excess`` cycles per
    excess register per iteration.
    """

    def __init__(
        self,
        loop: Loop,
        machine: MachineConfig,
        ii: int,
        penalty_per_excess: float = 1.0,
    ) -> None:
        super().__init__(loop, machine, ii)
        self.penalty_per_excess = penalty_per_excess

    #: The pressure penalty is itself delta-maintained (PressureState), so
    #: refiners may score candidate moves through the preview fast path.
    supports_preview = True

    def comm_session(self, assignment: Assignment) -> PressureCommState:
        """A session that keeps communication *and* pressure state in step."""
        return PressureCommState(self, assignment)

    # ------------------------------------------------------------------
    def _excess_of(self, value_of) -> float:
        """Summed register overflow across clusters, in cluster order.

        One shared loop for every scoring path — the session fast path,
        the previews and the from-scratch fallback — so the overflow rule
        (and its float rounding) cannot drift between them.
        """
        excess = 0.0
        for cluster in range(self.machine.num_clusters):
            value = value_of(cluster)
            capacity = self.machine.cluster(cluster).registers
            if value > capacity:
                excess += value - capacity
        return excess

    def _excess(self, home_life: Sequence[int], remote: Sequence[int]) -> float:
        ii = self.ii
        return self._excess_of(lambda c: home_life[c] / ii + remote[c])

    def _excess_from_map(self, pressure: Dict[int, float]) -> float:
        return self._excess_of(lambda c: pressure.get(c, 0.0))

    def _apply_penalty(
        self, base: PartitionEstimate, excess: float
    ) -> PartitionEstimate:
        if excess == 0.0:
            return base
        penalty = math.ceil(
            excess * self.penalty_per_excess * self.loop.trip_count / max(1, self.ii)
        )
        return PartitionEstimate(
            exec_time=base.exec_time + penalty,
            ii_est=base.ii_est,
            ii_bus=base.ii_bus,
            ncomm=base.ncomm,
            cut_edges=base.cut_edges,
            critical_path=base.critical_path,
            cut_slack=base.cut_slack,
        )

    # ------------------------------------------------------------------
    def estimate(self, assignment, bound=None, cluster_class_counts=None,
                 comm_state=None):
        # The pressure penalty only ever raises exec_time, so the base
        # estimator's bound prune stays exact here.
        base = super().estimate(
            assignment,
            bound=bound,
            cluster_class_counts=cluster_class_counts,
            comm_state=comm_state,
        )
        if base is None:
            return None
        if isinstance(comm_state, PressureCommState):
            state = comm_state.pressure_state
            excess = self._excess(state.home_life, state.remote)
        else:
            excess = self._excess_from_map(
                estimate_register_pressure(
                    self.loop, assignment, self.ii, self._analysis
                )
            )
        return self._apply_penalty(base, excess)

    def estimate_preview(self, preview, bound=None, cluster_class_counts=None,
                         incumbent=None):
        # As in estimate(): the penalty only raises exec_time, so every
        # base prune (the tie-aware one included) stays exact.
        base = super().estimate_preview(
            preview, bound=bound, cluster_class_counts=cluster_class_counts,
            incumbent=incumbent,
        )
        if base is None:
            return None
        home_life, remote = preview.pressure_arrays()
        return self._apply_penalty(base, self._excess(home_life, remote))
