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

:func:`estimate_register_pressure` is the one definition of that
estimate.  It decomposes per cluster into two *integers* — the summed
lifetimes of the values homed there, and the number of (value, remote
cluster) copy pairs — divided by II only at the end, so the result does
not depend on summation order.  The per-producer lifetimes and consumers
depend on the graph and II only; the estimator derives them once and
prices every assignment from them.

The estimator opts out of the refiner's preview path
(``supports_preview = False``): the refiner scores each candidate by
applying it, calling :meth:`PressureAwareEstimator.estimate` and undoing
it.  The main scheduling path never uses this estimator, so paper- and
extended-tier results do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..ir.analysis import LoopAnalysis, analyze
from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .estimator import Assignment, PartitionEstimator

#: Per-producer pressure constants: (producer uid, lifetime, consumer uids).
PressureTerms = List[Tuple[int, int, Tuple[int, ...]]]


def _pressure_terms(
    loop: Loop, ii: int, analysis: Optional[LoopAnalysis] = None
) -> PressureTerms:
    """Per-producer pressure constants: (producer uid, lifetime, consumers).

    ``consumers`` are the distinct consumer uids.  Stores and dead values
    contribute nothing.  Everything here is a function of the graph and
    II only.
    """
    ddg = loop.ddg
    if analysis is None:
        analysis = analyze(ddg, ii)
    terms: PressureTerms = []
    for uid in ddg.uids():
        op = ddg.operation(uid)
        uses = ddg.consumers_of_value(uid)
        if op.is_store or not uses:
            continue
        birth = analysis.asap[uid] + op.latency
        death = max(analysis.asap[dep.dst] + ii * dep.distance for dep in uses)
        lifetime = max(death - birth, 1)
        terms.append((uid, lifetime, tuple(sorted({dep.dst for dep in uses}))))
    return terms


def estimate_register_pressure(
    loop: Loop,
    assignment: Assignment,
    ii: int,
    terms: Optional[PressureTerms] = None,
) -> Dict[int, float]:
    """Steady-state register pressure each cluster would sustain.

    Returns a map cluster -> estimated registers in use, computed as
    ``(summed home lifetimes) / II + (remote copy count)`` per cluster.
    ``terms`` — :func:`_pressure_terms` of ``loop`` at ``ii``, which a
    caller pricing many assignments derives once — skips the analysis.
    """
    if terms is None:
        terms = _pressure_terms(loop, ii)
    home_life: Dict[int, int] = {}
    remote: Dict[int, int] = {}
    for producer, lifetime, consumers in terms:
        home = assignment[producer]
        home_life[home] = home_life.get(home, 0) + lifetime
        for cluster in {assignment[uid] for uid in consumers} - {home}:
            remote[cluster] = remote.get(cluster, 0) + 1
    pressure: Dict[int, float] = {}
    for cluster in sorted(set(home_life) | set(remote)):
        pressure[cluster] = home_life.get(cluster, 0) / ii + remote.get(cluster, 0)
    return pressure


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
        self._terms = _pressure_terms(loop, ii, self._analysis)

    #: The penalty reads the whole assignment, so refiners price this
    #: estimator's candidates by apply/estimate/undo.
    supports_preview = False

    def _excess(self, pressure: Dict[int, float]) -> float:
        """Summed register overflow across clusters, in cluster order."""
        excess = 0.0
        for cluster in range(self.machine.num_clusters):
            value = pressure.get(cluster, 0.0)
            capacity = self.machine.cluster(cluster).registers
            if value > capacity:
                excess += value - capacity
        return excess

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
        excess = self._excess(estimate_register_pressure(
            self.loop, assignment, self.ii, self._terms
        ))
        if excess == 0.0:
            return base
        penalty = math.ceil(
            excess * self.penalty_per_excess * self.loop.trip_count / max(1, self.ii)
        )
        return replace(base, exec_time=base.exec_time + penalty)
