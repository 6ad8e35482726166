"""Parameter sweeps: where the trade-offs cross over.

The paper evaluates a handful of configuration points (Table 1).  This
module generalizes the grid so users can ask *where* the interesting
crossovers fall on their own workloads:

* :func:`register_sweep` — IPC vs. total register count.  Shows where the
  clustered schemes stop being register-starved and where the GP/URACAM
  gap opens.
* :func:`bus_latency_sweep` — IPC vs. inter-cluster latency.  Shows the
  widening clustering penalty (Figure 2 -> Figure 3 is the paper's two
  points on this curve).
* :func:`cluster_sweep` — IPC vs. cluster count at constant total
  resources (the unified -> 2 -> 4 axis of Table 1).

Each sweep returns a :class:`SweepResult` with per-point averages per
scheduler, a crossover finder and a text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError
from ..machine.presets import clustered, unified
from ..schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    UnifiedScheduler,
    UracamScheduler,
)
from ..workloads.spec import Benchmark, spec_suite
from .report import format_table
from .runner import run_suite

#: Schedulers included in every sweep (unified only where it applies).
_CLUSTERED_SCHEDULERS = (UracamScheduler, FixedPartitionScheduler, GPScheduler)


@dataclass
class SweepResult:
    """Average IPC per (sweep point, scheduler)."""

    parameter: str
    points: List[object]
    series: Dict[str, List[float]] = field(default_factory=dict)

    def _rival_front(self, rivals: Sequence[str]) -> List[float]:
        """Pointwise best value over ``rivals`` (the front ``a`` must beat)."""
        if not rivals:
            raise ValueError("need at least one rival series")
        return [
            max(self.series[label][i] for label in rivals)
            for i in range(len(self.points))
        ]

    def crossover(self, a: str, *rivals: str) -> Optional[object]:
        """First sweep point where scheduler ``a`` overtakes its rivals.

        With a single rival this is the classic two-series helper:
        "overtakes" means ``a`` trailed (or tied) at some earlier point
        and now strictly leads.  With several rivals, ``a`` is compared
        against their pointwise front (the best rival at each point), so
        the result is the first point where ``a`` takes over the whole
        front after trailing it.  Returns None if ``a`` never overtakes —
        either because it leads from the very first point (nothing to
        overtake from) or because it never pulls ahead.
        """
        front = self._rival_front(rivals)
        trailed_before = False
        for point, va, vb in zip(self.points, self.series[a], front):
            if va > vb and trailed_before:
                return point
            trailed_before = va <= vb or trailed_before
            if va > vb and not trailed_before:
                return None  # a leads from the start
        return None

    def gap_percent(self, a: str, *rivals: str) -> List[float]:
        """Per-point percentage gap of ``a`` over the rivals' front.

        One rival reproduces the original pairwise gap; several rivals
        measure ``a`` against the best rival at each point.
        """
        front = self._rival_front(rivals)
        return [
            (va / vb - 1.0) * 100.0 if vb > 0 else 0.0
            for va, vb in zip(self.series[a], front)
        ]

    def front(self) -> List[str]:
        """Per-point leader over *all* series (first label wins ties)."""
        leaders = []
        for i in range(len(self.points)):
            leaders.append(
                max(self.series, key=lambda label: (self.series[label][i]))
            )
        return leaders

    def front_changes(self) -> List[tuple]:
        """Sweep points where the n-way front's leader changes hands.

        Returns ``(point, previous_leader, new_leader)`` tuples — the
        n-way generalization of :meth:`crossover` over every series at
        once.
        """
        leaders = self.front()
        changes = []
        for i in range(1, len(leaders)):
            if leaders[i] != leaders[i - 1]:
                changes.append((self.points[i], leaders[i - 1], leaders[i]))
        return changes

    def render(self) -> str:
        headers = [self.parameter] + list(self.series)
        rows = []
        for i, point in enumerate(self.points):
            rows.append([point] + [self.series[label][i] for label in self.series])
        return format_table(headers, rows)


def _average_ipcs(
    suite: Sequence[Benchmark], schedulers: Sequence
) -> List[float]:
    """Average IPC per scheduler, each run over the suite in-process."""
    return [run_suite(suite, scheduler).average_ipc for scheduler in schedulers]


def register_sweep(
    register_totals: Sequence[int] = (16, 32, 48, 64, 96),
    num_clusters: int = 4,
    suite: Optional[Sequence[Benchmark]] = None,
) -> SweepResult:
    """IPC vs. total registers on an ``num_clusters``-cluster machine."""
    suite = list(suite) if suite is not None else spec_suite()
    result = SweepResult("registers", list(register_totals))
    for cls in _CLUSTERED_SCHEDULERS:
        result.series[cls.name] = []
    result.series["unified"] = []
    schedulers = []
    for total in register_totals:
        if total % num_clusters:
            raise ConfigError(
                f"{total} registers do not divide over {num_clusters} clusters"
            )
        machine = clustered(num_clusters, total)
        schedulers.extend(cls(machine) for cls in _CLUSTERED_SCHEDULERS)
        schedulers.append(UnifiedScheduler(unified(total)))
    for scheduler, ipc in zip(schedulers, _average_ipcs(suite, schedulers)):
        result.series[scheduler.name].append(ipc)
    return result


def bus_latency_sweep(
    latencies: Sequence[int] = (1, 2, 3, 4),
    num_clusters: int = 4,
    total_registers: int = 64,
    suite: Optional[Sequence[Benchmark]] = None,
) -> SweepResult:
    """IPC vs. inter-cluster bus latency (Figures 2 and 3 are points 1, 2)."""
    suite = list(suite) if suite is not None else spec_suite()
    result = SweepResult("bus_latency", list(latencies))
    for cls in _CLUSTERED_SCHEDULERS:
        result.series[cls.name] = []
    schedulers = [
        cls(clustered(num_clusters, total_registers, bus_latency=latency))
        for latency in latencies
        for cls in _CLUSTERED_SCHEDULERS
    ]
    for scheduler, ipc in zip(schedulers, _average_ipcs(suite, schedulers)):
        result.series[scheduler.name].append(ipc)
    return result


def cluster_sweep(
    cluster_counts: Sequence[int] = (1, 2, 4),
    total_registers: int = 64,
    suite: Optional[Sequence[Benchmark]] = None,
) -> SweepResult:
    """IPC vs. cluster count at constant total resources (the Table 1 axis)."""
    suite = list(suite) if suite is not None else spec_suite()
    result = SweepResult("clusters", list(cluster_counts))
    result.series["gp"] = []
    result.series["uracam"] = []
    plan = []  # one entry per point: either a shared scheduler or a pair
    schedulers = []
    for count in cluster_counts:
        if count == 1:
            scheduler = UnifiedScheduler(unified(total_registers))
            plan.append((scheduler,))
            schedulers.append(scheduler)
        else:
            machine = clustered(count, total_registers)
            pair = (GPScheduler(machine), UracamScheduler(machine))
            plan.append(pair)
            schedulers.extend(pair)
    ipcs = dict(zip(schedulers, _average_ipcs(suite, schedulers)))
    for entry in plan:
        if len(entry) == 1:  # unified point: one run feeds both series
            result.series["gp"].append(ipcs[entry[0]])
            result.series["uracam"].append(ipcs[entry[0]])
        else:
            result.series["gp"].append(ipcs[entry[0]])
            result.series["uracam"].append(ipcs[entry[1]])
    return result
