"""Experiment definitions for every table and figure in the paper.

Each function regenerates one artifact of the evaluation section:

* :func:`table1_report` — the machine configurations (Table 1).
* :func:`figure2_panel` / :func:`figure2` — IPC bars for the 2- and
  4-cluster machines with a 1-cycle-latency bus, 32 and 64 registers
  (Figure 2): unified / URACAM / Fixed Partition / GP per program plus the
  average.
* :func:`figure3_panel` / :func:`figure3` — the 4-cluster machine with a
  2-cycle-latency bus (Figure 3).
* :func:`table2` — average scheduling CPU time per algorithm per
  configuration (Table 2).
* Ablations: :func:`ablation_two_buses` (the paper's "two buses follow a
  similar trend" remark), :func:`ablation_matching` (greedy vs. exact
  maximum-weight matching in the coarsening), and
  :func:`ablation_register_pressure` (the paper's future-work note:
  register-pressure-aware partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..machine.presets import (
    clustered,
    four_cluster,
    table1_configurations,
    two_cluster,
    unified,
)
from ..partition.partitioner import MultilevelPartitioner
from ..schedule.drivers import GPScheduler
from ..workloads.spec import Benchmark, spec_suite
from .metrics import percent_gain
from .report import format_table
from .runner import run_suite

#: Bar order used by the paper's figures.
SERIES_ORDER = ("unified", "uracam", "fixed-partition", "gp")


@dataclass
class FigureResult:
    """Per-benchmark IPC series for one figure panel."""

    title: str
    benchmarks: List[str]
    series: Dict[str, List[float]] = field(default_factory=dict)

    def average(self, label: str) -> float:
        values = self.series[label]
        return sum(values) / len(values) if values else 0.0

    def gain_percent(self, label: str, baseline: str) -> float:
        """Average-IPC gain of ``label`` over ``baseline`` in percent."""
        return percent_gain(self.average(label), self.average(baseline))

    def render(self) -> str:
        headers = ["benchmark"] + list(self.series)
        rows = []
        for i, name in enumerate(self.benchmarks):
            rows.append([name] + [self.series[label][i] for label in self.series])
        rows.append(
            ["AVERAGE"] + [self.average(label) for label in self.series]
        )
        return f"{self.title}\n" + format_table(headers, rows)


def _panel(
    title: str,
    clustered_machine,
    unified_machine,
    suite: Sequence[Benchmark],
    options=None,
    validate_each: bool = False,
    service=None,
) -> FigureResult:
    """Run the four bars of one figure panel through the service façade.

    Each bar is one :class:`~repro.service.requests.EvaluationRequest`;
    the batch goes through ``service`` (a
    :class:`~repro.service.session.ReproService`, whose pool and
    response cache are shared with whatever else the caller runs on it)
    or, when none is given, an ephemeral in-process session.  ``options``
    (an :class:`~repro.schedule.engine.EngineOptions`) is handed to every
    scheduler — the CLI's ``--verify`` paranoid mode rides in on it —
    and ``validate_each`` re-validates every modulo schedule where it is
    produced (the CLI's ``--validate-each`` sweep-integrated check).
    """
    from ..service import EvaluationRequest, ReproService

    requests = [
        EvaluationRequest(
            scheduler=label,
            machine=unified_machine if label == "unified" else clustered_machine,
            suite=tuple(suite),
            options=options,
            validate_each=validate_each,
        )
        for label in SERIES_ORDER
    ]
    if service is None:
        service = ReproService()
    responses = service.evaluate_many(requests)
    result = FigureResult(title=title, benchmarks=[b.name for b in suite])
    for label, response in zip(SERIES_ORDER, responses):
        result.series[label] = [
            response.result.per_benchmark[b.name].ipc for b in suite
        ]
    return result


def figure2_panel(
    num_clusters: int,
    total_registers: int,
    suite: Optional[Sequence[Benchmark]] = None,
    options=None,
    validate_each: bool = False,
    service=None,
) -> FigureResult:
    """One of Figure 2's four panels (1 bus, 1-cycle latency)."""
    suite = list(suite) if suite is not None else spec_suite()
    return _panel(
        title=(
            f"Figure 2: IPC, {num_clusters}-cluster, {total_registers} "
            "registers, 1 bus, latency 1"
        ),
        clustered_machine=clustered(num_clusters, total_registers, 1, 1),
        unified_machine=unified(total_registers),
        suite=suite,
        options=options,
        validate_each=validate_each,
        service=service,
    )


def figure2(
    suite: Optional[Sequence[Benchmark]] = None,
    service=None,
) -> List[FigureResult]:
    """All four Figure 2 panels (2/4 clusters x 32/64 registers).

    Without a caller-provided ``service``, all four panels share one
    ephemeral in-process :class:`~repro.service.session.ReproService`
    (one response cache).
    """
    from ..service import ReproService

    if service is None:
        service = ReproService()
    return [
        figure2_panel(nc, regs, suite, service=service)
        for nc in (2, 4)
        for regs in (32, 64)
    ]


def figure3_panel(
    total_registers: int,
    suite: Optional[Sequence[Benchmark]] = None,
    options=None,
    validate_each: bool = False,
    service=None,
) -> FigureResult:
    """One Figure 3 panel: 4 clusters, 1 bus with 2-cycle latency."""
    suite = list(suite) if suite is not None else spec_suite()
    return _panel(
        title=(
            f"Figure 3: IPC, 4-cluster, {total_registers} registers, "
            "1 bus, latency 2"
        ),
        clustered_machine=four_cluster(total_registers, num_buses=1, bus_latency=2),
        unified_machine=unified(total_registers),
        suite=suite,
        options=options,
        validate_each=validate_each,
        service=service,
    )


def figure3(
    suite: Optional[Sequence[Benchmark]] = None,
    service=None,
) -> List[FigureResult]:
    """Both Figure 3 panels (32 and 64 registers), sharing one session."""
    from ..service import ReproService

    if service is None:
        service = ReproService()
    return [
        figure3_panel(regs, suite, service=service)
        for regs in (32, 64)
    ]


def table1_report() -> str:
    """Regenerate Table 1: the evaluated machine configurations."""
    rows = []
    for config in table1_configurations():
        c0 = config.cluster(0)
        rows.append(
            [
                config.name,
                config.num_clusters,
                f"{c0.int_units}I/{c0.fp_units}F/{c0.mem_units}M",
                c0.registers,
                config.num_buses if config.is_clustered else "-",
                config.bus_latency if config.is_clustered else "-",
            ]
        )
    return "Table 1: clustered VLIW configurations\n" + format_table(
        ["config", "clusters", "units/cluster", "regs/cluster", "buses", "bus lat"],
        rows,
    )


@dataclass
class Table2Result:
    """Average scheduling CPU time per algorithm per configuration.

    ``slot_scans`` is the same comparison in counted, host-independent
    work: the (cluster, cycle) candidate slots the engine evaluated,
    summed over every II attempt of every modulo-scheduled loop.
    """

    configs: List[str]
    seconds: Dict[str, Dict[str, float]]  # config -> scheduler -> seconds
    slot_scans: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def slowdown(self, config: str, of: str = "uracam", over: str = "gp") -> float:
        base = self.seconds[config][over]
        return self.seconds[config][of] / base if base > 0 else float("inf")

    def render(self) -> str:
        labels = ["uracam", "fixed-partition", "gp"]
        rows = []
        for config in self.configs:
            per = self.seconds[config]
            rows.append(
                [config]
                + [per[label] for label in labels]
                + [self.slowdown(config)]
            )
        return "Table 2: average scheduling CPU seconds per benchmark\n" + format_table(
            ["config"] + labels + ["uracam/gp"], rows, precision=4
        )


def table2(
    suite: Optional[Sequence[Benchmark]] = None,
    machines=None,
    service=None,
    options=None,
) -> Table2Result:
    """Regenerate Table 2: scheduling CPU time per algorithm.

    Every (machine, scheduler) combination is one
    :class:`~repro.service.requests.EvaluationRequest` and the whole
    batch goes through one service session (one shared worker pool);
    each loop's scheduling time is still measured inside its worker, as
    the CPU time (``process_time``) of the process that scheduled it.
    """
    from ..service import EvaluationRequest, ReproService

    suite = list(suite) if suite is not None else spec_suite()
    if machines is None:
        machines = [
            two_cluster(32),
            two_cluster(64),
            four_cluster(32),
            four_cluster(64),
        ]
    requests = [
        EvaluationRequest(
            scheduler=name,
            machine=machine,
            suite=tuple(suite),
            options=options,
        )
        for machine in machines
        for name in ("uracam", "fixed-partition", "gp")
    ]
    if service is None:
        service = ReproService()
    responses = service.evaluate_many(requests)
    seconds: Dict[str, Dict[str, float]] = {m.name: {} for m in machines}
    slot_scans: Dict[str, Dict[str, int]] = {m.name: {} for m in machines}
    for response in responses:
        result = response.result
        seconds[result.machine][result.scheduler] = (
            result.total_cpu_seconds / max(1, len(suite))
        )
        slot_scans[result.machine][result.scheduler] = sum(
            outcome.schedule.stats.feas_cache_scans
            for bench in result.per_benchmark.values()
            for outcome in bench.outcomes
            if outcome.is_modulo
        )
    return Table2Result(
        configs=[m.name for m in machines], seconds=seconds, slot_scans=slot_scans
    )


# ----------------------------------------------------------------------
# Ablations and extensions
# ----------------------------------------------------------------------
def ablation_two_buses(
    total_registers: int = 32,
    suite: Optional[Sequence[Benchmark]] = None,
) -> str:
    """GP with one vs. two buses (the paper: 'similar trend')."""
    suite = list(suite) if suite is not None else spec_suite()
    rows = []
    for nc in (2, 4):
        per_bus = {}
        for buses in (1, 2):
            machine = clustered(nc, total_registers, num_buses=buses)
            result = run_suite(suite, GPScheduler(machine))
            per_bus[buses] = result.average_ipc
        rows.append(
            [f"{nc}-cluster", per_bus[1], per_bus[2],
             percent_gain(per_bus[2], per_bus[1])]
        )
    return "Ablation: number of inter-cluster buses (GP)\n" + format_table(
        ["config", "IPC 1 bus", "IPC 2 buses", "gain %"], rows
    )


def ablation_matching(
    num_clusters: int = 2,
    total_registers: int = 32,
    suite: Optional[Sequence[Benchmark]] = None,
) -> str:
    """Greedy heavy-edge vs. exact (blossom) matching in the coarsening."""
    suite = list(suite) if suite is not None else spec_suite()
    machine = clustered(num_clusters, total_registers)
    rows = []
    for matching in ("greedy", "exact"):
        scheduler = GPScheduler(
            machine, partitioner=MultilevelPartitioner(machine, matching=matching)
        )
        result = run_suite(suite, scheduler)
        rows.append([matching, result.average_ipc, result.total_cpu_seconds])
    return "Ablation: coarsening matching algorithm (GP)\n" + format_table(
        ["matching", "avg IPC", "total CPU s"], rows, precision=4
    )


def ablation_unrolling(
    factors=(1, 2),
    num_clusters: int = 4,
    total_registers: int = 64,
    suite: Optional[Sequence[Benchmark]] = None,
) -> str:
    """Loop unrolling before GP scheduling (related work: Sánchez &
    González, ICPP'00, studied unrolling for clustered modulo scheduling).

    Unrolling by U packs U source iterations into each kernel iteration:
    it can amortize the resource bound's ceiling waste, at the cost of
    register pressure and scheduling time.  Reported as IPC in *source*
    operations per cycle so factors are directly comparable.
    """
    from ..ir.transform import unroll

    suite = list(suite) if suite is not None else spec_suite()
    machine = clustered(num_clusters, total_registers)
    rows = []
    for factor in factors:
        dyn_ops, cycles = [], []
        for benchmark in suite:
            for loop in benchmark.loops:
                unrolled = unroll(loop, factor)
                outcome = GPScheduler(machine).schedule(unrolled)
                # Source-level work: the original ops x original trip count.
                dyn_ops.append(loop.total_dynamic_operations())
                cycles.append(outcome.execution_cycles())
        ipc = sum(dyn_ops) / max(1, sum(cycles))
        rows.append([f"U={factor}", ipc])
    return (
        f"Ablation: loop unrolling before GP ({num_clusters}-cluster, "
        f"{total_registers} regs)\n" + format_table(["factor", "source IPC"], rows)
    )


def ablation_register_pressure(
    total_registers: int = 32,
    suite: Optional[Sequence[Benchmark]] = None,
) -> str:
    """The paper's future-work extension: pressure-aware partitioning."""
    suite = list(suite) if suite is not None else spec_suite()
    machine = four_cluster(total_registers)
    rows = []
    for aware in (False, True):
        scheduler = GPScheduler(
            machine,
            partitioner=MultilevelPartitioner(machine, pressure_aware=aware),
        )
        result = run_suite(suite, scheduler)
        rows.append(
            ["pressure-aware" if aware else "baseline", result.average_ipc]
        )
    return (
        "Extension: register-pressure-aware partitioning (GP, 4-cluster)\n"
        + format_table(["partitioner", "avg IPC"], rows)
    )
