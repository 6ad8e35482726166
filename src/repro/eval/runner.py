"""Running schedulers over benchmark suites and collecting results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..errors import LoopTaskError
from ..ir.loop import Loop
from ..schedule.drivers import BaseScheduler, ScheduleOutcome
from ..workloads.spec import Benchmark
from .metrics import aggregate_ipc, arithmetic_mean


@dataclass
class BenchmarkResult:
    """One (benchmark, scheduler, machine) evaluation."""

    benchmark: str
    scheduler: str
    machine: str
    outcomes: List[ScheduleOutcome] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return aggregate_ipc(
            [o.loop.total_dynamic_operations() for o in self.outcomes],
            [o.execution_cycles() for o in self.outcomes],
        )

    @property
    def cpu_seconds(self) -> float:
        """Total scheduling CPU time over the benchmark's loops."""
        return sum(o.cpu_seconds for o in self.outcomes)

    @property
    def modulo_fraction(self) -> float:
        """Loops that got a modulo schedule (vs. the list fallback)."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.is_modulo) / len(self.outcomes)

    @property
    def peak_registers(self) -> int:
        """Worst single-cluster MaxLives over the benchmark's loops.

        Read off each schedule's cached lifetime analysis (see
        :mod:`repro.eval.metrics`), not a fresh ledger sweep.
        """
        from .metrics import peak_register_pressure

        return peak_register_pressure(self.outcomes)


def schedule_loop(
    scheduler: BaseScheduler,
    benchmark: str,
    loop: Loop,
    validate_each: bool = False,
) -> ScheduleOutcome:
    """Schedule one loop of ``benchmark``; any failure becomes a
    :class:`~repro.errors.LoopTaskError` naming the loop.

    ``validate_each`` re-validates a modulo schedule right after it is
    produced (the cached sessions the engine attached, not the paranoid
    ``full_recheck`` rebuild).  The pooled runner calls this in its
    workers, so every ``--jobs`` value fails the same way.
    """
    try:
        outcome = scheduler.schedule(loop)
        if validate_each and outcome.is_modulo:
            outcome.schedule.validate()
    except Exception as error:
        raise LoopTaskError(
            benchmark=benchmark,
            loop_name=loop.name,
            scheduler=scheduler.name,
            cause=error,
        ) from error
    return outcome


def run_benchmark(
    benchmark: Benchmark,
    scheduler: BaseScheduler,
    validate_each: bool = False,
) -> BenchmarkResult:
    """Schedule every loop of ``benchmark`` with ``scheduler``.

    ``validate_each`` re-validates every modulo schedule as it is
    produced — the production posture where every served schedule is
    checked, so sweeps measure and gate the integrated validation cost
    instead of timing it standalone.  A loop that fails to schedule or
    validate raises a :class:`~repro.errors.LoopTaskError` naming it.
    """
    return BenchmarkResult(
        benchmark=benchmark.name,
        scheduler=scheduler.name,
        machine=scheduler.machine.name,
        outcomes=[
            schedule_loop(scheduler, benchmark.name, loop, validate_each)
            for loop in benchmark.loops
        ],
    )


@dataclass
class SuiteResult:
    """All benchmarks under one (scheduler, machine) pair."""

    scheduler: str
    machine: str
    per_benchmark: Dict[str, BenchmarkResult] = field(default_factory=dict)

    @property
    def average_ipc(self) -> float:
        return arithmetic_mean(r.ipc for r in self.per_benchmark.values())

    @property
    def total_cpu_seconds(self) -> float:
        return sum(r.cpu_seconds for r in self.per_benchmark.values())


def run_suite(
    suite: Sequence[Benchmark],
    scheduler: BaseScheduler,
    validate_each: bool = False,
) -> SuiteResult:
    """Schedule the whole suite with one scheduler instance, in-process.

    ``validate_each`` re-validates every modulo schedule as it is
    produced.  A worker pool is reached only through
    :meth:`~repro.service.session.ReproService.evaluate_many`, whose
    results are bit-identical to this sequential path.
    """
    result = SuiteResult(scheduler=scheduler.name, machine=scheduler.machine.name)
    for benchmark in suite:
        result.per_benchmark[benchmark.name] = run_benchmark(
            benchmark, scheduler, validate_each=validate_each
        )
    return result
