"""Performance metrics (paper §4.1).

IPC is the paper's primary metric: *useful* (original-loop) operations per
cycle, with prolog and epilog included in the cycle count, aggregated over
each program's loops weighted naturally by their trip counts — i.e. total
dynamic operations over total cycles.  IPC is clock-independent; for a
clustered machine it is an honest comparison against the unified
configuration because total resources are identical.

Register-pressure metrics read off each schedule's cached
:class:`~repro.schedule.analysis_core.ScheduleAnalysis` session (the one
the engine maintained while scheduling) instead of sweeping the value
ledger again — one lifetime derivation per schedule, shared with the
validator and the exports.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..schedule.result import ModuloSchedule


def aggregate_ipc(
    dynamic_operations: Sequence[int], cycles: Sequence[int]
) -> float:
    """Suite IPC: total dynamic operations over total cycles."""
    if len(dynamic_operations) != len(cycles):
        raise ValueError("mismatched metric vectors")
    total_cycles = sum(cycles)
    if total_cycles <= 0:
        return 0.0
    return sum(dynamic_operations) / total_cycles


def outcome_shape(outcome) -> Tuple[int, float, int]:
    """``(cycles, ipc, stages)`` of one outcome, for the encoders.

    A live modulo schedule derives cycles and stages from one
    :meth:`~repro.schedule.result.ModuloSchedule.span`; a list schedule
    or a decoded ``StoredSchedule`` reads its recorded cycles (stages is
    then the stored count, 0 for a list schedule).  IPC is total dynamic
    operations over cycles: the same integers the schedule's ``ipc()``
    divides, so the same float.
    """
    schedule = outcome.schedule
    if isinstance(schedule, ModuloSchedule):
        cycles, stages = schedule.shape()
    else:
        cycles = schedule.execution_cycles()
        stages = getattr(schedule, "stage_count", 0)
    if cycles <= 0:
        return cycles, 0.0, stages
    return cycles, outcome.loop.total_dynamic_operations() / cycles, stages


def arithmetic_mean(values: Iterable[float]) -> float:
    data: List[float] = list(values)
    if not data:
        return 0.0
    return sum(data) / len(data)


def speedup(new: float, baseline: float) -> float:
    """Relative improvement of ``new`` over ``baseline`` (1.0 = equal)."""
    if baseline <= 0:
        return float("inf") if new > 0 else 1.0
    return new / baseline


def percent_gain(new: float, baseline: float) -> float:
    """Percentage improvement, e.g. 23.0 for the paper's headline gain."""
    return (speedup(new, baseline) - 1.0) * 100.0


# ----------------------------------------------------------------------
# Register-pressure metrics (off the shared lifetime analysis)
# ----------------------------------------------------------------------
def register_peaks(outcome) -> List[int]:
    """Per-cluster MaxLives of one schedule outcome.

    Reads the schedule's cached analysis session (modulo schedules) or the
    uniform zero surface (list schedules).
    """
    return outcome.schedule.register_peaks()


def peak_register_pressure(outcomes: Iterable) -> int:
    """Worst single-cluster MaxLives across a set of outcomes."""
    peak = 0
    for outcome in outcomes:
        peaks = register_peaks(outcome)
        if peaks:
            peak = max(peak, max(peaks))
    return peak


def total_register_cycles(outcomes: Iterable) -> int:
    """Summed register-cycles over every modulo-scheduled outcome."""
    total = 0
    for outcome in outcomes:
        if outcome.is_modulo:
            total += sum(outcome.schedule.register_cycles())
    return total
