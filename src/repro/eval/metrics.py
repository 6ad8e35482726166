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

from itertools import islice
from typing import Dict, Iterable, List, Sequence

from ..schedule.drivers import ii_offsets


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


# ----------------------------------------------------------------------
# Engine telemetry (observational; never part of the exported artifacts)
# ----------------------------------------------------------------------
def feasibility_cache_stats(outcomes: Iterable) -> Dict[str, float]:
    """Aggregate candidate-feasibility cache telemetry over outcomes.

    ``hits`` are window slots the engine skipped because an earlier spill
    round proved them structurally infeasible; ``scans`` are slots it
    actually evaluated.  The hit rate is hits over all slot visits —
    the fraction of the ``_window`` rescan the cache retired.
    """
    hits = scans = 0
    for outcome in outcomes:
        if not outcome.is_modulo:
            continue
        stats = outcome.schedule.stats
        hits += stats.feas_cache_hits
        scans += stats.feas_cache_scans
    visits = hits + scans
    return {
        "hits": hits,
        "scans": scans,
        "hit_rate": hits / visits if visits else 0.0,
    }


def ii_search_stats(outcomes: Iterable) -> Dict[str, object]:
    """Aggregate II-search telemetry over outcomes.

    ``attempts`` counts every engine attempt across all II searches;
    ``per_ii_attempts`` histograms them by the II tried (JSON-friendly
    string keys), replayed from each schedule's final II and attempt
    count along the driver's fixed escalation (:func:`ii_offsets`).
    """
    attempts = 0
    per_ii: Dict[int, int] = {}
    for outcome in outcomes:
        if not outcome.is_modulo:
            continue
        schedule = outcome.schedule
        tried = list(islice(ii_offsets(), schedule.stats.ii_attempts))
        attempts += len(tried)
        start_ii = schedule.ii - tried[-1]
        for offset in tried:
            per_ii[start_ii + offset] = per_ii.get(start_ii + offset, 0) + 1
    return {
        "attempts": attempts,
        "per_ii_attempts": {str(ii): per_ii[ii] for ii in sorted(per_ii)},
    }
