"""Export of evaluation results to CSV and JSON.

The benchmark harness renders text tables for humans; these helpers emit
machine-readable versions for plotting or regression tracking.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict

from .figures import FigureResult, Table2Result
from .metrics import aggregate_ipc, arithmetic_mean, outcome_shape
from .runner import BenchmarkResult, SuiteResult


def figure_to_csv(figure: FigureResult) -> str:
    """One row per benchmark, one column per scheduler, plus the average."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    labels = list(figure.series)
    writer.writerow(["benchmark"] + labels)
    for i, name in enumerate(figure.benchmarks):
        writer.writerow([name] + [f"{figure.series[l][i]:.4f}" for l in labels])
    writer.writerow(["AVERAGE"] + [f"{figure.average(l):.4f}" for l in labels])
    return buffer.getvalue()


def figure_to_dict(figure: FigureResult) -> Dict[str, Any]:
    return {
        "title": figure.title,
        "benchmarks": list(figure.benchmarks),
        "series": {label: list(values) for label, values in figure.series.items()},
        "averages": {label: figure.average(label) for label in figure.series},
    }


def figure_to_json(figure: FigureResult, indent: int = 2) -> str:
    return json.dumps(figure_to_dict(figure), indent=indent)


def table2_to_csv(table: Table2Result) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    schedulers = sorted(
        {name for per in table.seconds.values() for name in per}
    )
    writer.writerow(["config"] + schedulers)
    for config in table.configs:
        writer.writerow(
            [config]
            + [f"{table.seconds[config][name]:.6f}" for name in schedulers]
        )
    return buffer.getvalue()


def suite_result_to_dict(result: SuiteResult, timing: bool = True) -> Dict[str, Any]:
    """Full drill-down of one (scheduler, machine) suite run.

    ``timing=False`` omits every timing field (``cpu_seconds``, the
    process CPU time, and friends), leaving only the deterministic
    scheduling facts — IPC, II, stages, bus/mem-comm/spill counts.  Two
    runs of the same suite then export byte-identically, whatever
    ``--jobs`` value produced them.  Each outcome's shape is read once:
    the benchmark and suite IPCs derive from the per-loop cycles.
    """
    benchmarks = {
        name: benchmark_result_to_dict(bench, timing=timing)
        for name, bench in result.per_benchmark.items()
    }
    payload: Dict[str, Any] = {
        "scheduler": result.scheduler,
        "machine": result.machine,
        "average_ipc": arithmetic_mean(b["ipc"] for b in benchmarks.values()),
        "benchmarks": benchmarks,
    }
    if timing:
        payload["total_cpu_seconds"] = result.total_cpu_seconds
    return payload


def suite_result_to_json(
    result: SuiteResult, timing: bool = True, indent: int = 2
) -> str:
    return json.dumps(
        suite_result_to_dict(result, timing=timing), indent=indent, sort_keys=True
    )


def benchmark_result_to_dict(
    result: BenchmarkResult, timing: bool = True
) -> Dict[str, Any]:
    loops = []
    dynamic_operations, cycles = [], []
    for outcome in result.outcomes:
        loop_cycles, ipc, stages = outcome_shape(outcome)
        dynamic_operations.append(outcome.loop.total_dynamic_operations())
        cycles.append(loop_cycles)
        entry: Dict[str, Any] = {
            "loop": outcome.loop.name,
            "ipc": ipc,
            "cycles": loop_cycles,
            "modulo": outcome.is_modulo,
        }
        if timing:
            entry["cpu_seconds"] = outcome.cpu_seconds
        if outcome.is_modulo:
            schedule = outcome.schedule
            entry.update(
                ii=schedule.ii,
                stages=stages,
                bus_transfers=schedule.stats.bus_transfers,
                mem_comms=schedule.stats.mem_comms,
                spills=schedule.stats.spills,
                ii_attempts=schedule.stats.ii_attempts,
                # Off the schedule's cached lifetime analysis — the
                # session the validator rebuilt from the value ledger.
                register_peaks=schedule.register_peaks(),
                register_cycles=schedule.register_cycles(),
            )
        loops.append(entry)
    payload: Dict[str, Any] = {
        "benchmark": result.benchmark,
        "ipc": aggregate_ipc(dynamic_operations, cycles),
        "modulo_fraction": result.modulo_fraction,
        "peak_registers": result.peak_registers,
        "loops": loops,
    }
    if timing:
        payload["cpu_seconds"] = result.cpu_seconds
    return payload
