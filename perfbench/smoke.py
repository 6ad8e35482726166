"""Smoke test of the benchmark: every workload at a tiny size.

Run from anywhere::

    python3 perfbench/smoke.py

Each workload runs on one program and one machine, untraced and traced.
The check is that the result line names every metric ``BENCHMARK.json``
lists, with the same unit; that ``BENCHMARK.json`` gives each metric a
direction; and that no operation failed.  Nothing about timings is
asserted.  Finally the benchmark must refuse to run, printing no
result, in a directory that holds only ``BENCHMARK.json`` and
``perfbench/``.  Everything the runs write stays under the ignored
``perfbench/out/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED {message}")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke",
        ],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check_workload(spec: dict, workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        check(proc.returncode == 0,
              f"{workload}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(result) == KEYS, f"{workload}: result keys {sorted(result)}")
        check(result["correct"] is True, f"{workload}: incorrect\n{proc.stderr}")
        check(result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload}: {result['failed']} of {result['attempted']} failed")
        expected = {m["name"]: m for m in spec[section]}
        metrics = result["metrics"]
        check(set(metrics) == set(expected),
              f"{workload}: metrics differ from {section}: "
              f"{sorted(set(metrics) ^ set(expected))}")
        for name, value in metrics.items():
            check(value["unit"] == expected[name]["unit"], f"{name}: unit")
            check(expected[name]["better"] in ("higher", "lower"), f"{name}: direction")
            check(isinstance(value["value"], (int, float)), f"{name}: value")
        if trace:
            check(metrics["failed_share"]["value"] == 0, f"{workload}: failed_share")
        print(f"smoke: ok {workload} trace={trace}")


def check_bare_directory() -> None:
    """Without the sources the benchmark must fail and print no result."""
    bare = ROOT / "perfbench" / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "paper-table2", 0)
        check(proc.returncode != 0, "bare directory: exit status 0")
        check('"metrics"' not in proc.stdout, "bare directory: printed a result")
        print("smoke: ok bare directory refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_bare_directory()


if __name__ == "__main__":
    main()
