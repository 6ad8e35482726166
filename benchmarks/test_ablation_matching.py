"""Ablation: greedy heavy-edge vs. exact (blossom) coarsening matching.

The paper used LEDA's exact maximum-weight matching; multilevel
partitioners conventionally use the greedy heavy-edge heuristic.  This
ablation quantifies how little the choice matters for schedule quality —
justifying the library's greedy default.  The report carries CPU seconds,
so the artifact is only rewritten under ``-m bench``; the IPC comparison
is deterministic and runs in tier-1.
"""

import pytest
from conftest import save_artifact

from repro.eval.figures import ablation_matching

pytest.importorskip("networkx")


def _average_ipcs(report):
    values = {}
    for line in report.splitlines():
        parts = line.split()
        if parts and parts[0] in ("greedy", "exact"):
            values[parts[0]] = float(parts[1])
    return values


def test_ablation_matching(suite):
    values = _average_ipcs(ablation_matching(suite=suite))
    # Both matchings must land within a few percent of each other.
    assert abs(values["greedy"] - values["exact"]) / values["exact"] < 0.08


@pytest.mark.bench
def test_ablation_matching_artifact(benchmark, suite, results_dir):
    report = benchmark.pedantic(
        ablation_matching, kwargs={"suite": suite}, rounds=1, iterations=1
    )
    save_artifact(results_dir, "ablation_matching.txt", report)
    assert set(_average_ipcs(report)) == {"greedy", "exact"}
