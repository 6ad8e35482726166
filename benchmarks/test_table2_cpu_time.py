"""Table 2: average CPU time to compute the schedules.

The paper's claim: URACAM — which evaluates every cluster for every
operation — is the most expensive scheduler (2-7x slower than GP/Fixed on
the authors' machine); the partition-guided schemes mostly evaluate one
cluster per operation.  The tier-1 test asserts that claim on counted,
host-independent work: the candidate slots the engine evaluated.  The
timing-bearing artifact (CPU seconds per benchmark) differs run to run,
so it is not drift-gated and is only regenerated under ``-m bench``.
"""

import pytest
from conftest import save_artifact

from repro.eval.figures import table2
from repro.machine.presets import four_cluster, two_cluster


def test_table2_cpu_time(suite):
    # URACAM must do the most work on the stressed 4-cluster machines,
    # where it evaluates every cluster for every operation.
    result = table2(suite, [four_cluster(32), four_cluster(64)])
    for config in result.configs:
        scans = result.slot_scans[config]
        assert scans["uracam"] > scans["gp"], (config, scans)


@pytest.mark.bench
def test_table2_cpu_time_artifact(suite, results_dir):
    machines = [
        two_cluster(32),
        two_cluster(64),
        four_cluster(32),
        four_cluster(64),
    ]
    result = table2(suite, machines)
    save_artifact(results_dir, "table2_cpu_time.txt", result.render())
