"""Extended-suite (production-scale tier) benchmark.

The paper's evaluation stops at 10 programs / 40 loops; the extended tier
scales that to 220 loops with bodies beyond 200 operations, mixed
recurrence depths and memory-traffic profiles.  This benchmark runs the
figure-2-style comparison on that tier on a worker pool
and checks that the paper's qualitative ordering survives the scale-up.

Opt-in via ``-m bench``: the panel takes minutes to render.
"""

import os

import pytest
from conftest import save_artifact

from repro.eval.figures import figure2_panel
from repro.service import ReproService

#: Worker count for the panel (results are identical at any value).
PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))


@pytest.mark.bench
def test_extended_four_cluster_panel(big_suite, results_dir):
    """IPC comparison on the extended tier (4-cluster, 64 registers)."""
    with ReproService(jobs=PARALLEL_JOBS) as service:
        panel = figure2_panel(4, 64, big_suite, service=service)
    rendered = panel.render() + "\n\nGP over URACAM: %+.1f%%  GP over Fixed: %+.1f%%" % (
        panel.gain_percent("gp", "uracam"),
        panel.gain_percent("gp", "fixed-partition"),
    )
    save_artifact(results_dir, "extended_4cluster_64r.txt", rendered)

    # The paper's qualitative ordering must survive the scale-up.
    for label in ("uracam", "fixed-partition", "gp"):
        assert panel.average(label) <= panel.average("unified") * 1.02
    assert panel.average("gp") > panel.average("uracam")
