"""Figure 2 (top): IPC on the 2-cluster machine, 1 bus, latency 1.

Regenerates both register configurations (32 and 64 total registers) with
the four bars of the paper — unified, URACAM, Fixed Partition, GP — per
program plus the average, and asserts the paper's qualitative shape:
unified bounds everything, GP wins among the clustered schedulers.
"""

import pytest
from conftest import check_artifact

from repro.eval.figures import figure2_panel


@pytest.mark.parametrize("registers", [32, 64])
def test_figure2_two_cluster(suite, results_dir, registers):
    panel = figure2_panel(2, registers, suite)
    rendered = panel.render() + "\n\nGP over URACAM: %+.1f%%  GP over Fixed: %+.1f%%" % (
        panel.gain_percent("gp", "uracam"),
        panel.gain_percent("gp", "fixed-partition"),
    )
    check_artifact(results_dir, f"figure2_2cluster_{registers}r.txt", rendered)

    # Paper shape: unified >= clustered schemes; GP best clustered on average.
    for label in ("uracam", "fixed-partition", "gp"):
        assert panel.average(label) <= panel.average("unified") * 1.02
    assert panel.average("gp") >= panel.average("uracam")
    assert panel.average("gp") >= panel.average("fixed-partition") * 0.97
