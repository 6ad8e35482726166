"""Figure 2 (bottom): IPC on the 4-cluster machine, 1 bus, latency 1.

The most clustering-stressed configuration of Figure 2; the GP-over-URACAM
gap is widest here, and the paper's hydro2d/mgrid anomaly (GP occasionally
below URACAM on a register-starved program) is allowed per program but not
on average.
"""

import pytest
from conftest import save_artifact

from repro.eval.figures import figure2_panel


@pytest.mark.parametrize("registers", [32, 64])
def test_figure2_four_cluster(benchmark, suite, results_dir, registers):
    panel = benchmark.pedantic(
        figure2_panel, args=(4, registers, suite), rounds=1, iterations=1
    )
    rendered = panel.render() + "\n\nGP over URACAM: %+.1f%%  GP over Fixed: %+.1f%%" % (
        panel.gain_percent("gp", "uracam"),
        panel.gain_percent("gp", "fixed-partition"),
    )
    save_artifact(results_dir, f"figure2_4cluster_{registers}r.txt", rendered)

    for label in ("uracam", "fixed-partition", "gp"):
        assert panel.average(label) <= panel.average("unified") * 1.02
    assert panel.average("gp") > panel.average("uracam")
    # The paper's qualitative claim: letting the scheduler leave the
    # partition pays off over following it exactly.
    assert panel.average("gp") >= panel.average("fixed-partition")
    # Clustering hurts more with 4 clusters than with 2 in the paper; the
    # unified bound therefore sits clearly above the clustered bars.
    assert panel.average("unified") > panel.average("uracam")
