"""Sweeps beyond the paper's configuration grid: where crossovers fall.

The paper samples the configuration space at a few points (Table 1); these
sweeps trace the curves between them on a suite subset — IPC vs. register
count (register starvation), vs. bus latency (the Figure 2 -> Figure 3
axis) and vs. cluster count — and record where the schemes' orderings
change.
"""

from conftest import check_artifact

from repro.eval.sweep import bus_latency_sweep, cluster_sweep, register_sweep


def test_sweep_registers(suite, results_dir):
    result = register_sweep(
        register_totals=(16, 32, 64, 96), num_clusters=4, suite=suite[:4]
    )
    gaps = result.gap_percent("gp", "uracam")
    rendered = result.render() + "\n\nGP-over-URACAM gap per point (%): " + \
        ", ".join(f"{g:+.1f}" for g in gaps)
    check_artifact(results_dir, "sweep_registers.txt", rendered)
    # More registers never hurt GP.
    gp = result.series["gp"]
    assert gp[-1] >= gp[0] * 0.98
    # GP leads URACAM throughout the sweep.
    assert all(g > -5.0 for g in gaps)


def test_sweep_bus_latency(suite, results_dir):
    result = bus_latency_sweep(
        latencies=(1, 2, 3), num_clusters=4, suite=suite[:4]
    )
    rendered = result.render()
    check_artifact(results_dir, "sweep_bus_latency.txt", rendered)
    # Slower buses never help anyone.
    for label, values in result.series.items():
        assert values[-1] <= values[0] * 1.05, label


def test_sweep_clusters(suite, results_dir):
    result = cluster_sweep(cluster_counts=(1, 2, 4), suite=suite[:4])
    rendered = result.render()
    check_artifact(results_dir, "sweep_clusters.txt", rendered)
    # The clustering penalty grows with the cluster count, and GP's
    # advantage over URACAM grows with it.
    gp, uracam = result.series["gp"], result.series["uracam"]
    assert gp[0] >= gp[-1]
    assert (gp[-1] - uracam[-1]) >= (gp[1] - uracam[1]) - 0.2
