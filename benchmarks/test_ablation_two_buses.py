"""Ablation: two inter-cluster buses.

The paper states results for two buses "follow a similar trend"; this
ablation regenerates the GP numbers with NBus in {1, 2} and checks that a
second bus never hurts and the overall picture stays similar.
"""

from conftest import check_artifact

from repro.eval.figures import ablation_two_buses


def test_ablation_two_buses(suite, results_dir):
    report = ablation_two_buses(suite=suite)
    check_artifact(results_dir, "ablation_two_buses.txt", report)
    assert "2-cluster" in report and "4-cluster" in report

    # Parse the gain column: a second bus should not significantly hurt.
    for line in report.splitlines():
        if line.startswith(("2-cluster", "4-cluster")):
            gain = float(line.split()[-1])
            assert gain > -5.0
