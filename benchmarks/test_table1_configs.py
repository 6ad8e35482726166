"""Table 1: the clustered VLIW configurations under evaluation."""

from conftest import check_artifact

from repro.eval.figures import table1_report
from repro.machine.presets import table1_configurations


def test_table1_configurations(results_dir):
    report = table1_report()
    check_artifact(results_dir, "table1_configurations.txt", report)

    configs = table1_configurations()
    # Every configuration is 12-issue with constant total resources.
    assert all(c.issue_width == 12 for c in configs)
    assert {c.num_clusters for c in configs} == {1, 2, 4}
    assert "unified" in report and "4-cluster" in report
