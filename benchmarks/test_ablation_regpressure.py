"""Extension: register-pressure-aware partitioning (the paper's §4.2 note).

The paper observes that ignoring register pressure while partitioning
occasionally hurts the register-starved 4-cluster/32-register machine
(hydro2d, mgrid) and proposes pressure-aware partitioning as future work.
This bench evaluates that extension
(:class:`repro.partition.pressure.PressureAwareEstimator`).
"""

from conftest import check_artifact

from repro.eval.figures import ablation_register_pressure


def test_ablation_register_pressure(suite, results_dir):
    report = ablation_register_pressure(suite=suite)
    check_artifact(results_dir, "ablation_register_pressure.txt", report)
    assert "pressure-aware" in report

    values = {}
    for line in report.splitlines():
        parts = line.split()
        if parts and parts[0] in ("baseline", "pressure-aware"):
            values[parts[0]] = float(parts[1])
    # The extension must not collapse performance; whether it helps on
    # average is the question the artifact answers.
    assert values["pressure-aware"] > values["baseline"] * 0.9
