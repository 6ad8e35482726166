"""Ablation: loop unrolling before GP scheduling.

The paper's related work (Sánchez & González, ICPP'00) shows unrolling
helps modulo scheduling on clustered VLIWs by amortizing the resource
bound's ceiling waste across several source iterations.  This bench
quantifies the effect for the GP scheduler; a subset of the suite keeps
the doubled loop bodies affordable.
"""

from conftest import check_artifact

from repro.eval.figures import ablation_unrolling


def test_ablation_unrolling(suite, results_dir):
    subset = suite[:4]  # tomcatv, swim, su2cor, hydro2d
    report = ablation_unrolling(suite=subset)
    check_artifact(results_dir, "ablation_unrolling.txt", report)
    assert "U=1" in report and "U=2" in report

    values = {}
    for line in report.splitlines():
        parts = line.split()
        if parts and parts[0] in ("U=1", "U=2"):
            values[parts[0]] = float(parts[1])
    # Unrolling by two must not collapse throughput; typically it helps.
    assert values["U=2"] > values["U=1"] * 0.9
