"""``import repro`` must not pull in numpy or networkx.

Neither is needed to schedule: networkx backs only the exact-matching
coarsening ablation and is imported inside that matcher.  Both are
blocked in a fresh interpreter (``sys.modules[name] = None`` makes any
import of them raise), which then imports the library and schedules one
paper loop with GP end to end.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent(
    """
    import sys

    for name in ("numpy", "networkx"):
        sys.modules[name] = None

    import repro
    from repro.machine.presets import four_cluster
    from repro.partition.matching import exact_matching
    from repro.service import ReproService, ScheduleRequest
    from repro.workloads.spec import spec_suite

    loop = spec_suite()[0].loops[0]
    with ReproService() as service:
        response = service.schedule(
            ScheduleRequest(loop=loop, machine=four_cluster(32), scheduler="gp")
        )
    assert response.outcome.is_modulo, "expected a modulo schedule"
    response.outcome.schedule.validate()

    try:
        exact_matching([("a", "b", 1.0)])
    except ImportError as error:
        assert "networkx" in str(error), error
    else:
        raise AssertionError("exact_matching ran without networkx")
    print("ok")
    """
)


def test_import_and_schedule_without_numpy_or_networkx():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
