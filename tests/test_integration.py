"""Integration tests: the paper's headline shapes on small suites.

These check the *qualitative* results the reproduction must preserve (see
EXPERIMENTS.md): the unified machine upper-bounds the clustered ones, GP
beats URACAM on average under clustering stress, Fixed Partition sits in
between or close, and URACAM costs the most scheduling CPU time.
"""

import pytest

from repro.eval.figures import figure2_panel, figure3_panel, table2
from repro.eval.runner import run_suite
from repro.machine.presets import four_cluster, two_cluster
from repro.schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    UracamScheduler,
)
from repro.workloads.spec import make_benchmark, spec_suite


@pytest.fixture(scope="module")
def mini_suite():
    """Three representative programs keep integration tests quick."""
    return [make_benchmark(name) for name in ("tomcatv", "swim", "hydro2d")]


@pytest.fixture(scope="module")
def panel_4c32(mini_suite):
    return figure2_panel(4, 32, suite=mini_suite)


class TestFigure2Shape:
    def test_unified_upper_bounds_all(self, panel_4c32):
        for label in ("uracam", "fixed-partition", "gp"):
            assert panel_4c32.average(label) <= panel_4c32.average("unified") * 1.02

    def test_gp_beats_uracam_under_stress(self, panel_4c32):
        assert panel_4c32.average("gp") > panel_4c32.average("uracam")

    def test_gp_at_least_fixed(self, panel_4c32):
        assert panel_4c32.average("gp") >= panel_4c32.average("fixed-partition") * 0.97

    def test_all_series_positive(self, panel_4c32):
        for series in panel_4c32.series.values():
            assert all(v > 0 for v in series)


class _GPWithoutRescue(GPScheduler):
    """GP that never recomputes: the MII partition is its only attempt."""

    name = "gp-without-rescue"

    def _attempts(self, loop, ii):
        yield self._policy(loop, ii)


class TestHoldoutSeed:
    def test_claims_hold_on_the_holdout_suite(self):
        """Figure 2's ordering on a suite seed no rule was tuned on
        (20011201, 4x32): average IPC 5.69 GP > 5.17 fixed-partition >
        4.92 URACAM, and GP beats never recomputing (5.50).  Per
        program, GP beats fixed-partition on 9 of 10 (tie on mgrid),
        fixed-partition beats URACAM on 8 (below on su2cor and hydro2d),
        and GP beats never recomputing on 6 (ties elsewhere)."""
        suite = spec_suite(20011201)
        machine = four_cluster(32)
        average = {
            cls.name: run_suite(suite, cls(machine)).average_ipc
            for cls in (
                UracamScheduler,
                FixedPartitionScheduler,
                GPScheduler,
                _GPWithoutRescue,
            )
        }
        assert average["gp"] > average["fixed-partition"] > average["uracam"]
        assert average["gp"] > average["gp-without-rescue"]


class TestFigure3Shape:
    def test_higher_bus_latency_does_not_help(self, mini_suite):
        lat1 = figure2_panel(4, 32, suite=mini_suite)
        lat2 = figure3_panel(32, suite=mini_suite)
        assert lat2.average("gp") <= lat1.average("gp") * 1.02

    def test_gp_still_wins_at_latency_2(self, mini_suite):
        panel = figure3_panel(32, suite=mini_suite)
        assert panel.average("gp") >= panel.average("uracam") * 0.98


class TestTable2Shape:
    def test_uracam_slowest(self, mini_suite):
        result = table2(
            suite=mini_suite, machines=[four_cluster(32)]
        )
        config = result.configs[0]
        # Counted work, not wall clock: URACAM evaluates every cluster.
        scans = result.slot_scans[config]
        assert scans["uracam"] > scans["gp"]

    def test_render_contains_ratio_column(self, mini_suite):
        result = table2(suite=mini_suite, machines=[two_cluster(32)])
        assert "uracam/gp" in result.render()


class TestCrossSchedulerConsistency:
    def test_same_loops_all_schedulers(self, mini_suite):
        machine = two_cluster(32)
        results = {}
        for scheduler in (
            UracamScheduler(machine),
            FixedPartitionScheduler(machine),
            GPScheduler(machine),
        ):
            results[scheduler.name] = run_suite(mini_suite, scheduler)
        # Every scheduler handled every loop (modulo or list fallback).
        for result in results.values():
            for bench in result.per_benchmark.values():
                assert len(bench.outcomes) == len(mini_suite[0].loops)

    def test_every_modulo_schedule_validates(self, mini_suite):
        machine = four_cluster(32)
        for scheduler in (UracamScheduler(machine), GPScheduler(machine)):
            result = run_suite(mini_suite, scheduler)
            for bench in result.per_benchmark.values():
                for outcome in bench.outcomes:
                    if outcome.is_modulo:
                        outcome.schedule.validate()
