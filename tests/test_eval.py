"""Unit tests for metrics, the runner and report formatting."""

import pytest

from repro.eval.metrics import aggregate_ipc, arithmetic_mean, percent_gain, speedup
from repro.eval.report import format_bar_chart, format_table
from repro.eval.runner import run_benchmark, run_suite
from repro.machine.presets import two_cluster, unified
from repro.service import SCHEDULERS
from repro.workloads.spec import Benchmark, make_benchmark
from repro.workloads.kernels import daxpy, stencil5


class TestMetrics:
    def test_aggregate_ipc(self):
        assert aggregate_ipc([100, 200], [50, 100]) == 2.0

    def test_aggregate_ipc_weighted_not_averaged(self):
        # 100 ops in 100 cycles (1.0) + 1000 ops in 200 cycles (5.0):
        # aggregate = 1100/300, not the 3.0 a plain mean would give.
        assert aggregate_ipc([100, 1000], [100, 200]) == pytest.approx(1100 / 300)

    def test_aggregate_mismatch_raises(self):
        with pytest.raises(ValueError):
            aggregate_ipc([1], [1, 2])

    def test_zero_cycles(self):
        assert aggregate_ipc([], []) == 0.0

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_speedup_and_percent(self):
        assert speedup(2.46, 2.0) == pytest.approx(1.23)
        assert percent_gain(2.46, 2.0) == pytest.approx(23.0)

    def test_speedup_zero_baseline(self):
        assert speedup(1.0, 0.0) == float("inf")


class TestRunner:
    def make_mini_benchmark(self):
        return Benchmark(name="mini", loops=(daxpy(), stencil5()))

    def test_run_benchmark_collects_all_loops(self):
        result = run_benchmark(
            self.make_mini_benchmark(),
            SCHEDULERS.create("uracam", two_cluster(64)),
        )
        assert len(result.outcomes) == 2
        assert 0 < result.ipc <= 12
        assert result.cpu_seconds > 0

    def test_modulo_fraction(self):
        result = run_benchmark(
            self.make_mini_benchmark(), SCHEDULERS.create("gp", two_cluster(64))
        )
        assert 0 <= result.modulo_fraction <= 1

    def test_run_suite_shape(self):
        suite = [self.make_mini_benchmark()]
        result = run_suite(suite, SCHEDULERS.create("unified", unified(64)))
        assert set(result.per_benchmark) == {"mini"}
        assert result.average_ipc > 0


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "2.500" in out

    def test_format_table_precision(self):
        out = format_table(["x"], [[1.23456]], precision=1)
        assert "1.2" in out

    def test_bar_chart_renders_bars(self):
        out = format_bar_chart(["gp", "uracam"], [4.0, 2.0])
        lines = out.splitlines()
        assert lines[0].count("#") > lines[1].count("#")

    def test_bar_chart_mismatch(self):
        with pytest.raises(ValueError):
            format_bar_chart(["a"], [1.0, 2.0])


class TestFigureHelpers:
    def test_figure_result_average_and_gain(self):
        from repro.eval.figures import FigureResult

        fig = FigureResult(title="t", benchmarks=["a", "b"])
        fig.series["uracam"] = [2.0, 2.0]
        fig.series["gp"] = [2.46, 2.46]
        assert fig.average("gp") == pytest.approx(2.46)
        assert fig.gain_percent("gp", "uracam") == pytest.approx(23.0)
        rendered = fig.render()
        assert "AVERAGE" in rendered

    def test_table1_report_mentions_all_configs(self):
        from repro.eval.figures import table1_report

        out = table1_report()
        assert "unified-32r" in out
        assert "4-cluster-64r-1bus-lat2" in out

    def test_small_panel_runs_end_to_end(self):
        from repro.eval.figures import figure2_panel

        mini = Benchmark(name="mini", loops=(daxpy(), stencil5()))
        panel = figure2_panel(2, 64, suite=[mini])
        assert set(panel.series) == {"unified", "uracam", "fixed-partition", "gp"}
        assert all(v[0] > 0 for v in panel.series.values())


def test_ii_search_stats_aggregation():
    from repro.eval.metrics import ii_search_stats
    from repro.machine.presets import four_cluster
    from repro.schedule.drivers import GPScheduler
    from repro.workloads.generator import LoopShape, generate_loop

    shape = LoopShape(
        40, mem_ratio=0.3, depth_bias=0.35, recurrences=1, trip_count=150
    )
    outcomes = [
        GPScheduler(four_cluster(16)).schedule(generate_loop("iis", shape, seed))
        for seed in range(3)
    ]
    stats = ii_search_stats(outcomes)
    modulo = [o for o in outcomes if o.is_modulo]
    assert stats["attempts"] == sum(
        o.schedule.stats.ii_attempts for o in modulo
    )
    assert sum(stats["per_ii_attempts"].values()) == stats["attempts"]
    # Every search ends at the II its schedule landed on.
    for outcome in modulo:
        assert str(outcome.schedule.ii) in stats["per_ii_attempts"]
    assert set(stats) == {"attempts", "per_ii_attempts"}
