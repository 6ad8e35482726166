"""Determinism and failure-surfacing tests for the pooled batch path.

The contract under test: for any ``jobs`` value and any chunking,
``ReproService.evaluate_many``'s results — per-loop IPC, II, stages,
bus/mem-comm/spill stats, rendered tables, machine-readable exports —
are byte-identical to the sequential ``run_suite`` path, and a scheduler
that raises (or a worker that dies, or a pool that is already broken)
fails the batch with a :class:`LoopTaskError` naming the loop instead of
hanging the pool, at every ``jobs`` value.
"""

import multiprocessing
import os

import pytest

from repro.eval import parallel
from repro.eval.export import figure_to_csv, suite_result_to_json
from repro.eval.figures import figure2_panel
from repro.eval.parallel import (
    EvaluationPool,
    LoopTaskError,
    resolve_chunksize,
    resolve_jobs,
    start_method,
)
from repro.eval.runner import run_suite
from repro.errors import ReproError
from repro.machine.presets import two_cluster
from repro.schedule.drivers import BaseScheduler, GPScheduler, UracamScheduler
from repro.service import EvaluationRequest, ReproService, SchedulerRegistry
from repro.workloads.kernels import daxpy, stencil5
from repro.workloads.spec import Benchmark, spec_suite


def mini_suite():
    return (Benchmark(name="mini", loops=(daxpy(), stencil5())),)


class _CrashingScheduler(BaseScheduler):
    """Raises on the mini suite's second loop (module-level: picklable
    under spawn)."""

    name = "crashing"
    victim = stencil5().name

    def schedule(self, loop):
        if loop.name == self.victim:
            raise RuntimeError("injected scheduler crash")
        return super().schedule(loop)

    def _policy(self, loop, ii):
        from repro.schedule.engine import AllClustersPolicy

        return AllClustersPolicy(self.machine.num_clusters)


class _DyingScheduler(BaseScheduler):
    """Kills its worker process outright (the BrokenProcessPool case)."""

    name = "dying"

    def schedule(self, loop):
        os._exit(13)


class _SessionCorruptingScheduler(BaseScheduler):
    """Schedules normally, then poisons one loop's structural session —
    the corruption ``validate_each`` exists to catch in-sweep."""

    name = "session-corrupting"
    victim = daxpy().name

    def schedule(self, loop):
        outcome = super().schedule(loop)
        if loop.name == self.victim and outcome.is_modulo:
            outcome.schedule.structural.dep_error = "injected session corruption"
        return outcome

    def _policy(self, loop, ii):
        from repro.schedule.engine import AllClustersPolicy

        return AllClustersPolicy(self.machine.num_clusters)


def _registry(*classes) -> SchedulerRegistry:
    """A scratch scheduler registry holding the paper's GP plus ``classes``."""
    registry = SchedulerRegistry()
    for cls in (GPScheduler,) + classes:
        registry.register()(cls)
    return registry


def _evaluate(scheduler, suite, jobs=1, pool=None, validate_each=False):
    """One request through ``ReproService.evaluate`` on a scratch registry."""
    request = EvaluationRequest(
        scheduler=scheduler.name,
        machine=two_cluster(32),
        suite=tuple(suite),
        validate_each=validate_each,
    )
    with ReproService(
        jobs=jobs, pool=pool, schedulers=_registry(type(scheduler))
    ) as service:
        return service.evaluate(request)


class TestResolveJobs:
    def test_default_is_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-2)


class TestStartMethod:
    def test_default_prefers_forkserver_on_posix(self):
        expected = (
            "forkserver"
            if "forkserver" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert start_method() == expected


class TestResolveChunksize:
    def test_heuristic_amortizes_but_load_balances(self):
        # ~4 waves of chunks per worker.
        assert resolve_chunksize(total_items=220, jobs=4) == 14
        # Tiny suites stay at one loop per task.
        assert resolve_chunksize(total_items=3, jobs=8) == 1
        # Huge tiers are capped so one slow loop can't starve the pool.
        assert resolve_chunksize(total_items=100_000, jobs=2) == 32


class TestDeterministicMerge:
    """Pooled output is byte-identical to sequential, any worker count
    and any chunking."""

    @pytest.fixture(scope="class")
    def paper_suite(self):
        return spec_suite()

    @pytest.fixture(scope="class")
    def sequential_export(self, paper_suite):
        result = run_suite(paper_suite, GPScheduler(two_cluster(32)))
        return suite_result_to_json(result, timing=False)

    @pytest.mark.parametrize(
        "jobs,cap",
        [
            (1, None),
            (2, None),   # the heuristic as shipped
            (2, 1),      # one future per loop
            (2, 3),      # chunks straddle benchmark boundaries
            (2, 1000),   # a cap above the suite size: uncapped heuristic
            (8, None),
            (8, 2),
        ],
    )
    def test_byte_identical_export(
        self, paper_suite, sequential_export, jobs, cap, monkeypatch
    ):
        if cap is not None:
            monkeypatch.setattr(parallel, "_MAX_AUTO_CHUNK", cap)
        response = _evaluate(GPScheduler(two_cluster(32)), paper_suite, jobs=jobs)
        assert suite_result_to_json(response.result, timing=False) == sequential_export
        loops = sum(len(benchmark.loops) for benchmark in paper_suite)
        expected_chunks = (
            0 if jobs == 1 else -(-loops // resolve_chunksize(loops, jobs))
        )
        assert response.meta.telemetry.chunks == expected_chunks

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_validate_each_changes_nothing(
        self, paper_suite, sequential_export, jobs
    ):
        """The sweep-integrated validation accepts every schedule and the
        merged results stay byte-identical."""
        response = _evaluate(
            GPScheduler(two_cluster(32)), paper_suite, jobs=jobs,
            validate_each=True,
        )
        assert suite_result_to_json(response.result, timing=False) == sequential_export

    def test_shared_pool_reused_across_calls(self, paper_suite):
        """One adopted EvaluationPool serves several sessions' batches."""
        mini = tuple(paper_suite[:1])
        machine = two_cluster(32)
        sequential = [
            suite_result_to_json(run_suite(mini, scheduler), timing=False)
            for scheduler in (GPScheduler(machine), UracamScheduler(machine))
        ]
        pool = EvaluationPool(jobs=2)
        try:
            with ReproService(pool=pool) as service:
                first = service.evaluate(
                    EvaluationRequest(scheduler="gp", machine=machine, suite=mini)
                )
            executor = pool._executor
            assert executor is not None  # spawned once...
            with ReproService(pool=pool) as service:
                second = service.evaluate(
                    EvaluationRequest(scheduler="uracam", machine=machine, suite=mini)
                )
            assert pool._executor is executor  # ...and reused, not respawned
        finally:
            pool.shutdown()
        pooled = [
            suite_result_to_json(response.result, timing=False)
            for response in (first, second)
        ]
        assert pooled == sequential

    def test_rendered_panel_identical(self, paper_suite):
        mini = paper_suite[:1]
        sequential = figure2_panel(2, 32, suite=mini)
        with ReproService(jobs=2) as service:
            pooled = figure2_panel(2, 32, suite=mini, service=service)
        assert pooled.render() == sequential.render()
        assert figure_to_csv(pooled) == figure_to_csv(sequential)

    def test_evaluate_many_shares_one_pool(self, paper_suite):
        mini = tuple(paper_suite[:1])
        machine = two_cluster(32)
        schedulers = [GPScheduler(machine), UracamScheduler(machine)]
        with ReproService(jobs=2) as service:
            pooled = service.evaluate_many(
                [
                    EvaluationRequest(scheduler=s.name, machine=machine, suite=mini)
                    for s in schedulers
                ]
            )
        # One batch, one chunk count, carried by every computed response.
        assert pooled[0].meta.telemetry == pooled[1].meta.telemetry
        for scheduler, response in zip(schedulers, pooled):
            expected = run_suite(mini, scheduler)
            assert suite_result_to_json(
                response.result, timing=False
            ) == suite_result_to_json(expected, timing=False)
            assert response.result.scheduler == scheduler.name


class TestFailureSurfacing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_names_the_loop(self, jobs):
        suite = mini_suite()
        victim = _CrashingScheduler.victim
        with pytest.raises(LoopTaskError) as excinfo:
            _evaluate(_CrashingScheduler(two_cluster(32)), suite, jobs=jobs)
        assert victim in str(excinfo.value)
        assert suite[0].name in str(excinfo.value)
        assert "'crashing'" in str(excinfo.value)
        assert excinfo.value.loop_name == victim
        assert isinstance(excinfo.value.cause, RuntimeError)

    def test_dead_worker_does_not_hang(self):
        suite = mini_suite()
        with pytest.raises(LoopTaskError) as excinfo:
            _evaluate(_DyingScheduler(two_cluster(32)), suite, jobs=2)
        # The pool is broken, not hung, and the error names affected work.
        assert excinfo.value.benchmark == suite[0].name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_validate_each_surfaces_bad_schedule_as_loop_error(self, jobs):
        """Sequential and pooled paths both name the failing loop."""
        with pytest.raises(LoopTaskError) as excinfo:
            _evaluate(
                _SessionCorruptingScheduler(two_cluster(32)), mini_suite(),
                jobs=jobs, validate_each=True,
            )
        assert excinfo.value.loop_name == _SessionCorruptingScheduler.victim
        assert "injected session corruption" in str(excinfo.value)

    def test_pool_broken_before_submit_is_a_loop_error(self):
        """Submitting to an already broken executor raises BrokenProcessPool."""
        suite = spec_suite()[:2]
        pool = EvaluationPool(jobs=2)
        try:
            _break_pool(pool)
            with pytest.raises(LoopTaskError) as excinfo:
                _evaluate(GPScheduler(two_cluster(32)), suite, pool=pool)
            assert excinfo.value.benchmark == suite[0].name
            assert excinfo.value.scheduler == "gp"
        finally:
            pool.shutdown()


def _break_pool(pool: EvaluationPool) -> None:
    """Kill a worker so the executor is broken for everything after."""
    from concurrent.futures.process import BrokenProcessPool

    with pytest.raises(BrokenProcessPool):
        list(pool.executor().map(_exit_worker, [0]))


def _exit_worker(_index):
    os._exit(13)


class TestPoolLifecycle:
    """Satellite: shutdown is idempotent and safe on a broken pool."""

    def test_shutdown_is_idempotent(self):
        pool = EvaluationPool(jobs=2)
        pool.executor()
        pool.shutdown()
        assert pool._executor is None
        pool.shutdown()  # second call is a no-op, not an error
        assert pool._executor is None

    def test_shutdown_safe_after_broken_process_pool(self):
        pool = EvaluationPool(jobs=2)
        _break_pool(pool)
        pool.shutdown()  # must not raise despite the broken executor
        assert pool._executor is None
        pool.shutdown()

    def test_shutdown_without_ever_spawning(self):
        pool = EvaluationPool(jobs=2)
        pool.shutdown()  # nothing was spawned; still fine
        assert pool._executor is None
