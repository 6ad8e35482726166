"""Determinism and failure-surfacing tests for the parallel batch runner.

The contract under test: for any ``--jobs`` value the parallel runner's
results — per-loop IPC, II, stages, bus/mem-comm/spill stats, rendered
tables, machine-readable exports — are byte-identical to the sequential
path, and a scheduler that raises (or a worker that dies, or a pool that
is already broken) fails the run with a :class:`LoopTaskError` naming the
loop instead of hanging the pool, at every ``jobs`` value.
"""

import multiprocessing
import os

import pytest

from repro.eval.export import figure_to_csv, suite_result_to_json
from repro.eval.figures import figure2_panel
from repro.eval.parallel import (
    EvaluationPool,
    LoopTaskError,
    as_completed_suites,
    evaluation_pool,
    resolve_chunksize,
    resolve_jobs,
    resolve_mp_context,
    run_requests,
    run_suite_parallel,
    submit_suite,
)
from repro.eval.runner import run_suite
from repro.service import SCHEDULERS
from repro.errors import ReproError
from repro.machine.presets import two_cluster
from repro.schedule.drivers import BaseScheduler, GPScheduler, UracamScheduler
from repro.workloads.spec import spec_suite


class _CrashingScheduler(BaseScheduler):
    """Raises on one specific loop (module-level: picklable under spawn)."""

    name = "crashing"

    def __init__(self, machine, victim: str) -> None:
        super().__init__(machine)
        self.victim = victim

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

    def __init__(self, machine, victim: str) -> None:
        super().__init__(machine)
        self.victim = victim

    def schedule(self, loop):
        outcome = super().schedule(loop)
        if loop.name == self.victim and outcome.is_modulo:
            outcome.schedule.structural.dep_error = "injected session corruption"
        return outcome

    def _policy(self, loop, ii):
        from repro.schedule.engine import AllClustersPolicy

        return AllClustersPolicy(self.machine.num_clusters)


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


class TestResolveMpContext:
    def test_default_prefers_forkserver_on_posix(self):
        expected = (
            "forkserver"
            if "forkserver" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert resolve_mp_context(None) == expected

    def test_explicit_value_passes_through(self):
        assert resolve_mp_context("spawn") == "spawn"

    def test_fork_and_garbage_rejected(self):
        with pytest.raises(ReproError):
            resolve_mp_context("fork")
        with pytest.raises(ReproError):
            resolve_mp_context("banana")


class TestResolveChunksize:
    def test_explicit_value_passes_through(self):
        assert resolve_chunksize(1, total_items=100, jobs=4) == 1
        assert resolve_chunksize(7, total_items=100, jobs=4) == 7

    def test_heuristic_amortizes_but_load_balances(self):
        # ~4 waves of chunks per worker.
        assert resolve_chunksize(None, total_items=220, jobs=4) == 14
        # Tiny suites stay at one loop per task.
        assert resolve_chunksize(None, total_items=3, jobs=8) == 1
        # Huge tiers are capped so one slow loop can't starve the pool.
        assert resolve_chunksize(None, total_items=100_000, jobs=2) == 32

    def test_nonpositive_rejected(self):
        with pytest.raises(ReproError):
            resolve_chunksize(0, total_items=10, jobs=2)


class TestDeterministicMerge:
    """Parallel output is byte-identical to sequential, any worker count."""

    @pytest.fixture(scope="class")
    def paper_suite(self):
        return spec_suite()

    @pytest.fixture(scope="class")
    def sequential_export(self, paper_suite):
        result = run_suite(paper_suite, SCHEDULERS.create("gp", two_cluster(32)))
        return suite_result_to_json(result, timing=False)

    @pytest.mark.parametrize(
        "jobs,chunksize",
        [
            (1, None),
            (2, None),   # automatic chunking heuristic
            (2, 1),      # one future per loop (the pre-chunking dispatch)
            (2, 3),
            (2, 1000),   # one chunk swallows the whole suite
            (8, None),
            (8, 2),
        ],
    )
    def test_byte_identical_export(
        self, paper_suite, sequential_export, jobs, chunksize
    ):
        result = run_suite(
            paper_suite,
            SCHEDULERS.create("gp", two_cluster(32)),
            jobs=jobs,
            chunksize=chunksize,
        )
        assert suite_result_to_json(result, timing=False) == sequential_export

    @pytest.mark.parametrize("mp_context", ["spawn", "forkserver"])
    def test_byte_identical_under_both_start_methods(
        self, paper_suite, sequential_export, mp_context
    ):
        if mp_context not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{mp_context} unavailable on this platform")
        result = run_requests(
            [(SCHEDULERS.create("gp", two_cluster(32)), paper_suite)],
            jobs=2,
            mp_context=mp_context,
        )[0]
        assert suite_result_to_json(result, timing=False) == sequential_export

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_validate_each_changes_nothing(
        self, paper_suite, sequential_export, jobs
    ):
        """The sweep-integrated validation accepts every schedule and the
        merged results stay byte-identical."""
        result = run_suite(
            paper_suite,
            SCHEDULERS.create("gp", two_cluster(32)),
            jobs=jobs,
            validate_each=True,
        )
        assert suite_result_to_json(result, timing=False) == sequential_export

    def test_shared_pool_reused_across_calls(self, paper_suite):
        """One evaluation_pool serves several run_requests calls."""
        mini = paper_suite[:1]
        machine = two_cluster(32)
        sequential = [
            suite_result_to_json(run_suite(mini, scheduler), timing=False)
            for scheduler in (GPScheduler(machine), UracamScheduler(machine))
        ]
        with evaluation_pool(jobs=2) as pool:
            first = run_requests([(GPScheduler(machine), mini)], pool=pool)
            executor = pool._executor
            assert executor is not None  # spawned once...
            second = run_requests([(UracamScheduler(machine), mini)], pool=pool)
            assert pool._executor is executor  # ...and reused, not respawned
        assert pool._executor is None  # context exit shuts it down
        pooled = [
            suite_result_to_json(result[0], timing=False)
            for result in (first, second)
        ]
        assert pooled == sequential

    def test_rendered_panel_identical(self, paper_suite):
        mini = paper_suite[:1]
        sequential = figure2_panel(2, 32, suite=mini, jobs=1)
        pooled = figure2_panel(2, 32, suite=mini, jobs=2)
        assert pooled.render() == sequential.render()
        assert figure_to_csv(pooled) == figure_to_csv(sequential)

    def test_run_requests_shares_one_pool(self, paper_suite):
        mini = paper_suite[:1]
        machine = two_cluster(32)
        schedulers = [GPScheduler(machine), UracamScheduler(machine)]
        pooled = run_requests([(s, mini) for s in schedulers], jobs=2)
        for scheduler, result in zip(schedulers, pooled):
            expected = run_suite(mini, scheduler)
            assert suite_result_to_json(
                result, timing=False
            ) == suite_result_to_json(expected, timing=False)
            assert result.scheduler == scheduler.name


class TestFailureSurfacing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_names_the_loop(self, jobs):
        suite = spec_suite()[:1]
        victim = suite[0].loops[1].name
        scheduler = _CrashingScheduler(two_cluster(32), victim=victim)
        with pytest.raises(LoopTaskError) as excinfo:
            run_suite_parallel(suite, scheduler, jobs=jobs)
        assert victim in str(excinfo.value)
        assert suite[0].name in str(excinfo.value)
        assert "'crashing'" in str(excinfo.value)
        assert excinfo.value.loop_name == victim
        assert isinstance(excinfo.value.cause, RuntimeError)

    def test_dead_worker_does_not_hang(self):
        suite = spec_suite()[:1]
        with pytest.raises(LoopTaskError) as excinfo:
            run_suite_parallel(suite, _DyingScheduler(two_cluster(32)), jobs=2)
        # The pool is broken, not hung, and the error names affected work.
        assert excinfo.value.benchmark == suite[0].name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_validate_each_surfaces_bad_schedule_as_loop_error(self, jobs):
        """Sequential and pooled paths both name the failing loop."""
        suite = spec_suite()[:1]
        victim = suite[0].loops[0].name
        scheduler = _SessionCorruptingScheduler(two_cluster(32), victim=victim)
        with pytest.raises(LoopTaskError) as excinfo:
            run_suite(suite, scheduler, jobs=jobs, validate_each=True)
        assert excinfo.value.loop_name == victim
        assert "injected session corruption" in str(excinfo.value)

    def test_pool_broken_before_submit_is_a_loop_error(self):
        """``executor.submit`` itself raising BrokenProcessPool."""
        suite = spec_suite()[:2]
        pool = EvaluationPool(jobs=2)
        try:
            _break_pool(pool)
            with pytest.raises(LoopTaskError) as excinfo:
                run_requests([(GPScheduler(two_cluster(32)), suite)], pool=pool)
            assert excinfo.value.benchmark == suite[0].name
            assert excinfo.value.scheduler == "gp"
        finally:
            pool.shutdown()


def _break_pool(pool: EvaluationPool) -> None:
    """Kill a worker so the executor is broken for everything after."""
    from concurrent.futures import wait

    future = pool.executor().submit(_exit_worker)
    wait([future])
    assert future.exception() is not None


def _exit_worker():
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


class TestStreamingFailures:
    """Satellite: as_completed_suites with failing SuiteTasks."""

    @pytest.fixture(scope="class")
    def mini(self):
        return spec_suite()[:1]

    def test_failing_task_is_isolated(self, mini):
        victim = mini[0].loops[0].name
        machine = two_cluster(32)
        with evaluation_pool(jobs=2) as pool:
            good_a = submit_suite(GPScheduler(machine), mini, pool=pool)
            bad = submit_suite(
                _CrashingScheduler(machine, victim=victim), mini, pool=pool
            )
            good_b = submit_suite(UracamScheduler(machine), mini, pool=pool)
            tasks = [good_a, bad, good_b]
            completed = list(as_completed_suites(tasks))
            # Every task is yielded exactly once, and yielded tasks are done.
            assert sorted(map(id, completed)) == sorted(map(id, tasks))
            assert all(task.done() for task in completed)
            # The failing task raises from result() — the others don't care.
            with pytest.raises(LoopTaskError) as excinfo:
                bad.result()
            assert excinfo.value.loop_name == victim
            # ...and raises the *same* error again on re-request.
            with pytest.raises(LoopTaskError):
                bad.result()
            expected = suite_result_to_json(
                run_suite(mini, GPScheduler(machine)), timing=False
            )
            assert suite_result_to_json(good_a.result(), timing=False) == expected
            assert good_b.result().scheduler == "uracam"

    def test_lazy_tasks_yield_before_pool_tasks_and_fail_lazily(self, mini):
        victim = mini[0].loops[0].name
        machine = two_cluster(32)
        lazy_bad = submit_suite(_CrashingScheduler(machine, victim=victim), mini)
        lazy_good = submit_suite(GPScheduler(machine), mini)
        order = list(as_completed_suites([lazy_bad, lazy_good]))
        assert order == [lazy_bad, lazy_good]  # given order, no pool
        # The lazy path is plain run_suite, which names the failing loop
        # exactly as the pooled path does.
        with pytest.raises(LoopTaskError) as excinfo:
            lazy_bad.result()
        assert excinfo.value.loop_name == victim
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "injected scheduler crash" in str(excinfo.value.__cause__)
        assert lazy_good.result().scheduler == "gp"

    def test_dead_worker_surfaces_from_result_not_iteration(self, mini):
        machine = two_cluster(32)
        with evaluation_pool(jobs=2) as pool:
            dying = submit_suite(_DyingScheduler(machine), mini, pool=pool)
            good = submit_suite(GPScheduler(machine), mini, pool=pool)
            completed = list(as_completed_suites([dying, good]))
            assert sorted(map(id, completed)) == sorted(map(id, [dying, good]))
            with pytest.raises(LoopTaskError):
                dying.result()
