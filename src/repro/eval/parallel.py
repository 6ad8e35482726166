"""Parallel batch execution of suite evaluations.

The sequential :mod:`~repro.eval.runner` schedules one loop at a time;
this module fans the same per-loop work items out over a ``spawn``-safe
:class:`~concurrent.futures.ProcessPoolExecutor` and merges the outcomes
back **in suite order**, so results are bit-identical to the sequential
path regardless of worker count, chunk size or completion order (only
the measured ``cpu_seconds`` are timing noise, exactly as they are
between two sequential runs).

Entry points:

* :func:`run_requests` — evaluate many ``(scheduler, suite)`` pairs in
  **one shared pool**.  Figure panels, Table 2 and the sweeps batch all
  their scheduler/machine combinations through this, so a single pool's
  startup cost is amortized over the whole experiment.
* :func:`run_suite_parallel` — one suite with one scheduler
  (``run_suite(..., jobs=N)`` delegates here).
* :func:`submit_requests` / :func:`submit_suite` /
  :func:`as_completed_suites` — the streaming interface: submit whole
  (scheduler, suite) evaluations without blocking and consume
  :class:`SuiteTask` results in completion order (what
  :meth:`repro.service.session.ReproService.submit` / ``as_completed``
  are built on).
* :func:`evaluation_pool` — a context-managed pool that *several*
  ``run_requests`` calls inside one CLI invocation reuse, so small suites
  do not pay the spawn cost per call::

      with evaluation_pool(jobs=4) as pool:
          first = run_requests(requests_a, pool=pool)
          second = run_requests(requests_b, pool=pool)   # same workers

* :func:`resolve_jobs` — the ``--jobs`` convention: ``None``/``0`` means
  one worker per CPU, ``1`` means the in-process sequential path.
* :func:`resolve_mp_context` — the ``--mp-context`` convention:
  ``None`` picks ``forkserver`` where the platform offers it (POSIX) and
  ``spawn`` elsewhere.  Forkserver workers fork from a small server
  process that has pre-imported this module (the interpreter boots and
  the library imports once, not once per worker), shaving the
  per-invocation pool startup; ``spawn`` stays available as the
  conservative portable choice.  Results are bit-identical under either
  start method — the context only changes how worker processes come to
  exist.

Work items are dispatched in **chunks** of several loops
(:func:`resolve_chunksize`; ``--chunksize`` on the CLI): one future per
loop is fine at a few hundred loops, but outcomes are large (~60KB on the
extended tier) and submission/pickling overhead grows linearly, so
batching amortizes it on thousands-of-loops tiers.  The merge indexes
outcomes by their (benchmark, loop) key, so chunk boundaries never
affect results.

Failure semantics: the schedulers are deterministic, so re-running a
failed chunk could only fail again, and nothing is retried.  The first
failure fails the run with a :class:`~repro.errors.LoopTaskError` naming
the benchmark, loop and scheduler — whether the scheduler raised inside
a worker, the worker died (``BrokenProcessPool`` from a future) or the
pool was already broken when a chunk was submitted.  The sequential
path raises the same error (:func:`~repro.eval.runner.run_benchmark`),
so a run fails the same way at every ``--jobs``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import LoopTaskError, ReproError
from ..ir.loop import Loop
from ..schedule.drivers import BaseScheduler, ScheduleOutcome
from ..workloads.spec import Benchmark
from .runner import BenchmarkResult, SuiteResult, run_suite, schedule_loop

__all__ = [
    "BatchTelemetry",
    "EvaluationPool",
    "LoopTaskError",
    "SuiteTask",
    "as_completed_suites",
    "evaluation_pool",
    "resolve_chunksize",
    "resolve_jobs",
    "resolve_mp_context",
    "run_requests",
    "run_suite_parallel",
    "submit_requests",
    "submit_suite",
]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` -> CPU count, else as given."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ReproError(f"--jobs must be >= 0, got {jobs}")
    return jobs


#: Start methods the pool accepts.  ``fork`` is deliberately excluded:
#: forking a large parent mid-flight copies arbitrary state (open pools,
#: timers) into workers, exactly the hazards the original spawn-only
#: design avoided; forkserver gives fork's startup speed from a clean,
#: single-purpose parent instead.
MP_CONTEXTS = ("spawn", "forkserver")


def resolve_mp_context(mp_context: Optional[str]) -> str:
    """Normalize an ``--mp-context`` value.

    ``None`` means the platform default: ``forkserver`` where available
    (POSIX), else ``spawn``.  Explicit values are checked against both
    the accepted set and the platform.
    """
    available = multiprocessing.get_all_start_methods()
    if mp_context is None:
        return "forkserver" if "forkserver" in available else "spawn"
    if mp_context not in MP_CONTEXTS:
        raise ReproError(
            f"--mp-context must be one of {MP_CONTEXTS}, got {mp_context!r}"
        )
    if mp_context not in available:
        raise ReproError(
            f"start method {mp_context!r} is unavailable on this platform"
        )
    return mp_context


#: Upper bound on the automatic chunk size: chunks stay small enough for
#: the pool to load-balance even when one loop is much slower than its
#: neighbours (the extended tier mixes ~32-op and ~280-op bodies).
_MAX_AUTO_CHUNK = 32


def resolve_chunksize(
    chunksize: Optional[int], total_items: int, jobs: int
) -> int:
    """The loops-per-task batch size.

    ``None`` picks the heuristic ``ceil(total / (4 * jobs))`` capped at
    ``32``: about four waves of chunks per worker, so pickling overhead is
    amortized without sacrificing load balance.  An explicit value is used
    as given (``1`` reproduces one-future-per-loop dispatch).
    """
    if chunksize is None:
        return max(1, min(_MAX_AUTO_CHUNK, -(-total_items // (4 * max(1, jobs)))))
    if chunksize < 1:
        raise ReproError(f"--chunksize must be >= 1, got {chunksize}")
    return chunksize


def _warm_probe() -> int:
    """Worker-side warm-up task: hold the worker just long enough that
    concurrent probes cannot all be served by one eager process."""
    time.sleep(0.02)
    return os.getpid()


class EvaluationPool:
    """A lazily spawned, reusable worker pool.

    The executor is created on first use and kept alive until
    :meth:`shutdown`, so several batch calls within one CLI invocation
    share the same worker processes.  ``jobs == 1`` never spawns anything
    (callers take the in-process sequential path).  :meth:`shutdown` is
    idempotent and safe on a broken executor — a pool that died
    mid-batch must not raise again from ``evaluation_pool()``'s
    ``finally``.
    """

    def __init__(
        self, jobs: Optional[int] = None, mp_context: Optional[str] = None
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.mp_context = resolve_mp_context(mp_context)
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            context = multiprocessing.get_context(self.mp_context)
            if self.mp_context == "forkserver":
                # Workers fork from the server, so preloading this module
                # there imports the library (and the interpreter) once per
                # pool instead of once per worker.
                context.set_forkserver_preload([__name__])
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._executor

    def warm(self) -> int:
        """Pre-spawn the worker processes; returns the live worker count.

        Normally workers spawn lazily on first submit, which puts the
        interpreter/import cost inside the first request's latency.  A
        benchmark calls this before its timed region (perfbench's pool
        run) so the measurement sees scheduling, not process start-up.
        Each probe task sleeps briefly so concurrent probes force
        distinct workers up.
        """
        executor = self.executor()
        probes = [executor.submit(_warm_probe) for _ in range(self.jobs)]
        return len({probe.result() for probe in probes})

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        try:
            executor.shutdown(cancel_futures=True)
        except Exception:
            # A broken executor (dead workers, closed queues) may raise
            # mid-teardown; there is nothing left to release cleanly.
            pass


@contextmanager
def evaluation_pool(
    jobs: Optional[int] = None, mp_context: Optional[str] = None
) -> Iterator[EvaluationPool]:
    """Context-managed :class:`EvaluationPool` shared across batch calls."""
    pool = EvaluationPool(jobs, mp_context=mp_context)
    try:
        yield pool
    finally:
        pool.shutdown()




@dataclass(frozen=True)
class BatchTelemetry:
    """What one batch's fan-out did, carried on ``ResponseMeta``.

    ``chunks`` is the number of work chunks the batch submitted to the
    pool (0 when it ran in-process at ``jobs=1``).
    """

    chunks: int


#: A work unit key: (benchmark index, loop index) within one suite.
_TaskKey = Tuple[int, int]

#: A dispatchable item: key, benchmark name (for error text) and the loop.
_Item = Tuple[_TaskKey, str, Loop]


def _run_chunk(
    scheduler: BaseScheduler, items: Sequence[_Item], validate_each: bool
) -> List[Tuple[_TaskKey, ScheduleOutcome]]:
    """Worker entry point (module-level: picklable under ``spawn``).

    ``validate_each`` validates each modulo schedule *here*, while the
    engine-attached sessions are still alive (they are dropped when the
    outcome is pickled back to the parent), so the sweep pays the cached
    validation cost it is trying to measure.  The first failing item
    raises a :class:`LoopTaskError` naming it.
    """
    return [
        (key, schedule_loop(scheduler, benchmark, loop, validate_each))
        for key, benchmark, loop in items
    ]


def _loop_error(
    scheduler: BaseScheduler, chunk: Sequence[_Item], cause: BaseException
) -> LoopTaskError:
    """A pool failure, blamed on the first loop of the chunk it hit."""
    _key, benchmark, loop = chunk[0]
    return LoopTaskError(
        benchmark=benchmark,
        loop_name=loop.name,
        scheduler=scheduler.name,
        cause=cause,
    )


class SuiteTask:
    """One in-flight (scheduler, suite) evaluation.

    Created by :func:`submit_requests` / :func:`submit_suite`.  On a
    worker pool the suite's chunks are already submitted and
    :meth:`result` merges them in suite order; without a pool the task
    is *lazy* and the sequential :func:`~repro.eval.runner.run_suite`
    happens at the first :meth:`result` call.  Any failure — including a
    pool that was already broken at submission — raises from
    :meth:`result` as a :class:`LoopTaskError`, and again on every later
    call.
    """

    def __init__(
        self,
        scheduler: BaseScheduler,
        suite: Sequence[Benchmark],
        validate_each: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.suite = list(suite)
        self.validate_each = validate_each
        #: Submitted chunks in submission order (empty for a lazy task).
        self._futures: Dict[Future, List[_Item]] = {}
        self._result: Optional[SuiteResult] = None
        self._error: Optional[Exception] = None
        self._finished = False

    @property
    def chunks(self) -> int:
        """Work chunks submitted to the pool (0 for a lazy task)."""
        return len(self._futures)

    def _submit(self, pool: EvaluationPool, size: int) -> None:
        items = [
            ((b, i), benchmark.name, loop)
            for b, benchmark in enumerate(self.suite)
            for i, loop in enumerate(benchmark.loops)
        ]
        for start in range(0, len(items), size):
            chunk = items[start : start + size]
            try:
                future = pool.executor().submit(
                    _run_chunk, self.scheduler, chunk, self.validate_each
                )
            except BrokenProcessPool as error:
                failure = _loop_error(self.scheduler, chunk, error)
                failure.__cause__ = error
                self._fail(failure)
                return
            self._futures[future] = chunk

    def _fail(self, error: Exception) -> None:
        self._error = error
        self._finished = True
        for future in self._futures:
            future.cancel()

    def done(self) -> bool:
        """True once :meth:`result` will not block on the pool.

        A lazy task reports ``True`` immediately: its sequential run
        happens inline at the :meth:`result` call.
        """
        return self._finished or all(f.done() for f in self._futures)

    def result(self) -> SuiteResult:
        """The merged :class:`SuiteResult` (blocks until available)."""
        if not self._finished:
            try:
                self._result = (
                    self._merge()
                    if self._futures
                    else run_suite(
                        self.suite, self.scheduler, validate_each=self.validate_each
                    )
                )
                self._finished = True
            except Exception as error:
                self._fail(error)
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _merge(self) -> SuiteResult:
        """Outcomes by key back into suite order (chunks collected in
        submission order)."""
        outcomes: Dict[_TaskKey, ScheduleOutcome] = {}
        for future, chunk in self._futures.items():
            try:
                outcomes.update(future.result())
            except LoopTaskError:
                raise
            except Exception as error:
                # The worker died (BrokenProcessPool), or the chunk's
                # outcome or error could not be sent back.
                raise _loop_error(self.scheduler, chunk, error) from error
        scheduler = self.scheduler
        result = SuiteResult(scheduler=scheduler.name, machine=scheduler.machine.name)
        for b, benchmark in enumerate(self.suite):
            result.per_benchmark[benchmark.name] = BenchmarkResult(
                benchmark=benchmark.name,
                scheduler=scheduler.name,
                machine=scheduler.machine.name,
                outcomes=[outcomes[(b, i)] for i in range(len(benchmark.loops))],
            )
        return result


def submit_requests(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
    pool: Optional[EvaluationPool] = None,
    chunksize: Optional[int] = None,
    validate_each: bool = False,
) -> List[SuiteTask]:
    """Submit every ``(scheduler, suite)`` request without blocking.

    One :class:`SuiteTask` per request, in request order; the chunk size
    is resolved once over the whole batch.  Without a pool (or with a
    1-worker pool) the tasks are lazy sequential runs, so callers need
    no special-casing at ``jobs=1``.
    """
    tasks = [
        SuiteTask(scheduler, suite, validate_each=validate_each)
        for scheduler, suite in requests
    ]
    if pool is None or pool.jobs == 1:
        return tasks
    total_items = sum(len(b.loops) for task in tasks for b in task.suite)
    size = resolve_chunksize(chunksize, total_items, pool.jobs)
    for task in tasks:
        task._submit(pool, size)
    return tasks


def submit_suite(
    scheduler: BaseScheduler,
    suite: Sequence[Benchmark],
    pool: Optional[EvaluationPool] = None,
    chunksize: Optional[int] = None,
    validate_each: bool = False,
) -> SuiteTask:
    """Submit one (scheduler, suite) evaluation without blocking on it.

    The streaming counterpart of :func:`run_requests`: work starts in
    ``pool``'s workers immediately, the caller keeps submitting, and
    :func:`as_completed_suites` yields tasks as whole suites finish.
    """
    return submit_requests(
        [(scheduler, suite)], pool, chunksize=chunksize, validate_each=validate_each
    )[0]


def run_requests(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
    jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
    pool: Optional[EvaluationPool] = None,
    mp_context: Optional[str] = None,
    validate_each: bool = False,
) -> List[SuiteResult]:
    """Evaluate every ``(scheduler, suite)`` request, sharing one pool.

    Returns one :class:`SuiteResult` per request, in request order, with
    benchmarks and loop outcomes in their original suite order — the
    merge is deterministic no matter how the pool interleaves or chunks
    the work.  With ``pool`` the caller's shared :class:`EvaluationPool`
    is reused (its worker count and start method win over ``jobs`` /
    ``mp_context``) and left running on return.  ``validate_each``
    validates each modulo schedule in the worker that produced it.
    """
    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    owns_pool = pool is None and jobs != 1
    if owns_pool:
        pool = EvaluationPool(jobs, mp_context=mp_context)
    try:
        tasks = submit_requests(
            requests, pool, chunksize=chunksize, validate_each=validate_each
        )
        return [task.result() for task in tasks]
    finally:
        if owns_pool:
            pool.shutdown()


def as_completed_suites(tasks: Sequence[SuiteTask]) -> Iterator[SuiteTask]:
    """Yield tasks as their suites complete (lazy tasks in given order).

    Pool-backed tasks are yielded in *completion* order, as soon as the
    last of their chunks settles; lazy sequential tasks (and tasks that
    already failed at submission) are yielded first, in submission
    order.  Yielded tasks are ``done()``; failures raise only from
    :meth:`SuiteTask.result`.
    """
    tasks = list(tasks)
    owner: Dict[Future, SuiteTask] = {}
    outstanding: Dict[int, set] = {}
    for task in tasks:
        if task._finished or not task._futures:
            yield task
            continue
        for future in task._futures:
            owner[future] = task
        outstanding[id(task)] = set(task._futures)
    for future in as_completed(owner):
        task = owner[future]
        pending = outstanding[id(task)]
        pending.discard(future)
        if not pending:
            yield task


def run_suite_parallel(
    suite: Sequence[Benchmark],
    scheduler: BaseScheduler,
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    pool: Optional[EvaluationPool] = None,
    mp_context: Optional[str] = None,
    validate_each: bool = False,
) -> SuiteResult:
    """Parallel counterpart of :func:`~repro.eval.runner.run_suite`.

    Unlike :func:`run_requests` (which, like ``run_suite``, defaults to
    the sequential path) this function exists to parallelize, so its
    default ``jobs=None`` means one worker per CPU.
    """
    return run_requests(
        [(scheduler, suite)],
        jobs=jobs,
        chunksize=chunksize,
        pool=pool,
        mp_context=mp_context,
        validate_each=validate_each,
    )[0]
