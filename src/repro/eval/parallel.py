"""The worker pool behind :meth:`ReproService.evaluate_many`.

The sequential :mod:`~repro.eval.runner` schedules one loop at a time;
this module fans the same per-loop work items out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and merges the outcomes
back **in suite order**, so results are bit-identical to the sequential
path regardless of worker count, chunking or completion order (only the
measured ``cpu_seconds`` are timing noise, exactly as they are between
two sequential runs).  Callers reach it through
:class:`~repro.service.session.ReproService`, whose ``evaluate_many``
hands every uncached request of a batch to :func:`run_batch` at once,
so one pool's startup cost is amortized over the whole experiment.

* :class:`EvaluationPool` — a lazily started, reusable pool.  Workers
  start under ``forkserver`` where the platform offers it (POSIX) and
  ``spawn`` elsewhere; forkserver workers fork from a small server
  process that has pre-imported this module, so the interpreter boots
  and the library imports once per pool, not once per worker.
* :func:`resolve_jobs` — the ``--jobs`` convention: ``None``/``0`` means
  one worker per CPU, ``1`` means the in-process sequential path.

Work items are dispatched in **chunks** of several loops
(:func:`resolve_chunksize`): outcomes are large (~60KB on the extended
tier) and submission/pickling overhead grows linearly with the number
of futures, so batching amortizes it.  The merge indexes outcomes by
their (benchmark, loop) key, so chunk boundaries never affect results.

Failure semantics: the schedulers are deterministic, so re-running a
failed chunk could only fail again, and nothing is retried.  The first
failure fails the batch with a :class:`~repro.errors.LoopTaskError`
naming the benchmark, loop and scheduler — whether the scheduler raised
inside a worker, the worker died (``BrokenProcessPool`` from a future)
or the pool was already broken when a chunk was submitted.  The
sequential path raises the same error
(:func:`~repro.eval.runner.run_benchmark`), so a run fails the same way
at every ``--jobs``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import LoopTaskError, ReproError
from ..ir.loop import Loop
from ..schedule.drivers import BaseScheduler, ScheduleOutcome
from ..workloads.spec import Benchmark
from .runner import BenchmarkResult, SuiteResult, run_suite, schedule_loop

__all__ = [
    "BatchTelemetry",
    "EvaluationPool",
    "LoopTaskError",
    "resolve_chunksize",
    "resolve_jobs",
    "run_batch",
    "start_method",
]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` -> CPU count, else as given."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ReproError(f"--jobs must be >= 0, got {jobs}")
    return jobs


def start_method() -> str:
    """The workers' start method: ``forkserver`` where available, else
    ``spawn``.

    ``fork`` is deliberately never used: forking a large parent
    mid-flight copies arbitrary state (open pools, timers) into
    workers; forkserver gives fork's startup speed from a clean,
    single-purpose parent instead.  Results are bit-identical under
    either method — it only changes how worker processes come to exist.
    """
    available = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in available else "spawn"


#: Upper bound on the chunk size: chunks stay small enough for the pool
#: to load-balance even when one loop is much slower than its neighbours
#: (the extended tier mixes ~32-op and ~280-op bodies).
_MAX_AUTO_CHUNK = 32


def resolve_chunksize(total_items: int, jobs: int) -> int:
    """The loops-per-task batch size: ``ceil(total / (4 * jobs))`` capped
    at :data:`_MAX_AUTO_CHUNK`.

    About four waves of chunks per worker, so pickling overhead is
    amortized without sacrificing load balance.
    """
    return max(1, min(_MAX_AUTO_CHUNK, -(-total_items // (4 * max(1, jobs)))))


def _warm_probe(_index: int) -> int:
    """Worker-side warm-up task: hold the worker just long enough that
    concurrent probes cannot all be served by one eager process."""
    time.sleep(0.02)
    return os.getpid()


class EvaluationPool:
    """A lazily spawned, reusable worker pool.

    The executor is created on first use and kept alive until
    :meth:`shutdown`, so several batches share the same worker
    processes.  ``jobs == 1`` never spawns anything (:func:`run_batch`
    takes the in-process sequential path).  :meth:`shutdown` is
    idempotent and safe on a broken executor — a pool that died
    mid-batch must not raise again from its owner's ``close``.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            method = start_method()
            context = multiprocessing.get_context(method)
            if method == "forkserver":
                # Workers fork from the server, so preloading this module
                # there imports the library (and the interpreter) once per
                # pool instead of once per worker.
                context.set_forkserver_preload([__name__])
            self._executor = ProcessPoolExecutor(self.jobs, context)
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
        return len(set(self.executor().map(_warm_probe, range(self.jobs))))

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


@dataclass(frozen=True)
class BatchTelemetry:
    """What one batch's fan-out did, carried on ``ResponseMeta``.

    ``chunks`` is the number of work chunks the batch submitted to the
    pool (0 when it ran in-process at ``jobs=1``).
    """

    chunks: int


#: One batch entry: the scheduler, its suite and the ``validate_each`` flag.
BatchItem = Tuple[BaseScheduler, Sequence[Benchmark], bool]

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


def _merge(
    scheduler: BaseScheduler,
    suite: Sequence[Benchmark],
    outcomes: Dict[_TaskKey, ScheduleOutcome],
) -> SuiteResult:
    """Keyed outcomes back into suite order."""
    machine = scheduler.machine.name
    result = SuiteResult(scheduler=scheduler.name, machine=machine)
    for b, benchmark in enumerate(suite):
        result.per_benchmark[benchmark.name] = BenchmarkResult(
            benchmark=benchmark.name,
            scheduler=scheduler.name,
            machine=machine,
            outcomes=[outcomes[(b, i)] for i in range(len(benchmark.loops))],
        )
    return result


def run_batch(
    batch: Sequence[BatchItem], pool: Optional[EvaluationPool]
) -> Tuple[List[SuiteResult], int]:
    """Evaluate every ``(scheduler, suite, validate_each)`` entry.

    Returns one :class:`SuiteResult` per entry, in batch order, and the
    number of chunks submitted to the pool.  Without a pool (or with a
    1-worker pool) every entry runs in-process through
    :func:`~repro.eval.runner.run_suite`.  Otherwise the chunks of every
    entry, cut with one chunk size resolved over the whole batch, go to
    one ordered ``map`` over the pool: all are submitted up front, and
    the first failure cancels whatever has not started and raises.
    """
    if pool is None or pool.jobs == 1 or not batch:
        results = [
            run_suite(suite, scheduler, validate_each=validate_each)
            for scheduler, suite, validate_each in batch
        ]
        return results, 0
    work = [
        [
            ((b, i), benchmark.name, loop)
            for b, benchmark in enumerate(suite)
            for i, loop in enumerate(benchmark.loops)
        ]
        for _scheduler, suite, _validate_each in batch
    ]
    size = resolve_chunksize(sum(map(len, work)), pool.jobs)
    owners, schedulers, chunks, flags = [], [], [], []
    for index, ((scheduler, _suite, validate_each), items) in enumerate(
        zip(batch, work)
    ):
        for start in range(0, len(items), size):
            owners.append(index)
            schedulers.append(scheduler)
            chunks.append(items[start : start + size])
            flags.append(validate_each)
    outcomes: List[Dict[_TaskKey, ScheduleOutcome]] = [{} for _ in batch]
    collected = 0
    try:
        for found in pool.executor().map(_run_chunk, schedulers, chunks, flags):
            outcomes[owners[collected]].update(found)
            collected += 1
    except LoopTaskError:
        raise
    except Exception as error:
        # The pool was broken before the chunks went out, the worker
        # died (BrokenProcessPool), or the chunk's outcome or error
        # could not be sent back.
        raise _loop_error(
            schedulers[collected], chunks[collected], error
        ) from error
    results = [
        _merge(scheduler, suite, found)
        for (scheduler, suite, _validate_each), found in zip(batch, outcomes)
    ]
    return results, len(chunks)
