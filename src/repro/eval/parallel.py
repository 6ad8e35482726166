"""Parallel batch execution of suite evaluations, with fault tolerance.

The sequential :mod:`~repro.eval.runner` schedules one loop at a time;
this module fans the same per-loop work items out over a ``spawn``-safe
:class:`~concurrent.futures.ProcessPoolExecutor` and merges the outcomes
back **in suite order**, so results are bit-identical to the sequential
path regardless of worker count, chunk size, completion order — or how
many times a chunk had to be retried (scheduling is fully deterministic;
only the measured ``cpu_seconds`` are timing noise, exactly as they are
between two sequential runs).

Entry points:

* :func:`run_requests` — evaluate many ``(scheduler, suite)`` pairs in
  **one shared pool**.  Figure panels, Table 2 and the sweeps batch all
  their scheduler/machine combinations through this, so a single pool's
  startup cost is amortized over the whole experiment.
* :func:`run_suite_parallel` — one suite with one scheduler
  (``run_suite(..., jobs=N)`` delegates here).
* :func:`submit_suite` / :func:`as_completed_suites` — the streaming
  interface: submit whole (scheduler, suite) evaluations without
  blocking and consume :class:`SuiteTask` results in completion order
  (what :meth:`repro.service.session.ReproService.submit` /
  ``as_completed`` are built on).
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
outcomes by their (request, benchmark, loop) key, so chunk boundaries
never affect results.

Failure semantics
-----------------

Every dispatch failure is classified (see :mod:`repro.eval.retry`):

* **transient** — the worker died (``BrokenProcessPool``, from a future
  *or* from ``executor.submit`` itself mid-dispatch) or a chunk missed
  the :class:`~repro.eval.retry.RetryPolicy` deadline (a hung worker).
  The pool is rebuilt (hung/dead workers terminated, a fresh executor
  spawned), every outstanding chunk is resubmitted, and the affected
  chunk retries with deterministic exponential backoff until
  ``max_attempts``.  After ``max_rebuilds`` rebuilds the runner stops
  trusting worker processes and **degrades** the remaining chunks to
  in-process sequential execution — slower, but the batch completes.
* **deterministic** — the task raised inside the worker (the scheduler
  failed on that loop's content).  Never retried: it surfaces
  immediately as a :class:`LoopTaskError` naming the benchmark and
  loop, or, under ``keep_going``, is recorded as a
  :class:`~repro.eval.retry.LoopFailure` on the result's failure report
  while the rest of the batch keeps running.

The default ``policy=None`` means :meth:`RetryPolicy.none` — the legacy
fail-fast behaviour (no retries, first fault aborts).  The service
session and the CLI opt into the production posture.

``faults`` accepts a :class:`~repro.eval.faults.FaultPlan` (test/CI
only): a deterministic plan of injected worker crashes, hangs and
raises, used by the property suites to prove that results under
injected transient faults are bit-identical to the fault-free run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import DeadlineExceededError, ReproError
from ..ir.loop import Loop
from ..schedule.drivers import BaseScheduler, ScheduleOutcome
from ..workloads.spec import Benchmark
from .faults import FaultPlan
from .retry import (
    DETERMINISTIC,
    TRANSIENT,
    FailureReport,
    LoopFailure,
    RetryPolicy,
    RunTelemetry,
)
from .runner import BenchmarkResult, SuiteResult, run_suite

__all__ = [
    "EvaluationPool",
    "FailureReport",
    "LoopFailure",
    "LoopTaskError",
    "RetryPolicy",
    "RunTelemetry",
    "SuiteTask",
    "as_completed_suites",
    "evaluation_pool",
    "resolve_chunksize",
    "resolve_jobs",
    "resolve_mp_context",
    "run_requests",
    "run_suite_parallel",
    "submit_suite",
]


class LoopTaskError(ReproError):
    """A per-loop scheduling task failed (or its worker died)."""

    def __init__(
        self, benchmark: str, loop_name: str, scheduler: str, cause: BaseException
    ) -> None:
        self.benchmark = benchmark
        self.loop_name = loop_name
        self.scheduler = scheduler
        self.cause = cause
        super().__init__(
            f"scheduling loop {loop_name!r} of benchmark {benchmark!r} "
            f"with {scheduler!r} failed: {type(cause).__name__}: {cause}"
        )


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
    """A lazily spawned, reusable, **rebuildable** worker pool.

    The executor is created on first use and kept alive until
    :meth:`shutdown`, so several batch calls within one CLI invocation
    share the same worker processes.  ``jobs == 1`` never spawns anything
    (callers take the in-process sequential path).

    The retry layer heals a broken or wedged pool through
    :meth:`rebuild`: surviving workers are terminated (a hung worker
    never drains its queue, so waiting is not an option) and a fresh
    executor replaces the old one.  :meth:`shutdown` is idempotent and
    safe on a broken executor — a pool that died mid-batch must not
    raise again from ``evaluation_pool()``'s ``finally``.
    """

    def __init__(
        self, jobs: Optional[int] = None, mp_context: Optional[str] = None
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.mp_context = resolve_mp_context(mp_context)
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Lifetime count of :meth:`rebuild` calls (telemetry).
        self.rebuilds = 0

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

    def rebuild(self) -> ProcessPoolExecutor:
        """Tear down the current executor — killing its workers — and
        spawn a fresh one.

        Termination is deliberate: after a crash the executor is broken
        anyway, and after a deadline hit the wedged worker would never
        finish, so a graceful shutdown could block forever.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        self.rebuilds += 1
        return self.executor()


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


#: A work unit key: (request index, benchmark index, loop index).
_TaskKey = Tuple[int, int, int]

#: A dispatchable item: key, benchmark name (for fault plans and failure
#: records) and the loop itself.
_Item = Tuple[_TaskKey, str, Loop]


@dataclass
class _Chunk:
    """One dispatchable batch of loops, with its retry bookkeeping."""

    index: int
    request_index: int
    scheduler: BaseScheduler
    items: List[_Item]
    #: Executions so far — the 0-based attempt number the *next*
    #: execution runs as (fault plans key on it).
    attempts: int = 0
    deadline_hits: int = 0
    submitted_at: float = field(default=0.0, repr=False)


@dataclass(frozen=True)
class _ItemFailure:
    """Worker-side record of one failed item under ``keep_going``.

    The original exception is flattened to (type name, message) so the
    record pickles back to the parent no matter what the scheduler threw.
    """

    error_type: str
    message: str


def _assemble_suite_result(
    scheduler: BaseScheduler,
    suite: Sequence[Benchmark],
    outcomes: Dict[_TaskKey, ScheduleOutcome],
    request_index: int = 0,
    failures: Optional[Dict[_TaskKey, LoopFailure]] = None,
) -> SuiteResult:
    """Deterministic merge: outcomes by key back into suite order.

    Shared by :func:`run_requests` and :class:`SuiteTask` so the merge
    the bit-identity contract rests on exists exactly once.  Keys
    recorded in ``failures`` (keep-going mode) are skipped — their
    :class:`LoopFailure` records ride on the result instead; a key in
    neither map is a merge bug and raises.
    """
    failures = failures or {}
    result = SuiteResult(scheduler=scheduler.name, machine=scheduler.machine.name)
    lost: List[LoopFailure] = []
    for b, benchmark in enumerate(suite):
        bench_result = BenchmarkResult(
            benchmark=benchmark.name,
            scheduler=scheduler.name,
            machine=scheduler.machine.name,
        )
        for i in range(len(benchmark.loops)):
            key = (request_index, b, i)
            if key in failures:
                lost.append(failures[key])
            else:
                bench_result.outcomes.append(outcomes[key])
        result.per_benchmark[benchmark.name] = bench_result
    result.failures = tuple(lost)
    return result


class _ChunkItemFailure(Exception):
    """Worker-side wrapper naming which chunk item raised.

    Both attributes ride in ``args`` so the exception survives the pickle
    round-trip back to the parent intact.
    """

    def __init__(self, key: _TaskKey, cause: BaseException) -> None:
        super().__init__(key, cause)
        self.key = key
        self.cause = cause


def _run_chunk(
    scheduler: BaseScheduler,
    items: Sequence[_Item],
    validate_each: bool = False,
    attempt: int = 0,
    faults: Optional[FaultPlan] = None,
    keep_going: bool = False,
) -> List[Tuple[_TaskKey, Union[ScheduleOutcome, _ItemFailure]]]:
    """Worker entry point (module-level: picklable under ``spawn``).

    ``validate_each`` validates each modulo schedule *here*, while the
    engine-attached sessions are still alive (they are dropped when the
    outcome is pickled back to the parent), so the sweep pays the cached
    validation cost it is trying to measure — and a validation failure
    surfaces as a :class:`LoopTaskError` naming the loop.

    ``attempt`` is the chunk's 0-based execution count, keying the
    ``faults`` plan (test/CI only).  Under ``keep_going`` a failing item
    becomes an :class:`_ItemFailure` record in the returned list and the
    chunk keeps going; otherwise the first failure raises
    :class:`_ChunkItemFailure` naming the item.
    """
    out: List[Tuple[_TaskKey, Union[ScheduleOutcome, _ItemFailure]]] = []
    for key, benchmark, loop in items:
        try:
            if faults is not None:
                faults.maybe_fire(benchmark, loop.name, attempt, in_worker=True)
            outcome = scheduler.schedule(loop)
            if validate_each and outcome.is_modulo:
                outcome.schedule.validate()
            out.append((key, outcome))
        except Exception as error:
            if keep_going:
                out.append(
                    (key, _ItemFailure(type(error).__name__, str(error)))
                )
                continue
            raise _ChunkItemFailure(key, error) from error
    return out


class _ChunkDispatcher:
    """The retrying dispatch/merge core shared by the batch and
    streaming entry points.

    Owns the in-flight futures, classifies failures, rebuilds the pool
    on transient faults, enforces per-chunk deadlines, degrades to
    in-process execution after the rebuild budget, and collects
    keep-going failures — all while keeping the merge deterministic
    (outcomes are keyed, never ordered).
    """

    def __init__(
        self,
        pool: EvaluationPool,
        policy: Optional[RetryPolicy],
        faults: Optional[FaultPlan],
        keep_going: bool,
        validate_each: bool,
        telemetry: RunTelemetry,
    ) -> None:
        self.pool = pool
        self.policy = policy if policy is not None else RetryPolicy.none()
        self.faults = faults
        self.keep_going = keep_going
        self.validate_each = validate_each
        self.telemetry = telemetry
        self.pending: Dict[object, _Chunk] = {}
        self.queue: List[_Chunk] = []
        self.outcomes: Dict[_TaskKey, ScheduleOutcome] = {}
        self.failures: Dict[_TaskKey, LoopFailure] = {}
        self.rebuilds = 0
        self.degraded = False
        #: key -> (benchmark, loop name, scheduler name) for error text.
        self._names: Dict[_TaskKey, Tuple[str, str, str]] = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, chunks: Sequence[_Chunk]) -> None:
        for chunk in chunks:
            for key, benchmark, loop in chunk.items:
                self._names[key] = (benchmark, loop.name, chunk.scheduler.name)
        self.telemetry.chunks += len(chunks)
        self.queue.extend(chunks)
        self._pump()

    def _pump(self) -> None:
        """Dispatch everything queued (or run it in-process once degraded).

        ``executor.submit`` itself raising ``BrokenProcessPool`` — the
        mid-submit worker-death race — is handled here as a transient:
        the chunk goes back on the queue and the pool is rebuilt.
        """
        while self.queue:
            chunk = self.queue.pop(0)
            if self.degraded:
                self._run_inprocess(chunk)
                continue
            try:
                future = self.pool.executor().submit(
                    _run_chunk,
                    chunk.scheduler,
                    chunk.items,
                    self.validate_each,
                    chunk.attempts,
                    self.faults,
                    self.keep_going,
                )
            except BrokenProcessPool as error:
                self.queue.insert(0, chunk)
                self._rebuild_or_degrade(error)
                continue
            self.telemetry.record_attempt(first=chunk.attempts == 0)
            chunk.attempts += 1
            chunk.submitted_at = time.monotonic()
            self.pending[future] = chunk

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def drain(
        self,
    ) -> Tuple[Dict[_TaskKey, ScheduleOutcome], Dict[_TaskKey, LoopFailure]]:
        self._pump()
        while self.pending:
            done, _ = wait(
                set(self.pending),
                timeout=self._wait_timeout(),
                return_when=FIRST_COMPLETED,
            )
            broken: Optional[BaseException] = None
            for future in done:
                chunk = self.pending.pop(future, None)
                if chunk is None:
                    continue
                error = future.exception()
                if error is None:
                    self._collect(chunk, future.result())
                elif isinstance(error, _ChunkItemFailure):
                    # The task itself raised: deterministic, fail fast.
                    raise self._loop_error(error.key, error.cause) from error.cause
                elif isinstance(error, BrokenProcessPool):
                    broken = error
                    self.queue.append(chunk)
                else:
                    # Unclassifiable infrastructure failure: treat like a
                    # deterministic fault rather than retrying blindly.
                    raise self._loop_error(chunk.items[0][0], error) from error
            if broken is not None:
                self._rebuild_or_degrade(broken)
            elif self.policy.deadline is not None:
                self._expire_deadlines()
            self._pump()
        return self.outcomes, self.failures

    def _wait_timeout(self) -> Optional[float]:
        if self.policy.deadline is None or not self.pending:
            return None
        earliest = min(c.submitted_at for c in self.pending.values())
        remaining = earliest + self.policy.deadline - time.monotonic()
        return max(0.0, remaining) + 0.01

    def _collect(
        self,
        chunk: _Chunk,
        payloads: Sequence[Tuple[_TaskKey, Union[ScheduleOutcome, _ItemFailure]]],
    ) -> None:
        for key, payload in payloads:
            if isinstance(payload, _ItemFailure):
                self._record_failure(
                    key,
                    DETERMINISTIC,
                    payload.error_type,
                    payload.message,
                    chunk.attempts,
                )
            else:
                self.outcomes[key] = payload
        self.telemetry.chunk_attempts.append(chunk.attempts)

    # ------------------------------------------------------------------
    # Transient-fault handling
    # ------------------------------------------------------------------
    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        expired = [
            (future, chunk)
            for future, chunk in self.pending.items()
            if now - chunk.submitted_at >= self.policy.deadline
        ]
        if not expired:
            return
        retry: List[_Chunk] = []
        given_up: List[Tuple[_Chunk, DeadlineExceededError]] = []
        for future, chunk in expired:
            del self.pending[future]
            future.cancel()
            chunk.deadline_hits += 1
            self.telemetry.deadline_hits += 1
            cause = DeadlineExceededError(self.policy.deadline, chunk.attempts)
            if chunk.attempts >= self.policy.max_attempts:
                given_up.append((chunk, cause))
            else:
                retry.append(chunk)
        # The wedged workers hold pool slots; heal the pool first so any
        # give-up raise below leaves a healthy (terminable) pool behind.
        self._rebuild_or_degrade(
            DeadlineExceededError(self.policy.deadline, expired[0][1].attempts)
        )
        for chunk, cause in given_up:
            self._give_up(chunk, cause)
        for chunk in retry:
            self.policy.sleep(
                self.policy.backoff_seconds(chunk.index, chunk.attempts)
            )
            self.queue.append(chunk)
        self.queue.sort(key=lambda c: c.index)

    def _rebuild_or_degrade(self, cause: BaseException) -> None:
        """Transient fault: rebuild the pool, or stop trusting it.

        In-flight chunks are pulled back onto the queue (a rebuild kills
        their workers; re-execution is safe because the merge is keyed
        and scheduling deterministic).  Past the rebuild budget the
        dispatcher degrades to in-process execution — or, without the
        fallback, aborts naming the first pending work item (the legacy
        fail-fast surface).
        """
        for future in list(self.pending):
            self.queue.append(self.pending.pop(future))
        self.queue.sort(key=lambda c: c.index)
        if self.rebuilds >= self.policy.max_rebuilds:
            if self.policy.fallback_sequential:
                if not self.degraded:
                    self.degraded = True
            else:
                pending_keys = sorted(
                    key
                    for chunk in self.queue
                    for key, _benchmark, _loop in chunk.items
                    if key not in self.outcomes
                )
                key = pending_keys[0] if pending_keys else (0, 0, 0)
                raise self._loop_error(key, cause) from cause
        else:
            self.rebuilds += 1
            self.telemetry.rebuilds += 1
            self.policy.sleep(self.policy.backoff_seconds("rebuild", self.rebuilds))
            self.pool.rebuild()

    def _give_up(self, chunk: _Chunk, cause: BaseException) -> None:
        """A chunk exhausted its transient-retry budget."""
        if not self.keep_going:
            raise self._loop_error(chunk.items[0][0], cause) from cause
        for key, _benchmark, _loop in chunk.items:
            if key not in self.outcomes:
                self._record_failure(
                    key,
                    TRANSIENT,
                    type(cause).__name__,
                    str(cause),
                    chunk.attempts,
                )
        self.telemetry.chunk_attempts.append(chunk.attempts)

    # ------------------------------------------------------------------
    # Degraded (in-process) execution
    # ------------------------------------------------------------------
    def _run_inprocess(self, chunk: _Chunk) -> None:
        attempt = chunk.attempts
        self.telemetry.record_attempt(first=attempt == 0)
        self.telemetry.degraded_chunks += 1
        chunk.attempts += 1
        for key, benchmark, loop in chunk.items:
            if key in self.outcomes:
                continue
            try:
                if self.faults is not None:
                    # Process faults (crash/hang) cannot fire in-process;
                    # deterministic "raise" faults still do.
                    self.faults.maybe_fire(
                        benchmark, loop.name, attempt, in_worker=False
                    )
                outcome = chunk.scheduler.schedule(loop)
                if self.validate_each and outcome.is_modulo:
                    outcome.schedule.validate()
                self.outcomes[key] = outcome
            except Exception as error:
                if not self.keep_going:
                    raise self._loop_error(key, error) from error
                self._record_failure(
                    key,
                    DETERMINISTIC,
                    type(error).__name__,
                    str(error),
                    chunk.attempts,
                )
        self.telemetry.chunk_attempts.append(chunk.attempts)

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def _record_failure(
        self, key: _TaskKey, kind: str, error_type: str, message: str, attempts: int
    ) -> None:
        benchmark, loop_name, scheduler = self._names[key]
        self.failures[key] = LoopFailure(
            benchmark=benchmark,
            loop_name=loop_name,
            scheduler=scheduler,
            kind=kind,
            error_type=error_type,
            message=message,
            attempts=attempts,
        )
        self.telemetry.failed_loops += 1

    def _loop_error(self, key: _TaskKey, cause: BaseException) -> LoopTaskError:
        benchmark, loop_name, scheduler = self._names[key]
        return LoopTaskError(
            benchmark=benchmark,
            loop_name=loop_name,
            scheduler=scheduler,
            cause=cause,
        )


def _request_items(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
) -> List[List[_Item]]:
    return [
        [
            ((r, b, i), benchmark.name, loop)
            for b, benchmark in enumerate(suite)
            for i, loop in enumerate(benchmark.loops)
        ]
        for r, (_scheduler, suite) in enumerate(requests)
    ]


def _make_chunks(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
    chunksize: Optional[int],
    jobs: int,
) -> List[_Chunk]:
    per_request = _request_items(requests)
    total_items = sum(len(items) for items in per_request)
    size = resolve_chunksize(chunksize, total_items, jobs)
    chunks: List[_Chunk] = []
    for r, items in enumerate(per_request):
        for start in range(0, len(items), size):
            chunks.append(
                _Chunk(
                    index=len(chunks),
                    request_index=r,
                    scheduler=requests[r][0],
                    items=items[start : start + size],
                )
            )
    return chunks


def _run_requests_inprocess(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
    validate_each: bool,
    faults: Optional[FaultPlan],
    keep_going: bool,
    telemetry: RunTelemetry,
) -> List[SuiteResult]:
    """The jobs=1 path when fault injection or keep-going is in play.

    Runs every loop in-process (process faults cannot fire; ``raise``
    faults and real scheduler failures still do) with the same failure
    surfacing as the pooled path: :class:`LoopTaskError` naming the
    loop, or a collected :class:`LoopFailure` under ``keep_going``.
    """
    results: List[SuiteResult] = []
    for scheduler, suite in requests:
        suite = list(suite)
        outcomes: Dict[_TaskKey, ScheduleOutcome] = {}
        failures: Dict[_TaskKey, LoopFailure] = {}
        for b, benchmark in enumerate(suite):
            for i, loop in enumerate(benchmark.loops):
                key = (0, b, i)
                try:
                    if faults is not None:
                        faults.maybe_fire(
                            benchmark.name, loop.name, 0, in_worker=False
                        )
                    outcome = scheduler.schedule(loop)
                    if validate_each and outcome.is_modulo:
                        outcome.schedule.validate()
                    outcomes[key] = outcome
                except Exception as error:
                    if not keep_going:
                        raise LoopTaskError(
                            benchmark=benchmark.name,
                            loop_name=loop.name,
                            scheduler=scheduler.name,
                            cause=error,
                        ) from error
                    failures[key] = LoopFailure(
                        benchmark=benchmark.name,
                        loop_name=loop.name,
                        scheduler=scheduler.name,
                        kind=DETERMINISTIC,
                        error_type=type(error).__name__,
                        message=str(error),
                        attempts=1,
                    )
                    telemetry.failed_loops += 1
        results.append(
            _assemble_suite_result(scheduler, suite, outcomes, failures=failures)
        )
    return results


def run_requests(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
    jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
    pool: Optional[EvaluationPool] = None,
    mp_context: Optional[str] = None,
    validate_each: bool = False,
    policy: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    keep_going: bool = False,
    telemetry: Optional[RunTelemetry] = None,
) -> List[SuiteResult]:
    """Evaluate every ``(scheduler, suite)`` request, sharing one pool.

    Returns one :class:`SuiteResult` per request, in request order, with
    benchmarks and loop outcomes in their original suite order — the
    merge is deterministic no matter how the pool interleaves, chunks or
    *retries* the work.  With ``pool`` the caller's shared
    :class:`EvaluationPool` is reused (its worker count and start method
    win over ``jobs`` / ``mp_context``) and left running on return.
    ``validate_each`` validates each modulo schedule in the worker that
    produced it.

    ``policy`` selects the failure semantics (default: the legacy
    fail-fast :meth:`RetryPolicy.none`); ``keep_going`` collects
    per-loop failures on the results instead of aborting; ``faults``
    injects a deterministic :class:`~repro.eval.faults.FaultPlan`
    (test/CI only); ``telemetry`` is a caller-owned
    :class:`~repro.eval.retry.RunTelemetry` the dispatch fills in.
    """
    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    if telemetry is None:
        telemetry = RunTelemetry()
    if jobs == 1:
        if faults is None and not keep_going:
            return [
                run_suite(list(suite), scheduler, validate_each=validate_each)
                for scheduler, suite in requests
            ]
        return _run_requests_inprocess(
            requests, validate_each, faults, keep_going, telemetry
        )

    chunks = _make_chunks(requests, chunksize, jobs)
    owns_pool = pool is None
    if owns_pool:
        pool = EvaluationPool(jobs, mp_context=mp_context)
    dispatcher = _ChunkDispatcher(
        pool, policy, faults, keep_going, validate_each, telemetry
    )
    try:
        dispatcher.submit(chunks)
        outcomes, failures = dispatcher.drain()
    finally:
        if owns_pool:
            pool.shutdown()

    return [
        _assemble_suite_result(
            scheduler, suite, outcomes, request_index=r, failures=failures
        )
        for r, (scheduler, suite) in enumerate(requests)
    ]


class SuiteTask:
    """One in-flight (scheduler, suite) evaluation.

    Created by :func:`submit_suite`.  On a worker pool the per-loop
    chunks are already submitted and :meth:`result` merges them (in
    suite order, deterministically — same contract as
    :func:`run_requests`) once they finish; without a pool the task is
    *lazy* and the sequential run happens at the first :meth:`result`
    call.  A per-loop failure or worker death surfaces from
    :meth:`result` as the same :class:`LoopTaskError` the batch entry
    points raise — or, with a retrying :class:`RetryPolicy`, is healed
    there: retries and pool rebuilds happen synchronously inside
    :meth:`result`, so a task whose original futures failed transiently
    still redeems to the full, bit-identical result.
    """

    def __init__(
        self,
        scheduler: BaseScheduler,
        suite: Sequence[Benchmark],
        validate_each: bool = False,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        keep_going: bool = False,
        telemetry: Optional[RunTelemetry] = None,
    ) -> None:
        self.scheduler = scheduler
        self.suite = list(suite)
        self.validate_each = validate_each
        self.policy = policy
        self.faults = faults
        self.keep_going = keep_going
        self.telemetry = telemetry if telemetry is not None else RunTelemetry()
        #: Snapshot of the initially submitted futures (what
        #: :func:`as_completed_suites` watches); retries replace futures
        #: inside the dispatcher without touching this snapshot.
        self._futures: Dict[object, List[_TaskKey]] = {}
        self._dispatcher: Optional[_ChunkDispatcher] = None
        self._result: Optional[SuiteResult] = None
        self._error: Optional[BaseException] = None
        self._finished = False

    def done(self) -> bool:
        """True once :meth:`result` will not block on the *initial*
        submission.

        A lazy (poolless) task reports ``True`` immediately: its
        sequential run happens inline at the :meth:`result` call.  A
        pool-backed task reports ``True`` when its originally submitted
        futures have settled — transient-failure retries, if any, run
        synchronously inside :meth:`result`.
        """
        if self._finished or not self._futures:
            return True
        return all(f.done() for f in self._futures)

    def result(self) -> SuiteResult:
        """The merged :class:`SuiteResult` (blocks until available)."""
        if not self._finished:
            try:
                if self._dispatcher is not None:
                    outcomes, failures = self._dispatcher.drain()
                    self._result = _assemble_suite_result(
                        self.scheduler, self.suite, outcomes, failures=failures
                    )
                elif self.faults is None and not self.keep_going:
                    self._result = run_suite(
                        self.suite,
                        self.scheduler,
                        validate_each=self.validate_each,
                    )
                else:
                    self._result = _run_requests_inprocess(
                        [(self.scheduler, self.suite)],
                        self.validate_each,
                        self.faults,
                        self.keep_going,
                        self.telemetry,
                    )[0]
            except BaseException as error:
                self._error = error
            self._finished = True
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


def submit_suite(
    scheduler: BaseScheduler,
    suite: Sequence[Benchmark],
    pool: Optional[EvaluationPool] = None,
    chunksize: Optional[int] = None,
    validate_each: bool = False,
    policy: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    keep_going: bool = False,
    telemetry: Optional[RunTelemetry] = None,
) -> SuiteTask:
    """Submit one (scheduler, suite) evaluation without blocking on it.

    The streaming counterpart of :func:`run_requests`: work starts in
    ``pool``'s workers immediately, the caller keeps submitting, and
    :func:`as_completed_suites` yields tasks as whole suites finish.
    Without a pool (or with a 1-worker pool) the task degenerates to a
    lazy sequential run, so callers need no special-casing at
    ``jobs=1``.  A pool broken at submission time is handled by the
    retry policy like any other transient (rebuilt, or surfaced as a
    :class:`LoopTaskError` under the fail-fast default).
    """
    task = SuiteTask(
        scheduler,
        suite,
        validate_each=validate_each,
        policy=policy,
        faults=faults,
        keep_going=keep_going,
        telemetry=telemetry,
    )
    if pool is None or pool.jobs == 1:
        return task
    chunks = _make_chunks([(scheduler, task.suite)], chunksize, pool.jobs)
    dispatcher = _ChunkDispatcher(
        pool, policy, faults, keep_going, validate_each, task.telemetry
    )
    dispatcher.submit(chunks)
    task._dispatcher = dispatcher
    task._futures = {
        future: [key for key, _benchmark, _loop in chunk.items]
        for future, chunk in dispatcher.pending.items()
    }
    return task


def as_completed_suites(tasks: Sequence[SuiteTask]) -> Iterator[SuiteTask]:
    """Yield tasks as their suites complete (lazy tasks in given order).

    Pool-backed tasks are yielded in *completion* order, as soon as the
    last of their initially submitted chunks settles; lazy sequential
    tasks are yielded first, in submission order (their work runs when
    the caller asks for ``result()``).  Yielded tasks are ``done()``;
    failures still raise only from :meth:`SuiteTask.result` — and with
    a retrying policy, transiently failed chunks are healed there
    rather than here, so a yielded task's ``result()`` may briefly
    block on its retries.
    """
    from concurrent.futures import as_completed

    tasks = list(tasks)
    owner: Dict[object, SuiteTask] = {}
    outstanding: Dict[int, set] = {}
    for task in tasks:
        if task._finished or not task._futures:
            continue
        for future in task._futures:
            owner[future] = task
        outstanding[id(task)] = set(task._futures)
    for task in tasks:
        if task._finished or not task._futures:
            yield task
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
    policy: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    keep_going: bool = False,
    telemetry: Optional[RunTelemetry] = None,
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
        policy=policy,
        faults=faults,
        keep_going=keep_going,
        telemetry=telemetry,
    )[0]
