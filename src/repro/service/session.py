"""The long-lived service session: :class:`ReproService`.

One session object owns everything the research scripts used to thread
by hand — the worker pool and the scheduler/machine registries — and
memoizes responses by request fingerprint, so the CLI, the figure
harness, the benchmarks and interactive callers all go through one
entry point::

    from repro.service import EvaluationRequest, ReproService, ScheduleRequest

    with ReproService(jobs=4) as service:
        one = service.schedule(ScheduleRequest(kernel="daxpy", machine="2x32"))
        tier = service.evaluate(
            EvaluationRequest(scheduler="gp", machine="4x64", suite="paper")
        )
        again = service.evaluate(tier.request)   # served from the cache
        assert again.meta.cache_hit

A batch is one :meth:`evaluate_many` call: its uncached requests share
the session's worker pool and come back in request order.

Execution knobs (``jobs``, or an adopted ``pool``) are session state,
never request state: results are bit-identical at any setting (the
batch runner's deterministic-merge contract), so the same request
fingerprints — and caches — identically on a laptop and a 64-core box.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

from ..eval.parallel import BatchTelemetry, EvaluationPool, resolve_jobs, run_batch
from ..eval.runner import SuiteResult
from ..machine.config import MachineConfig
from ..schedule.drivers import BaseScheduler, ScheduleOutcome
from .registry import MACHINES, SCHEDULERS, MachineRegistry, SchedulerRegistry
from .requests import EvaluationRequest, MachineLike, ScheduleRequest
from .responses import EvaluationResponse, ResponseMeta, ScheduleResponse
from .store import ResultStore, open_store

#: Anything the service can run: a single-loop or a suite request.
AnyRequest = Union[ScheduleRequest, EvaluationRequest]


class ReproService:
    """A service session: registries, a pool, and a response cache.

    ``jobs`` mirrors the CLI's ``--jobs`` (``1`` = in-process
    sequential, ``0``/``None`` = one worker per CPU).  ``pool`` adopts
    an externally owned :class:`~repro.eval.parallel.EvaluationPool`
    instead — the session will use, but never shut down, an adopted
    pool.  ``schedulers`` /
    ``machines`` swap in private registries (defaults: the module-level
    registries with the paper's schedulers and the DSP presets).

    The session memoizes every completed response by request
    fingerprint: a repeated identical request is served from the cache
    without scheduling anything, and the replayed envelope says so
    (``meta.cache_hit``).  A request that fails raises
    :class:`~repro.errors.LoopTaskError` naming the loop and is neither
    memoized nor stored.  Sessions are context managers;
    closing one shuts down the pool it owns and drops the cache.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        pool: Optional[EvaluationPool] = None,
        schedulers: Optional[SchedulerRegistry] = None,
        machines: Optional[MachineRegistry] = None,
        store: Optional[object] = None,
    ) -> None:
        self.schedulers = schedulers if schedulers is not None else SCHEDULERS
        self.machines = machines if machines is not None else MACHINES
        #: Content-addressed persistent store (``None`` = memo cache only).
        #: Accepts a :class:`~repro.service.store.ResultStore` instance or
        #: a spec string (``"disk"``, ``"disk:PATH"``, a path); composes
        #: *under* the in-process memo: memo hit → store hit → compute,
        #: and complete fresh responses are written back.
        self._owns_store = not isinstance(store, ResultStore)
        self.store: Optional[ResultStore] = open_store(store)
        self._owns_pool = pool is None
        if pool is not None:
            self._pool: Optional[EvaluationPool] = pool
            self.jobs = pool.jobs
        else:
            self.jobs = resolve_jobs(jobs)
            self._pool = EvaluationPool(self.jobs) if self.jobs != 1 else None
        self._cache: Dict[str, Union[ScheduleOutcome, SuiteResult]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the owned pool (adopted pools are left running)."""
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()
        if self._owns_store and self.store is not None:
            self.store.close()
        self._cache.clear()

    def __enter__(self) -> "ReproService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_machine(self, machine: MachineLike) -> MachineConfig:
        """A request's machine field as a concrete configuration."""
        if isinstance(machine, MachineConfig):
            return machine
        return self.machines.resolve(machine)

    def _scheduler_for(self, request: AnyRequest) -> BaseScheduler:
        return self.schedulers.create(
            request.scheduler,
            self.resolve_machine(request.machine),
            verify=request.verify,
        )

    def _meta(
        self,
        fingerprint: str,
        cache_hit: bool,
        started: float,
        telemetry: Optional[BatchTelemetry] = None,
        store_hit: bool = False,
    ) -> ResponseMeta:
        return ResponseMeta(
            fingerprint=fingerprint,
            cache_hit=cache_hit,
            wall_seconds=time.perf_counter() - started,
            jobs=self.jobs,
            telemetry=telemetry,
            store=(
                None
                if self.store is None
                else self.store.telemetry(store_hit)
            ),
        )

    # ------------------------------------------------------------------
    # Persistent store plumbing
    # ------------------------------------------------------------------
    def _store_load(self, fingerprint: str, kind: type):
        """A decoded stored response of the right kind, or ``None``.

        Corruption, truncation and schema drift are all misses (the
        store's :meth:`~repro.service.store.ResultStore.load` contract);
        a decodable entry of the wrong envelope kind is ignored too.
        """
        if self.store is None:
            return None
        from .codec import loads_response

        response = self.store.load(fingerprint, loads_response)
        if response is None or not isinstance(response, kind):
            return None
        return response

    def _store_put(self, response) -> None:
        """Persist one computed response.

        Store failures (full disk, permissions) must not break the
        computation the store only accelerates, so they are swallowed.
        """
        if self.store is None:
            return
        from ..errors import CodecError, StoreError
        from .codec import dumps_response

        try:
            self.store.put(response.meta.fingerprint, dumps_response(response))
        except (CodecError, StoreError, OSError):
            pass

    # ------------------------------------------------------------------
    # Single-loop scheduling
    # ------------------------------------------------------------------
    def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        """Run one :class:`ScheduleRequest` (memoized by fingerprint)."""
        started = time.perf_counter()
        fingerprint = request.fingerprint()
        cached = self._cache.get(fingerprint)
        if cached is not None:
            self.cache_hits += 1
            return ScheduleResponse(
                request=request,
                outcome=cached,
                meta=self._meta(fingerprint, True, started),
            )
        stored = self._store_load(fingerprint, ScheduleResponse)
        if stored is not None:
            # A store hit is a cache hit whose payload is the decoded
            # metric surface (a StoredOutcome), not a live schedule.
            self.cache_hits += 1
            self._cache[fingerprint] = stored.outcome
            return ScheduleResponse(
                request=request,
                outcome=stored.outcome,
                meta=self._meta(fingerprint, True, started, store_hit=True),
            )
        self.cache_misses += 1
        outcome = self._scheduler_for(request).schedule(request.resolve_loop())
        self._cache[fingerprint] = outcome
        response = ScheduleResponse(
            request=request,
            outcome=outcome,
            meta=self._meta(fingerprint, False, started),
        )
        self._store_put(response)
        return response

    # ------------------------------------------------------------------
    # Suite evaluation
    # ------------------------------------------------------------------
    def evaluate(self, request: EvaluationRequest) -> EvaluationResponse:
        """Run one :class:`EvaluationRequest` (memoized by fingerprint)."""
        return self.evaluate_many([request])[0]

    def evaluate_many(
        self, requests: Sequence[EvaluationRequest]
    ) -> List[EvaluationResponse]:
        """Run a batch of evaluation requests through one shared pool.

        Uncached requests are dispatched together (the batch runner
        interleaves all their loops over the session's workers) and the
        responses come back in request order.  Duplicate fingerprints
        within one batch run once; repeats — within the batch or across
        calls — are cache hits.
        """
        started = time.perf_counter()
        fingerprints = [request.fingerprint() for request in requests]
        todo: Dict[str, EvaluationRequest] = {}
        store_hits = set()  # fingerprints served from the persistent store
        for request, fingerprint in zip(requests, fingerprints):
            if fingerprint in self._cache or fingerprint in todo:
                continue
            stored = self._store_load(fingerprint, EvaluationResponse)
            if stored is not None:
                # Promote the decoded result into the in-process memo so
                # repeats within the session skip the store entirely.
                self._cache[fingerprint] = stored.result
                store_hits.add(fingerprint)
                continue
            todo[fingerprint] = request
        results, chunks = run_batch(
            [
                (self._scheduler_for(request), request.resolve_suite())
                for request in todo.values()
            ],
            self._pool,
        )
        self._cache.update(zip(todo, results))
        telemetry = BatchTelemetry(chunks=chunks) if todo else None
        responses = []
        fresh = set(todo)  # fingerprints computed by this call, once each
        for request, fingerprint in zip(requests, fingerprints):
            hit = fingerprint not in fresh
            fresh.discard(fingerprint)
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            responses.append(
                EvaluationResponse(
                    request=request,
                    result=self._cache[fingerprint],
                    meta=self._meta(
                        fingerprint,
                        hit,
                        started,
                        telemetry=None if hit else telemetry,
                        store_hit=fingerprint in store_hits,
                    ),
                )
            )
        # Write freshly computed responses back to the store (the first
        # occurrence carries the populating meta).
        for response in responses:
            if not response.meta.cache_hit:
                self._store_put(response)
        return responses
