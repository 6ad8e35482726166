"""Typed response envelopes for the service façade.

A response wraps today's result objects — the driver's
:class:`~repro.schedule.drivers.ScheduleOutcome` for a single loop, the
runner's :class:`~repro.eval.runner.SuiteResult` (with its per-program
:class:`~repro.eval.runner.BenchmarkResult` drill-down) for a suite —
with the request that produced it and a :class:`ResponseMeta` block:
the request fingerprint, whether the response was served from the
session's memo cache, and the wall-clock cost of *this* call.

The payload object is shared between a cache hit and the call that
populated the cache (results are immutable facts; re-running would
reproduce them bit-identically), so only the metadata differs between
repeated calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..eval.parallel import BatchTelemetry
from ..eval.runner import SuiteResult
from ..schedule.drivers import ScheduleOutcome
from .requests import EvaluationRequest, ScheduleRequest
from .store import StoreTelemetry


@dataclass(frozen=True)
class ResponseMeta:
    """Provenance and cost metadata attached to every response."""

    #: The request's deterministic fingerprint (the memoization key).
    fingerprint: str
    #: Served from the session cache (no scheduling work was done).
    cache_hit: bool
    #: Wall-clock seconds this call took (near zero on a cache hit; for
    #: batched evaluations, the whole batch's wall clock — the pool runs
    #: the batch as one unit, so per-request attribution is meaningless).
    wall_seconds: float
    #: Worker processes the session ran the work on (1 = in-process).
    jobs: int
    #: What the batch that produced this response dispatched (its chunk
    #: count; 0 when it ran in-process).  ``None`` on cache hits.
    telemetry: Optional[BatchTelemetry] = None
    #: Content-addressed store counters at response time (``None`` when
    #: the session has no store attached).  ``store.hit`` says whether
    #: *this* response was served from the persistent store — distinct
    #: from :attr:`cache_hit`, which also covers the in-process memo.
    store: Optional[StoreTelemetry] = None


@dataclass(frozen=True)
class ScheduleResponse:
    """One scheduled loop: the outcome plus response metadata."""

    request: ScheduleRequest
    outcome: ScheduleOutcome
    meta: ResponseMeta

    def ipc(self) -> float:
        return self.outcome.ipc()


@dataclass(frozen=True)
class EvaluationResponse:
    """One (scheduler, suite, machine) evaluation plus metadata."""

    request: EvaluationRequest
    result: SuiteResult
    meta: ResponseMeta

    @property
    def average_ipc(self) -> float:
        return self.result.average_ipc
