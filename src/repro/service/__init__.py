"""The typed service façade: the library's single public entry point.

``repro.service`` wraps the scheduling and evaluation machinery behind
request/response contracts and one long-lived session object:

* :class:`~repro.service.requests.ScheduleRequest` /
  :class:`~repro.service.requests.EvaluationRequest` — frozen,
  construction-validated, deterministically fingerprintable descriptions
  of work;
* :class:`~repro.service.responses.ScheduleResponse` /
  :class:`~repro.service.responses.EvaluationResponse` — envelopes
  wrapping the classic result objects with timing, cache and validation
  metadata;
* :class:`~repro.service.registry.SchedulerRegistry` /
  :class:`~repro.service.registry.MachineRegistry` — pluggable name
  lookups with structured unknown-name errors;
* :class:`~repro.service.session.ReproService` — the session that owns
  the worker pool, resolves the registries, memoizes responses by
  request fingerprint and exposes ``schedule()``, ``evaluate()`` and
  ``evaluate_many()`` — the one batch path: a batch's uncached requests
  share the session's worker pool;
* :mod:`~repro.service.codec` — the canonical JSON codec for requests
  and response envelopes (the schema the result store persists);
* :class:`~repro.service.store.ResultStore` — content-addressed
  persistent result stores (:class:`~repro.service.store.MemoryStore`,
  :class:`~repro.service.store.DiskStore`) keyed by request
  fingerprint, attached to a session via ``ReproService(store=...)``
  — the one cache that outlives an invocation.

The CLI, the figure harness and the benchmarks are all thin request
builders over this package; see ``examples/service_quickstart.py``.
"""

from ..errors import CodecError, StoreError
from .codec import CODEC_SCHEMA, dumps_response, loads_response
from .registry import (
    MACHINES,
    SCHEDULERS,
    MachineRegistry,
    Registry,
    RegistryError,
    SchedulerRegistry,
)
from .requests import EvaluationRequest, RequestError, ScheduleRequest
from .responses import EvaluationResponse, ResponseMeta, ScheduleResponse
from .session import ReproService
from .store import (
    STORE_NAMES,
    DiskStore,
    MemoryStore,
    ResultStore,
    StoreTelemetry,
    default_store_root,
    open_store,
)

__all__ = [
    "CODEC_SCHEMA",
    "CodecError",
    "DiskStore",
    "EvaluationRequest",
    "EvaluationResponse",
    "MACHINES",
    "MachineRegistry",
    "MemoryStore",
    "Registry",
    "RegistryError",
    "ReproService",
    "RequestError",
    "ResponseMeta",
    "ResultStore",
    "SCHEDULERS",
    "STORE_NAMES",
    "ScheduleRequest",
    "ScheduleResponse",
    "SchedulerRegistry",
    "StoreError",
    "StoreTelemetry",
    "default_store_root",
    "dumps_response",
    "loads_response",
    "open_store",
]
