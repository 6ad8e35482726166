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
  request fingerprint and exposes ``schedule()`` / ``evaluate()`` plus
  the streaming ``submit()`` / ``as_completed()`` batch interface;
* :mod:`~repro.service.codec` — the canonical JSON codec for requests
  and response envelopes (one schema shared by the disk store and the
  daemon wire protocol);
* :class:`~repro.service.store.ResultStore` — content-addressed
  persistent result stores (:class:`~repro.service.store.MemoryStore`,
  :class:`~repro.service.store.DiskStore`) keyed by request
  fingerprint, attached to a session via ``ReproService(store=...)``;
* :class:`~repro.service.client.ServiceClient` /
  :class:`~repro.service.daemon.ReproDaemon` — the ``repro serve``
  daemon (one warm pool across invocations) and its
  ``ReproService``-shaped client, so callers run against either
  transport unchanged.

The CLI, the figure harness and the benchmarks are all thin request
builders over this package; see ``examples/service_quickstart.py``.
"""

from ..errors import (
    CodecError,
    DaemonBusyError,
    DaemonDrainingError,
    DaemonError,
    StoreError,
    WireTimeoutError,
)
from ..eval.faults import Fault, FaultPlan
from ..eval.retry import (
    ExecutionTelemetry,
    FailureReport,
    LoopFailure,
    RetryPolicy,
    WireCounters,
    WireRetryPolicy,
    WireTelemetry,
)
from .chaos import WIRE_FAULT_KINDS, WIRE_FAULT_SITES, WireFault, WireFaultPlan
from .client import ClientHandle, ServiceClient
from .codec import CODEC_SCHEMA, dumps_response, loads_response
from .daemon import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_IDLE_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
    DEFAULT_MAX_CLIENTS,
    WIRE_SCHEMA,
    WIRE_SCHEMAS,
    ReproDaemon,
    default_socket_path,
    spawn_daemon,
    wait_for_daemon,
)
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
from .session import BatchHandle, ReproService
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
    "BatchHandle",
    "CODEC_SCHEMA",
    "ClientHandle",
    "CodecError",
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_IO_TIMEOUT",
    "DEFAULT_MAX_CLIENTS",
    "DaemonBusyError",
    "DaemonDrainingError",
    "DaemonError",
    "DiskStore",
    "EvaluationRequest",
    "EvaluationResponse",
    "ExecutionTelemetry",
    "FailureReport",
    "Fault",
    "FaultPlan",
    "LoopFailure",
    "MACHINES",
    "MachineRegistry",
    "MemoryStore",
    "Registry",
    "RegistryError",
    "ReproDaemon",
    "ReproService",
    "RequestError",
    "ResponseMeta",
    "ResultStore",
    "RetryPolicy",
    "SCHEDULERS",
    "STORE_NAMES",
    "ScheduleRequest",
    "ScheduleResponse",
    "SchedulerRegistry",
    "ServiceClient",
    "StoreError",
    "StoreTelemetry",
    "WIRE_FAULT_KINDS",
    "WIRE_FAULT_SITES",
    "WIRE_SCHEMA",
    "WIRE_SCHEMAS",
    "WireCounters",
    "WireFault",
    "WireFaultPlan",
    "WireRetryPolicy",
    "WireTelemetry",
    "WireTimeoutError",
    "default_socket_path",
    "default_store_root",
    "dumps_response",
    "loads_response",
    "open_store",
    "spawn_daemon",
    "wait_for_daemon",
]
