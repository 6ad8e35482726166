"""Canonical JSON (de)serialization of service requests and responses.

The **result store** persists encoded
:class:`~repro.service.responses.EvaluationResponse` /
:class:`~repro.service.responses.ScheduleResponse` envelopes keyed by
request fingerprint; each envelope embeds its encoded request.  Every
payload carries one schema (:data:`CODEC_SCHEMA`) and one canonical text
form (:func:`dumps`: sorted keys, compact separators) — so re-encoding a
decoded payload is byte-identical, which the round-trip property suite
enforces and the store's integrity checks rely on.

Requests are encoded *by content*: explicit loops serialize through
:mod:`repro.ir.serialize`, explicit machines and engine options through
their dataclass fields, so ``decode_request(encode_request(r))`` is a
real, construction-validated request whose ``fingerprint()`` equals the
original's — the property that makes the content-addressed store safe
across processes and hosts.

Responses are encoded as their **deterministic result surface**: per-loop
dynamic-operation and cycle counts (the exact integers
:func:`repro.eval.metrics.aggregate_ipc` sums, so recomputed IPC values
are bit-identical), scheduling statistics, register-pressure surfaces and
timing.  Decoding yields real :class:`~repro.eval.runner.SuiteResult` /
:class:`~repro.eval.runner.BenchmarkResult` containers holding
:class:`StoredOutcome` stand-ins — lightweight objects implementing
exactly the surface the figures, tables, exports and metrics consume
(``loop.total_dynamic_operations()``, ``schedule.register_peaks()``,
``schedule.stats`` …), *not* the full schedule object.  Everything the
evaluation artifacts print renders byte-identically from a decoded
response; re-deriving a kernel listing requires rescheduling.

Malformed, truncated or wrong-schema payloads raise
:class:`~repro.errors.CodecError`; the store converts that into a cache
miss, never an error.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import CodecError
from ..eval.metrics import outcome_shape
from ..eval.parallel import BatchTelemetry
from ..eval.runner import BenchmarkResult, SuiteResult
from ..ir.serialize import loop_from_dict, loop_to_dict
from ..machine.config import ClusterConfig, MachineConfig
from ..schedule.engine import EngineOptions
from ..workloads.spec import Benchmark
from .requests import EvaluationRequest, ScheduleRequest
from .responses import EvaluationResponse, ResponseMeta, ScheduleResponse
from .store import StoreTelemetry

#: Schema tag carried on every encoded payload.  Bump on any change to
#: the encoded shape; decoders reject every other version (the store
#: then treats old entries as misses and overwrites them).
CODEC_SCHEMA = "repro-codec/3"


def dumps(payload: Dict[str, Any]) -> str:
    """The canonical text form: sorted keys, compact separators.

    Canonical means *re-encodable*: ``dumps(encode(decode(text)))``
    equals ``text`` byte for byte (floats round-trip exactly through
    ``repr``), so stored entries can be integrity-checked by comparison.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _expect(payload: Any, kind: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise CodecError(f"encoded {kind} must be an object, got {type(payload).__name__}")
    if payload.get("schema") != CODEC_SCHEMA:
        raise CodecError(
            f"unsupported {kind} schema {payload.get('schema')!r}; "
            f"this build speaks {CODEC_SCHEMA}"
        )
    return payload


# ----------------------------------------------------------------------
# Stored stand-ins: the consumed result surface, without the schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoredRef:
    """A name-only stand-in for a machine (or any named object)."""

    name: str


@dataclass(frozen=True)
class StoredLoop:
    """A loop's metric surface: its name and total dynamic work."""

    name: str
    dynamic_operations: int

    def total_dynamic_operations(self) -> int:
        return self.dynamic_operations


@dataclass(frozen=True)
class StoredStats:
    """The :class:`~repro.schedule.result.ScheduleStats` counters that
    survive encoding (the exported set plus the feasibility telemetry)."""

    bus_transfers: int = 0
    mem_comms: int = 0
    spills: int = 0
    ii_attempts: int = 0
    feas_cache_hits: int = 0
    feas_cache_scans: int = 0


@dataclass(frozen=True)
class StoredSchedule:
    """A schedule's metric surface (modulo or list, per ``kind``).

    Implements exactly what the evaluation layer reads off a schedule:
    ``ipc()``, ``execution_cycles()``, ``register_peaks()`` (the uniform
    zero surface for list schedules), and — modulo only —
    ``register_cycles()``, ``ii``, ``stage_count`` and ``stats``.
    It cannot be validated or rendered; reschedule for that.
    """

    kind: str  # "modulo" | "list"
    ipc_value: float
    cycles: int
    peaks: Tuple[int, ...]
    ii: int = 0
    stage_count: int = 0
    length: int = 0
    reg_cycles: Tuple[int, ...] = ()
    stats: StoredStats = StoredStats()

    def ipc(self) -> float:
        return self.ipc_value

    def execution_cycles(self) -> int:
        return self.cycles

    def register_peaks(self) -> List[int]:
        return list(self.peaks)

    def register_cycles(self) -> List[int]:
        return list(self.reg_cycles)


@dataclass(frozen=True)
class StoredOutcome:
    """A decoded :class:`~repro.schedule.drivers.ScheduleOutcome` stand-in."""

    loop: StoredLoop
    machine: StoredRef
    schedule: StoredSchedule
    cpu_seconds: float
    scheduler_name: str

    @property
    def is_modulo(self) -> bool:
        return self.schedule.kind == "modulo"

    def ipc(self) -> float:
        return self.schedule.ipc()

    def execution_cycles(self) -> int:
        return self.schedule.execution_cycles()


# ----------------------------------------------------------------------
# Machines, options, suites
# ----------------------------------------------------------------------
def _encode_machine(machine: Union[str, MachineConfig]) -> Any:
    if isinstance(machine, str):
        return machine
    return asdict(machine)


def _decode_machine(payload: Any) -> Union[str, MachineConfig]:
    if isinstance(payload, str):
        return payload
    try:
        return MachineConfig(
            name=payload["name"],
            clusters=tuple(
                ClusterConfig(**cluster) for cluster in payload["clusters"]
            ),
            num_buses=payload["num_buses"],
            bus_latency=payload["bus_latency"],
        )
    except (AttributeError, KeyError, TypeError) as error:
        raise CodecError(f"malformed machine payload: {error}") from error


def _encode_options(options: Optional[EngineOptions]) -> Any:
    if options is None:
        return None
    payload = asdict(options)
    per_cluster = payload.get("mem_ops_per_cluster")
    if per_cluster is not None:
        payload["mem_ops_per_cluster"] = {
            str(k): v for k, v in per_cluster.items()
        }
    return payload


def _decode_options(payload: Any) -> Optional[EngineOptions]:
    if payload is None:
        return None
    try:
        data = dict(payload)
        known = {f.name for f in fields(EngineOptions)}
        unknown = set(data) - known
        if unknown:
            raise CodecError(
                f"unknown EngineOptions fields: {sorted(unknown)}"
            )
        per_cluster = data.get("mem_ops_per_cluster")
        if per_cluster is not None:
            data["mem_ops_per_cluster"] = {
                int(k): v for k, v in per_cluster.items()
            }
        return EngineOptions(**data)
    except CodecError:
        raise
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed EngineOptions payload: {error}") from error


def _encode_suite(suite: Union[str, Tuple[Benchmark, ...]]) -> Any:
    if isinstance(suite, str):
        return suite
    return [
        {
            "name": benchmark.name,
            "loops": [loop_to_dict(loop) for loop in benchmark.loops],
        }
        for benchmark in suite
    ]


def _decode_suite(payload: Any) -> Union[str, Tuple[Benchmark, ...]]:
    if isinstance(payload, str):
        return payload
    try:
        return tuple(
            Benchmark(
                name=entry["name"],
                loops=tuple(loop_from_dict(loop) for loop in entry["loops"]),
            )
            for entry in payload
        )
    except CodecError:
        raise
    except Exception as error:  # GraphError, KeyError, TypeError ...
        raise CodecError(f"malformed suite payload: {error}") from error


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def encode_request(
    request: Union[ScheduleRequest, EvaluationRequest]
) -> Dict[str, Any]:
    """A request as a JSON-compatible dict (full content, not digests)."""
    common = {
        "schema": CODEC_SCHEMA,
        "scheduler": request.scheduler,
        "machine": _encode_machine(request.machine),
        "options": _encode_options(request.options),
        "verify": request.verify,
    }
    if isinstance(request, ScheduleRequest):
        common.update(
            kind="schedule",
            kernel=request.kernel,
            loop=None if request.loop is None else loop_to_dict(request.loop),
            full_recheck=request.full_recheck,
        )
    elif isinstance(request, EvaluationRequest):
        common.update(
            kind="evaluation",
            suite=_encode_suite(request.suite),
            programs=request.programs,
            validate_each=request.validate_each,
        )
    else:
        raise CodecError(f"cannot encode request of type {type(request).__name__}")
    return common


def decode_request(
    payload: Dict[str, Any]
) -> Union[ScheduleRequest, EvaluationRequest]:
    """Rebuild a real, construction-validated request.

    The decoded request fingerprints identically to the one encoded —
    loops round-trip by content through :mod:`repro.ir.serialize` — so
    store keys can be re-verified against their stored request.
    """
    payload = _expect(payload, "request")
    kind = payload.get("kind")
    try:
        if kind == "schedule":
            loop = payload.get("loop")
            return ScheduleRequest(
                machine=_decode_machine(payload["machine"]),
                scheduler=payload["scheduler"],
                kernel=payload.get("kernel"),
                loop=None if loop is None else loop_from_dict(loop),
                options=_decode_options(payload.get("options")),
                verify=payload.get("verify", False),
                full_recheck=payload.get("full_recheck", False),
            )
        if kind == "evaluation":
            return EvaluationRequest(
                scheduler=payload["scheduler"],
                machine=_decode_machine(payload["machine"]),
                suite=_decode_suite(payload["suite"]),
                programs=payload.get("programs", 0),
                options=_decode_options(payload.get("options")),
                verify=payload.get("verify", False),
                validate_each=payload.get("validate_each", False),
            )
    except CodecError:
        raise
    except Exception as error:  # RequestError, GraphError, KeyError ...
        raise CodecError(f"malformed {kind} request: {error}") from error
    raise CodecError(f"unknown request kind {kind!r}")


# ----------------------------------------------------------------------
# Response metadata
# ----------------------------------------------------------------------
def _encode_record(record: Any) -> Any:
    return None if record is None else asdict(record)


def _decode_record(kind: type, payload: Any, what: str) -> Any:
    if payload is None:
        return None
    try:
        return kind(**payload)
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed {what} payload: {error}") from error


def encode_meta(meta: ResponseMeta) -> Dict[str, Any]:
    return {
        "fingerprint": meta.fingerprint,
        "cache_hit": meta.cache_hit,
        "wall_seconds": meta.wall_seconds,
        "jobs": meta.jobs,
        "validated": meta.validated,
        "telemetry": _encode_record(meta.telemetry),
        "store": _encode_record(meta.store),
    }


def decode_meta(payload: Dict[str, Any]) -> ResponseMeta:
    try:
        return ResponseMeta(
            fingerprint=payload["fingerprint"],
            cache_hit=payload["cache_hit"],
            wall_seconds=payload["wall_seconds"],
            jobs=payload["jobs"],
            validated=payload["validated"],
            telemetry=_decode_record(
                BatchTelemetry, payload.get("telemetry"), "telemetry"
            ),
            store=_decode_record(
                StoreTelemetry, payload.get("store"), "store telemetry"
            ),
        )
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed response meta: {error}") from error


# ----------------------------------------------------------------------
# Outcomes and results
# ----------------------------------------------------------------------
def _encode_outcome(outcome) -> Dict[str, Any]:
    schedule = outcome.schedule
    cycles, ipc, stages = outcome_shape(outcome)
    entry: Dict[str, Any] = {
        "loop": outcome.loop.name,
        "dynamic_operations": outcome.loop.total_dynamic_operations(),
        "cycles": cycles,
        "ipc": ipc,
        "cpu_seconds": outcome.cpu_seconds,
        "scheduler": outcome.scheduler_name,
        "machine": outcome.machine.name,
        "modulo": outcome.is_modulo,
        "register_peaks": list(schedule.register_peaks()),
    }
    if outcome.is_modulo:
        stats = schedule.stats
        entry.update(
            ii=schedule.ii,
            stages=stages,
            register_cycles=list(schedule.register_cycles()),
            bus_transfers=stats.bus_transfers,
            mem_comms=stats.mem_comms,
            spills=stats.spills,
            ii_attempts=stats.ii_attempts,
            feas_cache_hits=stats.feas_cache_hits,
            feas_cache_scans=stats.feas_cache_scans,
        )
    else:
        entry["length"] = schedule.length
    return entry


def _decode_outcome(entry: Dict[str, Any]) -> StoredOutcome:
    try:
        if entry["modulo"]:
            schedule = StoredSchedule(
                kind="modulo",
                ipc_value=entry["ipc"],
                cycles=entry["cycles"],
                peaks=tuple(entry["register_peaks"]),
                ii=entry["ii"],
                stage_count=entry["stages"],
                reg_cycles=tuple(entry["register_cycles"]),
                stats=StoredStats(
                    bus_transfers=entry["bus_transfers"],
                    mem_comms=entry["mem_comms"],
                    spills=entry["spills"],
                    ii_attempts=entry["ii_attempts"],
                    feas_cache_hits=entry.get("feas_cache_hits", 0),
                    feas_cache_scans=entry.get("feas_cache_scans", 0),
                ),
            )
        else:
            schedule = StoredSchedule(
                kind="list",
                ipc_value=entry["ipc"],
                cycles=entry["cycles"],
                peaks=tuple(entry["register_peaks"]),
                length=entry["length"],
            )
        return StoredOutcome(
            loop=StoredLoop(
                name=entry["loop"],
                dynamic_operations=entry["dynamic_operations"],
            ),
            machine=StoredRef(name=entry["machine"]),
            schedule=schedule,
            cpu_seconds=entry["cpu_seconds"],
            scheduler_name=entry["scheduler"],
        )
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed outcome payload: {error}") from error


def encode_suite_result(result: SuiteResult) -> Dict[str, Any]:
    return {
        "scheduler": result.scheduler,
        "machine": result.machine,
        "benchmarks": [
            {
                "benchmark": bench.benchmark,
                "scheduler": bench.scheduler,
                "machine": bench.machine,
                "outcomes": [_encode_outcome(o) for o in bench.outcomes],
            }
            # Insertion order is the deterministic merge order; the list
            # form preserves it through sort_keys re-encoding.
            for bench in result.per_benchmark.values()
        ],
    }


def decode_suite_result(payload: Dict[str, Any]) -> SuiteResult:
    try:
        result = SuiteResult(
            scheduler=payload["scheduler"],
            machine=payload["machine"],
        )
        for entry in payload["benchmarks"]:
            result.per_benchmark[entry["benchmark"]] = BenchmarkResult(
                benchmark=entry["benchmark"],
                scheduler=entry["scheduler"],
                machine=entry["machine"],
                outcomes=[_decode_outcome(o) for o in entry["outcomes"]],
            )
        return result
    except CodecError:
        raise
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed suite result payload: {error}") from error


# ----------------------------------------------------------------------
# Response envelopes
# ----------------------------------------------------------------------
def encode_response(
    response: Union[ScheduleResponse, EvaluationResponse]
) -> Dict[str, Any]:
    """A response envelope as a JSON-compatible dict."""
    if isinstance(response, EvaluationResponse):
        return {
            "schema": CODEC_SCHEMA,
            "kind": "evaluation",
            "request": encode_request(response.request),
            "meta": encode_meta(response.meta),
            "result": encode_suite_result(response.result),
        }
    if isinstance(response, ScheduleResponse):
        return {
            "schema": CODEC_SCHEMA,
            "kind": "schedule",
            "request": encode_request(response.request),
            "meta": encode_meta(response.meta),
            "outcome": _encode_outcome(response.outcome),
        }
    raise CodecError(f"cannot encode response of type {type(response).__name__}")


def decode_response(
    payload: Dict[str, Any]
) -> Union[ScheduleResponse, EvaluationResponse]:
    payload = _expect(payload, "response")
    kind = payload.get("kind")
    try:
        if kind == "evaluation":
            return EvaluationResponse(
                request=decode_request(payload["request"]),
                result=decode_suite_result(payload["result"]),
                meta=decode_meta(payload["meta"]),
            )
        if kind == "schedule":
            return ScheduleResponse(
                request=decode_request(payload["request"]),
                outcome=_decode_outcome(payload["outcome"]),
                meta=decode_meta(payload["meta"]),
            )
    except CodecError:
        raise
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed {kind} response: {error}") from error
    raise CodecError(f"unknown response kind {kind!r}")


def dumps_response(
    response: Union[ScheduleResponse, EvaluationResponse]
) -> str:
    """Canonical text of one response (one store entry)."""
    return dumps(encode_response(response))


def loads_response(text: str) -> Union[ScheduleResponse, EvaluationResponse]:
    """Parse canonical response text; :class:`CodecError` on any damage."""
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise CodecError(f"response payload is not valid JSON: {error}") from error
    return decode_response(payload)
