"""The canonical response codec: round-trip fidelity and schema checks.

The codec backs the result store, which replays responses across
processes, so the load-bearing properties are: (1) encode → decode → encode is
byte-identical (canonical form is a fixed point); (2) a decoded response
renders every artifact surface — export JSON, per-benchmark IPC, Table 2
fields — identically to the original; (3) a decoded *request*
fingerprints identically to the original, so cache keys survive a
round trip; (4) malformed/truncated/wrong-schema payloads raise
:class:`CodecError`, never decode garbage.
"""

import json

import pytest

from repro.errors import CodecError
from repro.eval.export import suite_result_to_json
from repro.machine.presets import two_cluster
from repro.schedule.engine import EngineOptions
from repro.service import (
    CODEC_SCHEMA,
    EvaluationRequest,
    ReproService,
    ScheduleRequest,
    dumps_response,
    loads_response,
)
from repro.service.codec import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.responses import EvaluationResponse, ScheduleResponse
from repro.workloads.kernels import daxpy, stencil5
from repro.workloads.spec import Benchmark


def mini_suite():
    return (Benchmark(name="mini", loops=(daxpy(), stencil5())),)


@pytest.fixture(scope="module")
def service():
    with ReproService(jobs=1) as svc:
        yield svc


@pytest.fixture(scope="module")
def evaluation_response(service):
    return service.evaluate(
        EvaluationRequest(scheduler="gp", machine="2x32", suite=mini_suite())
    )


@pytest.fixture(scope="module")
def schedule_response(service):
    return service.schedule(
        ScheduleRequest(kernel="daxpy", machine="2x32", scheduler="gp")
    )


class TestResponseRoundTrip:
    def test_reencode_is_byte_identical(self, evaluation_response):
        text = dumps_response(evaluation_response)
        again = dumps_response(loads_response(text))
        assert text == again

    def test_schedule_reencode_is_byte_identical(self, schedule_response):
        text = dumps_response(schedule_response)
        assert dumps_response(loads_response(text)) == text

    def test_export_json_identical(self, evaluation_response):
        decoded = loads_response(dumps_response(evaluation_response))
        assert suite_result_to_json(decoded.result) == suite_result_to_json(
            evaluation_response.result
        )

    def test_metric_surface_identical(self, evaluation_response):
        decoded = loads_response(dumps_response(evaluation_response))
        original = evaluation_response.result
        result = decoded.result
        assert result.average_ipc == original.average_ipc
        assert result.scheduler == original.scheduler
        assert result.machine == original.machine
        assert result.total_cpu_seconds == original.total_cpu_seconds
        for name, bench in original.per_benchmark.items():
            assert result.per_benchmark[name].ipc == bench.ipc
            assert (
                result.per_benchmark[name].modulo_fraction
                == bench.modulo_fraction
            )

    def test_schedule_outcome_surface(self, schedule_response):
        decoded = loads_response(dumps_response(schedule_response))
        outcome = decoded.outcome
        original = schedule_response.outcome
        assert outcome.ipc() == original.ipc()
        assert outcome.execution_cycles() == original.execution_cycles()
        assert outcome.is_modulo == original.is_modulo
        assert outcome.loop.name == original.loop.name
        if original.is_modulo:
            assert outcome.schedule.ii == original.schedule.ii
            assert (
                outcome.schedule.register_peaks()
                == original.schedule.register_peaks()
            )
            assert (
                outcome.schedule.stats.bus_transfers
                == original.schedule.stats.bus_transfers
            )

    def test_meta_round_trips(self, evaluation_response):
        decoded = loads_response(dumps_response(evaluation_response))
        assert decoded.meta.fingerprint == evaluation_response.meta.fingerprint
        assert decoded.meta.cache_hit == evaluation_response.meta.cache_hit
        assert decoded.meta.validated == evaluation_response.meta.validated
        assert decoded.meta.jobs == evaluation_response.meta.jobs
        assert decoded.meta.telemetry == evaluation_response.meta.telemetry
        assert decoded.meta.telemetry.chunks == 0  # computed in-process

    def test_paper_tier_response_round_trips(self):
        # One real paper-tier benchmark (the acceptance-level payload).
        from repro.workloads.spec import make_benchmark

        with ReproService(jobs=1) as svc:
            response = svc.evaluate(
                EvaluationRequest(
                    scheduler="uracam",
                    machine="2x32",
                    suite=(make_benchmark("tomcatv"),),
                )
            )
        text = dumps_response(response)
        decoded = loads_response(text)
        assert dumps_response(decoded) == text
        assert (
            decoded.result.per_benchmark["tomcatv"].ipc
            == response.result.per_benchmark["tomcatv"].ipc
        )


def test_encoders_read_each_shape_once(service, monkeypatch):
    """A host-independent perf gate: counted work, never timings.

    Both encoders of the metric surface derive an outcome's cycles, IPC
    and stages from one ``ModuloSchedule.span`` pass per modulo outcome.
    """
    from repro.eval.export import suite_result_to_dict
    from repro.schedule.result import ModuloSchedule

    response = service.evaluate(EvaluationRequest(scheduler="gp", machine="4x32"))
    modulo = sum(
        outcome.is_modulo
        for bench in response.result.per_benchmark.values()
        for outcome in bench.outcomes
    )
    assert modulo > 0
    calls = []
    original = ModuloSchedule.span

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ModuloSchedule, "span", counted)
    dumps_response(response)
    assert len(calls) == modulo
    calls.clear()
    suite_result_to_dict(response.result)
    assert len(calls) == modulo


class TestRequestRoundTrip:
    def test_evaluation_request_fingerprint_survives(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, EvaluationRequest)
        assert decoded.fingerprint() == request.fingerprint()

    def test_schedule_request_fingerprint_survives(self):
        request = ScheduleRequest(
            kernel="stencil5",
            machine=two_cluster(64),
            scheduler="uracam",
            options=EngineOptions(verify_pressure=True),
        )
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, ScheduleRequest)
        assert decoded.fingerprint() == request.fingerprint()

    def test_decoded_request_schedules_identically(self):
        # Not just the same fingerprint: the same *result*, so another
        # process computing from a decoded request matches local execution
        # bit-for-bit (this is what the serializer's replayable edge
        # order guarantees).
        request = EvaluationRequest(
            scheduler="uracam", machine="2x32", suite=mini_suite()
        )
        decoded = decode_request(encode_request(request))
        with ReproService(jobs=1) as a, ReproService(jobs=1) as b:
            first = a.evaluate(request)
            second = b.evaluate(decoded)
        assert (
            first.result.per_benchmark["mini"].ipc
            == second.result.per_benchmark["mini"].ipc
        )

    def test_named_tier_round_trips(self):
        request = EvaluationRequest(
            scheduler="gp", machine="c6x", suite="paper", programs=2
        )
        decoded = decode_request(encode_request(request))
        assert decoded.fingerprint() == request.fingerprint()
        assert decoded.suite == "paper"
        assert decoded.programs == 2


class TestSchemaChecks:
    def test_wrong_schema_rejected(self, evaluation_response):
        payload = encode_response(evaluation_response)
        payload["schema"] = "repro-codec/0"
        with pytest.raises(CodecError):
            decode_response(payload)

    def test_truncated_text_rejected(self, evaluation_response):
        text = dumps_response(evaluation_response)
        with pytest.raises(CodecError):
            loads_response(text[: len(text) // 2])

    def test_non_json_rejected(self):
        with pytest.raises(CodecError):
            loads_response("not json at all {")

    def test_non_object_rejected(self):
        with pytest.raises(CodecError):
            loads_response(json.dumps([1, 2, 3]))

    def test_unknown_kind_rejected(self, evaluation_response):
        payload = encode_response(evaluation_response)
        payload["kind"] = "mystery"
        with pytest.raises(CodecError):
            decode_response(payload)

    def test_missing_field_rejected(self, evaluation_response):
        payload = json.loads(dumps_response(evaluation_response))
        del payload["result"]
        with pytest.raises(CodecError):
            decode_response(payload)

    def test_schema_constant_is_versioned(self):
        assert CODEC_SCHEMA == "repro-codec/3"
