"""The typed service façade: registries, contracts, session semantics.

Covers the error paths (unknown scheduler/machine names, conflicting
request knobs), the deterministic fingerprint (stable across field
order, sensitive to content), the session's fingerprint cache (hit/miss
metadata, payload sharing), and — the load-bearing guarantee — that
façade-built responses are bit-identical to the sequential
``run_suite`` path at several worker counts and chunk-size caps.
"""

import pytest

from repro.errors import LoopTaskError
from repro.eval.export import suite_result_to_json
from repro.eval.runner import run_suite
from repro.machine.presets import two_cluster, unified
from repro.schedule.drivers import GPScheduler
from repro.service import (
    EvaluationRequest,
    MachineRegistry,
    RegistryError,
    ReproService,
    RequestError,
    ScheduleRequest,
    SchedulerRegistry,
)
from repro.service.registry import MACHINES, SCHEDULERS
from repro.workloads.kernels import daxpy, stencil5
from repro.workloads.spec import Benchmark, spec_suite


def mini_suite():
    return (Benchmark(name="mini", loops=(daxpy(), stencil5())),)


class _CrashingGP(GPScheduler):
    """GP that raises on daxpy, the mini suite's first loop (module-level,
    so pool workers can unpickle it)."""

    name = "crashing-gp"

    def schedule(self, loop):
        if loop.name == daxpy().name:
            raise RuntimeError("injected scheduler crash")
        return super().schedule(loop)


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
class TestSchedulerRegistry:
    def test_defaults_match_the_paper(self):
        assert SCHEDULERS.names() == [
            "fixed-partition", "gp", "unified", "uracam"
        ]

    def test_create_forwards_options(self):
        scheduler = SCHEDULERS.create("gp", two_cluster(64), verify=True)
        assert scheduler.name == "gp"
        assert scheduler.verify

    def test_unknown_scheduler_structured_error(self):
        with pytest.raises(RegistryError) as excinfo:
            SCHEDULERS.create("gpp", two_cluster(64))
        error = excinfo.value
        assert error.kind == "scheduler"
        assert error.name == "gpp"
        assert "gp" in error.alternatives
        assert "gp" in str(error)
        # Legacy dict-lookup callers catch KeyError; keep that working.
        assert isinstance(error, KeyError)

    def test_register_decorator_plugs_in(self):
        registry = SchedulerRegistry.with_defaults()

        @registry.register("gp-custom")
        class CustomScheduler(GPScheduler):
            pass

        scheduler = registry.create("gp-custom", two_cluster(64))
        assert isinstance(scheduler, CustomScheduler)
        assert "gp-custom" in registry.names()
        # The module-level default registry is untouched.
        assert "gp-custom" not in SCHEDULERS.names()


class TestMachineRegistry:
    def test_resolves_presets_and_specs(self):
        assert MACHINES.resolve("c6x").num_clusters == 2
        machine = MACHINES.resolve("4x64x2x2")
        assert machine.num_clusters == 4
        assert machine.num_buses == 2
        assert machine.bus_latency == 2

    def test_unknown_machine_lists_alternatives_and_grammar(self):
        with pytest.raises(RegistryError) as excinfo:
            MACHINES.resolve("banana")
        error = excinfo.value
        assert error.kind == "machine"
        assert "c6x" in error.alternatives
        assert any("NxR" in alt for alt in error.alternatives)

    def test_register_decorator_plugs_in(self):
        registry = MachineRegistry.with_defaults()
        registry.register("tiny")(lambda: unified(8))
        assert registry.resolve("tiny").total_registers == 8

    def test_well_formed_but_invalid_spec_keeps_parser_diagnostic(self):
        # "2x33" is valid grammar describing an invalid machine: the
        # parser's message (registers don't divide) must survive, not be
        # masked as an unknown name.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="divide"):
            MACHINES.resolve("2x33")


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------
class TestRequestValidation:
    def test_schedule_request_needs_exactly_one_loop_source(self):
        with pytest.raises(RequestError, match="exactly one"):
            ScheduleRequest(machine="2x32")
        with pytest.raises(RequestError, match="exactly one"):
            ScheduleRequest(machine="2x32", kernel="daxpy", loop=daxpy())

    def test_schedule_request_unknown_kernel(self):
        with pytest.raises(RequestError, match="unknown kernel"):
            ScheduleRequest(machine="2x32", kernel="nope")

    def test_evaluation_request_unknown_tier(self):
        with pytest.raises(RequestError, match="unknown suite tier"):
            EvaluationRequest(scheduler="gp", machine="2x32", suite="huge")

    def test_programs_conflicts_with_explicit_suite(self):
        with pytest.raises(RequestError, match="conflicting"):
            EvaluationRequest(
                scheduler="gp", machine="2x32",
                suite=mini_suite(), programs=1,
            )
        with pytest.raises(RequestError, match="programs"):
            EvaluationRequest(scheduler="gp", machine="2x32", programs=-1)

    def test_explicit_suite_normalized_to_tuple(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=list(mini_suite())
        )
        assert isinstance(request.suite, tuple)
        with pytest.raises(RequestError, match="suite"):
            EvaluationRequest(scheduler="gp", machine="2x32", suite=())

    def test_unknown_names_surface_at_service_time(self):
        with ReproService() as service:
            with pytest.raises(RegistryError, match="unknown machine"):
                service.schedule(
                    ScheduleRequest(machine="9z", kernel="daxpy")
                )
            with pytest.raises(RegistryError, match="unknown scheduler"):
                service.evaluate(
                    EvaluationRequest(
                        scheduler="gpp", machine="2x32", suite=mini_suite()
                    )
                )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_stable_across_field_order(self):
        a = EvaluationRequest(
            scheduler="gp", machine="2x32", suite="paper",
            programs=2, verify=True,
        )
        b = EvaluationRequest(
            verify=True, programs=2, suite="paper",
            machine="2x32", scheduler="gp",
        )
        assert a.fingerprint() == b.fingerprint()

    def test_equal_content_fingerprints_equally(self):
        # Two independently built (but equal) machine/suite objects.
        a = EvaluationRequest(
            scheduler="gp", machine=two_cluster(32), suite=mini_suite()
        )
        b = EvaluationRequest(
            scheduler="gp", machine=two_cluster(32), suite=mini_suite()
        )
        assert a.fingerprint() == b.fingerprint()

    def test_content_changes_the_fingerprint(self):
        base = EvaluationRequest(scheduler="gp", machine="2x32")
        assert base.fingerprint() != EvaluationRequest(
            scheduler="uracam", machine="2x32"
        ).fingerprint()
        assert base.fingerprint() != EvaluationRequest(
            scheduler="gp", machine="2x64"
        ).fingerprint()
        assert base.fingerprint() != EvaluationRequest(
            scheduler="gp", machine="2x32", verify=True
        ).fingerprint()
        assert base.fingerprint() != EvaluationRequest(
            scheduler="gp", machine="2x32", suite="extended"
        ).fingerprint()

    def test_schedule_and_evaluation_requests_never_collide(self):
        # Same field values, different request kinds.
        a = ScheduleRequest(machine="2x32", kernel="daxpy")
        b = EvaluationRequest(scheduler="gp", machine="2x32")
        assert a.fingerprint() != b.fingerprint()

    def test_spec_string_vs_config_object_are_distinct_identities(self):
        # A symbolic name resolves at execution time; an explicit config
        # pins content.  They are deliberately different fingerprints.
        symbolic = EvaluationRequest(scheduler="gp", machine="2x32")
        pinned = EvaluationRequest(scheduler="gp", machine=two_cluster(32))
        assert symbolic.fingerprint() != pinned.fingerprint()


# ----------------------------------------------------------------------
# Session cache semantics
# ----------------------------------------------------------------------
class TestSessionCache:
    def test_schedule_hit_and_miss(self):
        with ReproService() as service:
            first = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy")
            )
            assert not first.meta.cache_hit
            again = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy")
            )
            assert again.meta.cache_hit
            assert again.outcome is first.outcome
            assert (service.cache_hits, service.cache_misses) == (1, 1)
            other = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy",
                                scheduler="uracam")
            )
            assert not other.meta.cache_hit

    def test_evaluate_hit_and_miss(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService() as service:
            first = service.evaluate(request)
            assert not first.meta.cache_hit
            again = service.evaluate(request)
            assert again.meta.cache_hit
            assert again.result is first.result
            assert again.meta.fingerprint == first.meta.fingerprint

    def test_evaluate_many_dedupes_within_a_batch(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService() as service:
            responses = service.evaluate_many([request, request])
            assert not responses[0].meta.cache_hit
            assert responses[1].meta.cache_hit
            assert responses[0].result is responses[1].result

    def test_verify_is_its_own_entry_with_identical_results(self):
        """The paranoid switch is part of a request's identity, and the
        schedules it checks are the plain ones."""
        with ReproService() as service:
            plain = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy")
            )
            paranoid = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy", verify=True)
            )
            assert not paranoid.meta.cache_hit
            assert paranoid.request.verify
            assert (
                paranoid.outcome.schedule.placements
                == plain.outcome.schedule.placements
            )
            responses = service.evaluate_many(
                [
                    EvaluationRequest(
                        scheduler="gp", machine="2x32", suite=mini_suite(),
                        verify=verify,
                    )
                    for verify in (False, True)
                ]
            )
            assert not any(r.meta.cache_hit for r in responses)
            exports = {
                suite_result_to_json(r.result, timing=False) for r in responses
            }
            assert len(exports) == 1

    def test_cache_does_not_leak_across_sessions(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService() as service:
            assert not service.evaluate(request).meta.cache_hit
        with ReproService() as service:
            assert not service.evaluate(request).meta.cache_hit


# ----------------------------------------------------------------------
# Façade == legacy, bit for bit
# ----------------------------------------------------------------------
class TestFacadeLegacyEquivalence:
    @pytest.mark.parametrize(
        "jobs,cap", [(1, None), (2, None), (2, 1), (3, 7)]
    )
    def test_bit_identical_to_run_suite(self, jobs, cap, monkeypatch):
        from repro.eval import parallel

        if cap is not None:
            monkeypatch.setattr(parallel, "_MAX_AUTO_CHUNK", cap)
        suite = spec_suite()[:2]
        legacy = suite_result_to_json(
            run_suite(suite, GPScheduler(two_cluster(32))), timing=False
        )
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=tuple(suite)
        )
        pinned = EvaluationRequest(
            scheduler="gp", machine=two_cluster(32), suite=tuple(suite)
        )
        with ReproService(jobs=jobs) as service:
            via_evaluate = suite_result_to_json(
                service.evaluate(request).result, timing=False
            )
            via_batch = suite_result_to_json(
                service.evaluate_many([pinned])[0].result, timing=False
            )
        assert via_evaluate == legacy
        assert via_batch == legacy

    def test_symbolic_and_pinned_machines_agree(self):
        request_symbolic = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        request_pinned = EvaluationRequest(
            scheduler="gp", machine=two_cluster(32), suite=mini_suite()
        )
        with ReproService() as service:
            a = suite_result_to_json(
                service.evaluate(request_symbolic).result, timing=False
            )
            b = suite_result_to_json(
                service.evaluate(request_pinned).result, timing=False
            )
        assert a == b


# ----------------------------------------------------------------------
# The persistent store seam
# ----------------------------------------------------------------------
class TestSessionStoreSeam:
    def test_store_composes_under_the_memo(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(jobs=1, store=store) as service:
            computed = service.evaluate(request)
            assert computed.meta.cache_hit is False
            assert computed.meta.store.hit is False
            memo = service.evaluate(request)
            # The repeat hits the in-process memo, not the store.
            assert memo.meta.cache_hit is True
            assert memo.meta.store.hit is False
        # A fresh session over the same store replays persistently.
        with ReproService(jobs=1, store=store) as fresh:
            replayed = fresh.evaluate(request)
            assert replayed.meta.cache_hit is True
            assert replayed.meta.store.hit is True
            assert (
                replayed.result.per_benchmark["mini"].ipc
                == computed.result.per_benchmark["mini"].ipc
            )

    def test_store_spec_string_owned_by_session(self, tmp_path):
        with ReproService(jobs=1, store=f"disk:{tmp_path}/s") as service:
            assert service.store is not None
            assert service.store.name == "disk"
            assert service._owns_store

    def test_schedule_requests_replay_from_store(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        request = ScheduleRequest(
            kernel="daxpy", machine="2x32", scheduler="gp"
        )
        with ReproService(store=store) as first:
            computed = first.schedule(request)
        with ReproService(store=store) as second:
            replayed = second.schedule(request)
        assert replayed.meta.cache_hit is True
        assert replayed.meta.store.hit is True
        assert replayed.outcome.ipc() == computed.outcome.ipc()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_batch_is_never_memoized_or_persisted(self, jobs):
        from repro.service import MemoryStore

        schedulers = SchedulerRegistry()
        schedulers.register()(_CrashingGP)
        store = MemoryStore()
        request = EvaluationRequest(
            scheduler="crashing-gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(
            jobs=jobs, store=store, schedulers=schedulers
        ) as service:
            with pytest.raises(LoopTaskError) as excinfo:
                service.evaluate(request)
            assert excinfo.value.loop_name == daxpy().name
            assert excinfo.value.scheduler == "crashing-gp"
            assert request.fingerprint() not in service._cache
        assert store.keys() == []

    def test_corrupted_store_entry_recomputes(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(jobs=1, store=store) as first:
            good = first.evaluate(request)
        store._entries[request.fingerprint()] = '{"schema": "repro-codec/3", tr'
        with ReproService(jobs=1, store=store) as second:
            recomputed = second.evaluate(request)
        assert recomputed.meta.cache_hit is False
        assert recomputed.meta.store.hit is False
        assert (
            recomputed.result.per_benchmark["mini"].ipc
            == good.result.per_benchmark["mini"].ipc
        )
        # The recompute overwrote the corrupt entry with a good one.
        with ReproService(jobs=1, store=store) as third:
            assert third.evaluate(request).meta.store.hit is True


class TestEvaluateManyPerRequestMeta:
    """Regression: per-request ``cache_hit`` in mixed batches."""

    def _requests(self):
        return (
            EvaluationRequest(
                scheduler="gp", machine="2x32", suite=mini_suite()
            ),
            EvaluationRequest(
                scheduler="uracam", machine="2x32", suite=mini_suite()
            ),
        )

    def test_mixed_batch_flags_each_request(self):
        first, second = self._requests()
        with ReproService(jobs=1) as service:
            service.evaluate(first)
            responses = service.evaluate_many([first, second])
        assert responses[0].meta.cache_hit is True
        assert responses[1].meta.cache_hit is False

    def test_duplicates_within_one_batch(self):
        first, _ = self._requests()
        with ReproService(jobs=1) as service:
            responses = service.evaluate_many([first, first])
        # The batch schedules once; the populating occurrence reports
        # the miss, the duplicate reports the hit.
        assert responses[0].meta.cache_hit is False
        assert responses[1].meta.cache_hit is True
        assert responses[0].result is responses[1].result

    def test_mixed_store_hits_flag_per_request(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        first, second = self._requests()
        with ReproService(jobs=1, store=store) as warm:
            warm.evaluate(first)
        with ReproService(jobs=1, store=store) as service:
            responses = service.evaluate_many([first, second])
        assert responses[0].meta.cache_hit is True
        assert responses[0].meta.store.hit is True
        assert responses[1].meta.cache_hit is False
        assert responses[1].meta.store.hit is False


class TestFingerprintCrossProcess:
    def test_fingerprints_stable_across_processes(self):
        """The store key contract: a fingerprint computed in another
        interpreter (different PYTHONHASHSEED) matches this one's."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.service import EvaluationRequest, ScheduleRequest\n"
            "from repro.workloads.kernels import daxpy, stencil5\n"
            "from repro.workloads.spec import Benchmark\n"
            "suite = (Benchmark(name='mini', loops=(daxpy(), stencil5())),)\n"
            "print(EvaluationRequest(scheduler='gp', machine='2x32',"
            " suite=suite).fingerprint())\n"
            "print(EvaluationRequest(scheduler='uracam', machine='c6x',"
            " suite='paper', programs=2).fingerprint())\n"
            "print(ScheduleRequest(kernel='daxpy', machine='2x32',"
            " scheduler='gp').fingerprint())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONHASHSEED"] = "12345"  # different hash randomization
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        child = run.stdout.split()
        local = [
            EvaluationRequest(
                scheduler="gp", machine="2x32", suite=mini_suite()
            ).fingerprint(),
            EvaluationRequest(
                scheduler="uracam", machine="c6x", suite="paper", programs=2
            ).fingerprint(),
            ScheduleRequest(
                kernel="daxpy", machine="2x32", scheduler="gp"
            ).fingerprint(),
        ]
        assert child == local
