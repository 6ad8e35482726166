#!/usr/bin/env python
"""Quickstart for the typed service façade (``repro.service``).

One :class:`~repro.service.session.ReproService` session does everything
the research scripts used to hand-thread: it owns the worker pool,
resolves scheduler/machine names through the pluggable registries, and
memoizes responses by request fingerprint.  This example:

1. schedules one loop (``ScheduleRequest`` -> ``ScheduleResponse``),
2. evaluates a suite tier (``EvaluationRequest`` -> ``EvaluationResponse``),
3. replays the identical request to show the fingerprint cache hit,
4. runs a batch of evaluations with ``evaluate_many()`` — the one batch
   path: the batch's uncached requests share the session's worker pool.

Run:
    python examples/service_quickstart.py
"""

from repro.service import EvaluationRequest, ReproService, ScheduleRequest


def main() -> None:
    with ReproService(jobs=1) as service:
        # 1. Schedule one loop.  Machines resolve through the registry:
        #    a spec string ("2x32" = 2 clusters, 32 registers) or a DSP
        #    preset name ("c6x", "lx", "tigersharc").
        response = service.schedule(
            ScheduleRequest(kernel="daxpy", machine="2x32", scheduler="gp")
        )
        schedule = response.outcome.schedule
        print(
            f"daxpy on 2x32 via gp: II={schedule.ii}, "
            f"IPC={response.ipc():.3f} "
            f"(cache_hit={response.meta.cache_hit}, "
            f"{response.meta.wall_seconds * 1e3:.1f} ms)"
        )

        # 2. Evaluate one scheduler over a tier of the synthetic suite.
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite="paper", programs=2
        )
        tier = service.evaluate(request)
        print(
            f"paper tier (first 2 programs): avg IPC {tier.average_ipc:.3f} "
            f"(cache_hit={tier.meta.cache_hit})"
        )

        # 3. The identical request is served from the session cache.
        replay = service.evaluate(request)
        assert replay.meta.cache_hit
        assert replay.result is tier.result
        print(
            f"replayed identical request: cache_hit={replay.meta.cache_hit} "
            f"in {replay.meta.wall_seconds * 1e3:.2f} ms"
        )

        # 4. Run a batch: every uncached request goes out at once, and
        #    the responses come back in request order.
        batch = service.evaluate_many(
            [
                EvaluationRequest(
                    scheduler=name, machine="4x64", suite="paper", programs=2
                )
                for name in ("uracam", "fixed-partition", "gp")
            ]
        )
        for done in batch:
            print(
                f"  batched {done.request.scheduler:16s} "
                f"avg IPC {done.average_ipc:.3f} "
                f"(cache_hit={done.meta.cache_hit})"
            )


if __name__ == "__main__":
    main()
