"""The repository benchmark: scheduling cost and schedule quality.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-table2 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``perfbench/README.md``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
exits with status 2, printing no result, when the checkout holds no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent

#: Everything a run writes lives here (ignored by git).
OUT = Path("perfbench") / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed: order of blocks, loops and requests "
                        "(default: the library's SUITE_SEED)")
    parser.add_argument("--suite-seed", type=int, default=None,
                        help="seed of the loop populations (default: "
                        "SUITE_SEED; holdout runs change it, see README.md)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one program on one machine (for smoke.py)")
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, rec, import_s: float) -> dict:
    from suites import SCHEDULERS, percentile
    from repro.eval.metrics import aggregate_ipc

    metrics = {
        "setup_s": metric(import_s + sum(workload.setup_parts.values()), "s")
    }
    for scheduler, prefix in SCHEDULERS:
        samples = rec.samples[scheduler]
        seconds = sum(s for s, _ in samples)
        loops = sum(n for _, n in samples)
        metrics[f"{prefix}_loops_per_s"] = metric(loops / seconds, "loops/s")
    for scheduler, prefix in SCHEDULERS:
        if prefix == "fixed":
            continue
        # Each input's median over the passes, then the 90th percentile
        # over the inputs: repeated passes steady each loop's figure
        # instead of adding tied samples.
        per_loop = [median(v) for v in rec.per_input[scheduler].values()]
        metrics[f"{prefix}_loop_ms_p90"] = metric(percentile(per_loop, 0.9), "ms")
    for scheduler, prefix in SCHEDULERS:
        groups = rec.ipc_groups[scheduler]
        if groups:
            ipc = mean(
                aggregate_ipc([o for o, _ in parts], [c for _, c in parts])
                for parts in groups.values()
            )
        else:
            ipc = mean(rec.suite_ipc[scheduler])
        metrics[f"ipc_{prefix}"] = metric(ipc, "ops/cycle")
    metrics["peak_rss_mb"] = metric(rec.peak_rss_kb / 1024.0, "MB")
    return metrics


def per_layer(workload, recs, tracer, import_s: float) -> dict:
    from suites import percentile

    plain, traced = recs[False], recs[True]
    passes = max(1, len(traced.pass_seconds))
    self_s, total_s = tracer.self_time, tracer.total_time
    calls, counts = tracer.calls, tracer.counts

    def per_pass(value):
        return value / passes

    def share(part, whole):
        return part / whole if whole else 0.0

    def ms(values, q):
        return 1e3 * percentile(values, q) if values else 0.0

    setup = workload.setup_parts
    telemetry = getattr(workload, "pool_telemetry", None)
    scans, hits = counts["slot_scans"], counts["feas_hits"]
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    overhead = share(
        mean(traced.pass_seconds), mean(plain.pass_seconds)
    ) - 1.0
    values = {
        "setup.import_s": (import_s, "s"),
        "setup.generate_s": (setup.get("generate_s", 0.0), "s"),
        "setup.precompute_s": (setup.get("precompute_s", 0.0), "s"),
        "partition.calls": (per_pass(calls["partition"]), "count"),
        "partition.per_loop": (
            share(per_pass(calls["partition"]), workload.partitioned_loops_per_pass),
            "count",
        ),
        "partition.total_s": (per_pass(total_s["partition"]), "s"),
        "partition.weights_s": (per_pass(total_s["partition.weights"]), "s"),
        "partition.coarsen_s": (per_pass(total_s["partition.coarsen"]), "s"),
        "partition.refine_s": (per_pass(self_s["partition.refine"]), "s"),
        "partition.refine_calls": (per_pass(calls["partition.refine"]), "count"),
        "partition.preview_s": (per_pass(total_s["partition.preview"]), "s"),
        "partition.preview_calls": (per_pass(calls["partition.preview"]), "count"),
        "partition.estimate_s": (per_pass(total_s["partition.estimate"]), "s"),
        "partition.estimate_calls": (per_pass(calls["partition.estimate"]), "count"),
        "partition.recompute_adopted_share": (
            share(counts["recomputes_adopted"], counts["recomputes"]), "share"
        ),
        "schedule.mii_s": (per_pass(total_s["schedule.mii"]), "s"),
        "schedule.engine_s": (per_pass(self_s["schedule.engine"]), "s"),
        "schedule.engine_init_s": (per_pass(self_s["schedule.engine_init"]), "s"),
        "schedule.list_s": (per_pass(total_s["schedule.list"]), "s"),
        "schedule.attempts": (per_pass(counts["attempts"]), "count"),
        "schedule.attempt_success_share": (
            share(counts["attempt_successes"], counts["attempts"]), "share"
        ),
        "schedule.slot_scans": (per_pass(scans), "count"),
        "schedule.feas_hit_share": (share(hits, hits + scans), "share"),
        "schedule.spills": (per_pass(counts["spills"]), "count"),
        "schedule.list_fallbacks": (per_pass(counts["list_fallbacks"]), "count"),
        "schedule.driver_self_s": (per_pass(self_s["schedule.driver"]), "s"),
        "service.fingerprint_s": (per_pass(total_s["service.fingerprint"]), "s"),
        "service.encode_s": (per_pass(total_s["service.encode"]), "s"),
        "service.decode_s": (per_pass(total_s["service.decode"]), "s"),
        "service.store_get_s": (per_pass(self_s["service.store_get"]), "s"),
        "service.store_put_s": (per_pass(total_s["service.store_put"]), "s"),
        "service.response_kb": (
            mean(plain.response_bytes) / 1024 if plain.response_bytes else 0.0,
            "KB",
        ),
        "service.store_hit_share": (
            share(plain.store_hits, len(plain.replay_s)), "share"
        ),
        "service.memo_hit_share": (
            share(plain.memo_hits + traced.memo_hits,
                  plain.service_calls + traced.service_calls),
            "share",
        ),
        "service.replay_ms_p50": (ms(plain.replay_s, 0.5), "ms"),
        "service.replay_ms_p95": (ms(plain.replay_s, 0.95), "ms"),
        "service.persist_ms_p50": (ms(plain.persist_s, 0.5), "ms"),
        "service.persist_ms_p95": (ms(plain.persist_s, 0.95), "ms"),
        "eval.retries": (getattr(telemetry, "retries", 0), "count"),
        "eval.rebuilds": (getattr(telemetry, "rebuilds", 0), "count"),
        "eval.degraded_chunks": (getattr(telemetry, "degraded_chunks", 0), "count"),
        "eval.pool_warm_s": (getattr(workload, "pool_warm_s", 0.0), "s"),
        "eval.pool_loops_per_s": (
            getattr(workload, "pool_loops_per_s", 0.0), "loops/s"
        ),
        "trace.overhead_share": (overhead, "share"),
        "trace.unattributed_share": (
            share(self_s["op"], total_s["op"]), "share"
        ),
        "trace.spans_per_pass": (per_pass(len(tracer.spans)), "count"),
        "calib.reference_us": (1e6 * median(workload.calibration.samples), "us"),
        "failed_share": (share(failed, attempted), "share"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def op_seconds(rec) -> float:
    return sum(s for samples in rec.samples.values() for s, _ in samples)


def measure(workload, args, tracer):
    """Run passes until the time is up; traced runs alternate passes
    untraced/traced so both halves see the same inputs."""
    from suites import Recorder

    calibration = workload.calibration
    recs = {False: Recorder(calibration), True: Recorder(calibration)}
    recs[True].signatures = recs[False].signatures
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        rec = recs[traced]
        before = op_seconds(rec)
        if traced:
            tracer.install()
        try:
            workload.run_pass(rec, passes == 0, tracer if traced else None)
        finally:
            tracer.uninstall()
        rec.pass_seconds.append(op_seconds(rec) - before)
        if passes == 0:
            # Memory grows with every pass (the library retains about
            # 18 MB per paper-table2 pass), so the peak is taken after the
            # first: later passes would make a faster program look fatter.
            rec.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes += 1
        if passes >= 1 + args.trace and time.perf_counter() >= deadline:
            return recs


def stop_helper_processes() -> None:
    """Stop the multiprocessing helpers a pool leaves running and wait
    for them (the forkserver and the resource tracker)."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    # Scratch space (store root, multiprocessing's temp dir) stays inside
    # the checkout; a relative path keeps socket paths short.  Registered
    # before multiprocessing is imported, so it runs after its cleanup.
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    atexit.register(shutil.rmtree, scratch, True)
    tempfile.tempdir = str(scratch)

    started = time.process_time()
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    from calibration import Calibration
    from repro.workloads.spec import SUITE_SEED
    from spans import Tracer
    from suites import WORKLOADS

    import_s = time.process_time() - started
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not src/",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.seed is None:
        args.seed = SUITE_SEED
    suite_seed = SUITE_SEED if args.suite_seed is None else args.suite_seed
    workload = WORKLOADS[args.workload](
        args.seed, suite_seed, args.smoke, str(scratch), Calibration()
    )
    tracer = Tracer()
    try:
        workload.setup()
        recs = measure(workload, args, tracer)
        workload.finish(recs[False])
    finally:
        workload.close()
        stop_helper_processes()

    plain, traced = recs[False], recs[True]
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    for error in plain.errors + traced.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(workload, recs, tracer, import_s)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(str(trace_path))
        print(f"spans written to {trace_path}")
    else:
        metrics = end_to_end(workload, plain, import_s)
        for line in workload.report(plain):
            print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
