"""The benchmark's workloads and the recorder their operations report to.

Each workload builds its own inputs, times the public call of one
operation in CPU seconds (``time.process_time``), scaled to calibrated
seconds (see ``calibration.py``), and checks every output outside the
timed region.  A *pass* runs every input of the workload once; the
runner repeats passes until the run's time is up.

Timing hygiene: every pass and every (machine, scheduler) pair gets
freshly generated ``Loop`` objects inside a fresh ``ReproService``, so
the per-DDG memo caches of the library and the session's response memo
start cold, as they do for a ``repro evaluate`` invocation.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from statistics import median
from typing import Dict, List, Tuple

from calibration import Calibration
from repro.eval.parallel import EvaluationPool
from repro.service import (
    DiskStore,
    EvaluationRequest,
    ReproService,
    ScheduleRequest,
    codec,
)
from repro.workloads.spec import extended_suite, spec_suite

#: The schedulers of the paper's Table 2, with their metric prefixes.
SCHEDULERS = (("uracam", "uracam"), ("fixed-partition", "fixed"), ("gp", "gp"))

#: The Table-1 machines.
PAPER_MACHINES = ("2x32", "2x64", "4x32", "4x64")

#: The machines of the store workload's six requests.
STORE_MACHINES = ("4x32", "4x64")

#: Body-size threshold and panel size of ``extended-large``.
LARGE_BODY_OPS = 150
LARGE_PANEL = 16


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Recorder:
    """Samples, correctness verdicts and counters of one run."""

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        #: scheduler -> [(calibrated seconds, loops)] per timed operation.
        self.samples: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
        #: scheduler -> input (loop or response) -> ms per loop, one value
        #: per pass.
        self.per_input: Dict[str, Dict[tuple, List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        #: scheduler -> [(dynamic operations, cycles)] grouped per
        #: (machine, program) for the Figure-2 average IPC.
        self.ipc_groups: Dict[str, Dict[tuple, List[Tuple[int, int]]]] = (
            defaultdict(lambda: defaultdict(list))
        )
        #: Suite-level IPC values for workloads that get whole responses.
        self.suite_ipc: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: First result of every (machine, scheduler, loop): later passes
        #: and replays must reproduce it exactly.
        self.signatures: Dict[tuple, tuple] = {}
        #: (machine, scheduler) -> [cpu seconds, slot scans] for Table 2.
        self.table2: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0.0, 0]
        )
        #: Per-op extras for the per-layer metrics.
        self.replay_s: List[float] = []
        self.persist_s: List[float] = []
        self.response_bytes: List[int] = []
        self.store_hits = 0
        self.memo_hits = 0
        self.service_calls = 0
        #: Calibrated seconds of operation time in each pass.
        self.pass_seconds: List[float] = []
        #: Peak resident memory after set-up and the first pass.
        self.peak_rss_kb = 0

    def record(self, scheduler: str, key: tuple, seconds: float, loops: int) -> None:
        self.samples[scheduler].append((seconds, loops))
        self.per_input[scheduler][key].append(1e3 * seconds / loops)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check_signature(self, key: tuple, signature: tuple) -> None:
        first = self.signatures.setdefault(key, signature)
        if first != signature:
            self.fail(f"{key}: result {signature} differs from {first}")


def outcome_signature(outcome) -> tuple:
    """What must not change between runs of one request: modulo flag,
    II and IPC (the codec's per-loop surface)."""
    schedule = outcome.schedule
    return (outcome.is_modulo, getattr(schedule, "ii", 0), outcome.ipc())


def suite_signatures(response) -> Dict[str, tuple]:
    return {
        outcome.loop.name: outcome_signature(outcome)
        for result in response.result.per_benchmark.values()
        for outcome in result.outcomes
    }


def _timed(rec: Recorder, tracer, call):
    """Run ``call`` (under the root span in traced passes); returns its
    value and its CPU time in calibrated seconds."""
    if tracer is None:
        return rec.calibration.measure(call)

    def traced():
        with tracer.op():
            return call()

    return rec.calibration.measure(traced)


class Workload:
    """Common shape: ``setup`` once, ``run_pass`` repeatedly, ``close``."""

    name = ""
    #: Loops scheduled per pass with a partitioning scheduler (fixed/gp).
    partitioned_loops_per_pass = 0

    def __init__(
        self, seed: int, suite_seed: int, smoke: bool, scratch: str,
        calibration: Calibration,
    ) -> None:
        self.seed = seed
        self.suite_seed = suite_seed
        self.smoke = smoke
        self.scratch = scratch
        self.calibration = calibration
        self.rng = random.Random(seed)
        self.setup_parts: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec: Recorder, check: bool, tracer) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """Checks that run once after the measured passes."""

    def close(self) -> None:
        """Release what ``setup`` acquired."""

    def report(self, rec: Recorder) -> List[str]:
        """Informational lines printed before the result."""
        return []


class ComputeWorkload(Workload):
    """Schedule loops one ``ReproService.schedule`` call at a time."""

    machines: Tuple[str, ...] = ()

    def generate(self) -> List[Tuple[str, object]]:
        """Fresh (program, loop) pairs for one (machine, scheduler) block."""
        raise NotImplementedError

    def setup(self) -> None:
        timings = []
        for _ in range(3):
            started = time.process_time()
            self.generate()
            timings.append(time.process_time() - started)
        self.setup_parts["generate_s"] = median(timings)
        loops = len(self.generate())
        self.partitioned_loops_per_pass = 2 * loops * len(self.machines)

    def run_pass(self, rec: Recorder, check: bool, tracer) -> None:
        blocks = [(m, s) for m in self.machines for s, _ in SCHEDULERS]
        self.rng.shuffle(blocks)
        for machine, scheduler in blocks:
            loops = self.generate()
            self.rng.shuffle(loops)
            with ReproService() as service:
                for program, loop in loops:
                    self._schedule_one(
                        rec, check, tracer, service, machine, scheduler,
                        program, loop,
                    )

    def _schedule_one(
        self, rec, check, tracer, service, machine, scheduler, program, loop
    ) -> None:
        request = ScheduleRequest(machine=machine, scheduler=scheduler, loop=loop)
        rec.attempted += 1
        rec.service_calls += 1
        key = (machine, scheduler, loop.name)
        try:
            response, seconds = _timed(
                rec, tracer, lambda: service.schedule(request)
            )
        except Exception as error:  # one failed op; the run goes on
            rec.fail(f"{key}: {type(error).__name__}: {error}")
            return
        rec.record(scheduler, (machine, loop.name), seconds, 1)
        rec.memo_hits += response.meta.cache_hit
        outcome = response.outcome
        first = key not in rec.signatures
        rec.check_signature(key, outcome_signature(outcome))
        entry = rec.table2[(machine, scheduler)]
        entry[0] += seconds
        if outcome.is_modulo:
            entry[1] += outcome.schedule.stats.feas_cache_scans
        if first:
            rec.ipc_groups[scheduler][(machine, program)].append(
                (loop.total_dynamic_operations(), outcome.execution_cycles())
            )
        if check and outcome.is_modulo:
            try:
                outcome.schedule.validate(full_recheck=True)
            except Exception as error:
                rec.fail(f"{key}: validator rejected: {error}")


class PaperTable2(ComputeWorkload):
    """The paper's 40-loop suite on the four Table-1 machines."""

    name = "paper-table2"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.machines = ("4x32",) if self.smoke else PAPER_MACHINES

    def generate(self):
        suite = spec_suite(self.suite_seed)
        if self.smoke:
            suite = suite[:1]
        return [(b.name, loop) for b in suite for loop in b.loops]

    def report(self, rec: Recorder) -> List[str]:
        """Table 2: CPU ratios against GP beside the slot-scan ratio."""
        lines = ["table2 machine  uracam/gp cpu  fixed/gp cpu  uracam/gp slot scans"]
        for machine in self.machines:
            gp_cpu, gp_scans = rec.table2[(machine, "gp")]
            uracam_cpu, uracam_scans = rec.table2[(machine, "uracam")]
            fixed_cpu, _ = rec.table2[(machine, "fixed-partition")]
            if not gp_cpu or not gp_scans:
                continue
            lines.append(
                f"table2 {machine:7s}  {uracam_cpu / gp_cpu:13.3f}  "
                f"{fixed_cpu / gp_cpu:12.3f}  {uracam_scans / gp_scans:20.3f}"
            )
        return lines


class ExtendedLarge(ComputeWorkload):
    """A stratified panel of large-body loops of the extended tier on 4x64.

    The panel is fixed by the suite seed: the loops with at least
    ``LARGE_BODY_OPS`` operations are sorted by size, split into
    ``LARGE_PANEL`` strata, and one loop is drawn from each.
    """

    name = "extended-large"
    machines = ("4x64",)

    def setup(self) -> None:
        large = sorted(
            (
                (loop.ddg.num_operations, loop.name)
                for benchmark in extended_suite(self.suite_seed)
                for loop in benchmark.loops
                if loop.ddg.num_operations >= LARGE_BODY_OPS
            )
        )
        draw = random.Random(self.suite_seed)
        count = 2 if self.smoke else LARGE_PANEL
        self.panel = {
            large[draw.randrange(i * len(large) // count,
                                 (i + 1) * len(large) // count)][1]
            for i in range(count)
        }
        super().setup()

    def generate(self):
        return [
            (benchmark.name, loop)
            for benchmark in extended_suite(self.suite_seed)
            for loop in benchmark.loops
            if loop.name in self.panel
        ]


def _store_requests(smoke: bool) -> List[EvaluationRequest]:
    """The six ``repro evaluate`` requests: 3 schedulers x 2 machines."""
    machines = STORE_MACHINES[:1] if smoke else STORE_MACHINES
    return [
        EvaluationRequest(
            scheduler=scheduler, machine=machine, suite="paper",
            programs=1 if smoke else 0,
        )
        for scheduler, _ in SCHEDULERS
        for machine in machines
    ]


def _response_loops(response) -> int:
    return sum(len(r.outcomes) for r in response.result.per_benchmark.values())


def _validate_response(rec: Recorder, response) -> None:
    for result in response.result.per_benchmark.values():
        for outcome in result.outcomes:
            if not outcome.is_modulo:
                continue
            try:
                outcome.schedule.validate(full_recheck=True)
            except Exception as error:
                rec.fail(f"{outcome.loop.name}: validator rejected: {error}")


class StoreReplay(Workload):
    """Persist and replay whole-suite responses through a disk store.

    Set-up computes the six ``repro evaluate`` requests in-process.
    After the measured passes, the same requests run once more through
    ``evaluate_many`` on a warm two-worker pool (the host has two
    cores), as ``repro evaluate --jobs 2`` does: its results must equal
    the in-process ones, and the pool's cost and telemetry become the
    ``eval.*`` per-layer metrics.  The pool is kept out of set-up and
    out of the operations because its wall time is too unsteady on a
    shared host to gate on.
    """

    name = "store-replay"
    jobs = 2

    def setup(self) -> None:
        self.root = f"{self.scratch}/store"
        started = time.process_time()
        self.requests = _store_requests(self.smoke)
        self.setup_parts["generate_s"] = time.process_time() - started

        # One calibrated measurement per request: each is short enough
        # for the reference samples around it to follow the host.
        self.responses = []
        self.setup_parts["precompute_s"] = 0.0
        with ReproService() as service:
            for request in self.requests:
                response, seconds = self.calibration.measure(
                    lambda: service.evaluate(request)
                )
                self.responses.append(response)
                self.setup_parts["precompute_s"] += seconds
        self.store = DiskStore(self.root)
        for response in self.responses:
            self.store.put(response.meta.fingerprint, codec.dumps_response(response))
        self.reference = [suite_signatures(r) for r in self.responses]
        self.checked_setup = False

    def run_pass(self, rec: Recorder, check: bool, tracer) -> None:
        if check and not self.checked_setup:
            self.checked_setup = True
            for response in self.responses:
                _validate_response(rec, response)
        order = list(range(len(self.requests)))
        self.rng.shuffle(order)
        for index in order:
            self._round_trip(rec, tracer, index)

    def _round_trip(self, rec: Recorder, tracer, index: int) -> None:
        request, response = self.requests[index], self.responses[index]
        rec.attempted += 2
        rec.service_calls += 1
        try:
            text, persist = _timed(rec, tracer, lambda: self._persist(response))

            def replay():
                with ReproService(store=f"disk:{self.root}") as service:
                    return service.evaluate(request)

            replayed, replay_s = _timed(rec, tracer, replay)
        except Exception as error:  # one failed op; the run goes on
            rec.fail(f"{request.scheduler}/{request.machine}: {error}")
            return
        rec.persist_s.append(persist)
        rec.replay_s.append(replay_s)
        rec.response_bytes.append(len(text.encode("utf-8")))
        loops = _response_loops(replayed)
        rec.record(request.scheduler, (request.machine,), persist + replay_s, loops)
        store = replayed.meta.store
        rec.store_hits += bool(store is not None and store.hit)
        rec.memo_hits += replayed.meta.cache_hit and not (store and store.hit)
        if suite_signatures(replayed) != self.reference[index]:
            rec.fail(f"{request.scheduler}/{request.machine}: replay differs")
        if store is None or not store.hit:
            rec.fail(f"{request.scheduler}/{request.machine}: not a store hit")
        if len(rec.suite_ipc[request.scheduler]) < len(STORE_MACHINES):
            rec.suite_ipc[request.scheduler].append(replayed.average_ipc)

    def _persist(self, response) -> str:
        text = codec.dumps_response(response)
        self.store.put(response.meta.fingerprint, text)
        return text

    def finish(self, rec: Recorder) -> None:
        """The pool's results must equal the in-process results (the
        batch runner's bit-identity contract)."""
        started = time.perf_counter()
        self.pool = EvaluationPool(self.jobs)
        self.pool.warm()
        self.pool_warm_s = time.perf_counter() - started
        started = time.perf_counter()
        with ReproService(pool=self.pool) as service:
            pooled = service.evaluate_many(self.requests)
        self.pool_loops_per_s = sum(_response_loops(r) for r in pooled) / (
            time.perf_counter() - started
        )
        self.pool_telemetry = pooled[0].meta.telemetry
        for request, expected, response in zip(self.requests, self.reference, pooled):
            rec.attempted += 1
            if suite_signatures(response) != expected:
                rec.fail(f"{request.scheduler}/{request.machine}: pool result "
                         "differs from the in-process result")

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.shutdown()


WORKLOADS = {
    cls.name: cls for cls in (PaperTable2, ExtendedLarge, StoreReplay)
}
