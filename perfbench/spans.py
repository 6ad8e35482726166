"""In-memory span tracing around the library's public layer functions.

The traced run (``run.py --trace 1``) installs thin wrappers around the
functions each layer exposes, records one span per call (name, start,
end, parent span and the id of the benchmark operation it belongs to)
and derives the per-layer metrics from them.  Nothing in ``repro`` is
edited: the wrappers are patched onto the classes and modules at run
time and removed again by :meth:`Tracer.uninstall`, so untraced passes
run the stock code.

A span's *self time* is its duration minus the durations of its direct
children.  Spans use ``time.perf_counter``, the cheapest clock; the
traced operations run in this process and never wait, so it reads as
CPU time.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Span names whose self time is the operation's own bookkeeping rather
#: than a named layer (the root span of each benchmark operation).
ROOT = "op"


class Tracer:
    """Span recorder plus the layer wrappers that feed it."""

    def __init__(self) -> None:
        #: Closed spans: (request id, span id, parent id, name, start, end).
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.total_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Work counters read at the same boundaries as the spans.
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [span id, name, start, child time]
        self._next_span = 0
        self._request = 0
        self._patches: List[Tuple[object, str, object]] = []
        # Partition-adoption bookkeeping for the GP recompute metric.
        self._driver_partitions = 0
        self._pending_recompute: Optional[dict] = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, name: str) -> None:
        self._next_span += 1
        self._stack.append([self._next_span, name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_time = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_time[name] += duration - child_time
        self.total_time[name] += duration
        self.calls[name] += 1
        self.spans.append(
            (self._request, span_id, parent[0] if parent else 0, name, start, end)
        )

    @contextmanager
    def op(self):
        """The root span of one benchmark operation (a new request id)."""
        self._request += 1
        self._open(ROOT)
        try:
            yield
        finally:
            self._close()

    def dump(self, path: str) -> None:
        """Write every recorded span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for request, span, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "request": request,
                            "span": span,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                )
                handle.write("\n")

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Patch the layer functions; :meth:`uninstall` restores them."""
        from repro.partition import partitioner
        from repro.partition.estimator import PartitionEstimator
        from repro.partition.refine import Refiner
        from repro.schedule import drivers
        from repro.schedule.engine import SchedulingEngine
        from repro.service import codec
        from repro.service.requests import _RequestBase
        from repro.service.store import ResultStore

        wrap = self._wrap
        # service
        wrap(_RequestBase, "fingerprint", "service.fingerprint")
        wrap(codec, "dumps_response", "service.encode")
        wrap(codec, "loads_response", "service.decode")
        wrap(ResultStore, "load", "service.store_get")
        wrap(ResultStore, "put", "service.store_put")
        # schedule
        wrap(
            drivers.BaseScheduler, "schedule", "schedule.driver",
            before=self._driver_started, after=self._driver_finished,
        )
        wrap(drivers, "mii", "schedule.mii")
        wrap(drivers, "list_schedule", "schedule.list")
        wrap(
            SchedulingEngine, "__init__", "schedule.engine_init",
            before=self._engine_created,
        )
        wrap(SchedulingEngine, "attempt", "schedule.engine", after=self._attempted)
        # partition (the names partitioner.py looks up, plus the refiner
        # and estimator methods)
        wrap(
            partitioner.MultilevelPartitioner, "partition", "partition",
            after=self._partitioned,
        )
        wrap(partitioner, "compute_edge_weights", "partition.weights")
        wrap(partitioner, "build_hierarchy", "partition.coarsen")
        wrap(Refiner, "refine", "partition.refine")
        wrap(PartitionEstimator, "estimate", "partition.estimate")
        wrap(PartitionEstimator, "estimate_preview", "partition.preview")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Counters read at the wrapped boundaries
    # ------------------------------------------------------------------
    def _driver_started(self, args) -> None:
        self._driver_partitions = 0
        self._pending_recompute = None

    def _driver_finished(self, args, outcome) -> None:
        self._settle_recompute(None)
        if not outcome.is_modulo:
            self.counts["list_fallbacks"] += 1

    def _partitioned(self, args, partition) -> None:
        self._driver_partitions += 1
        if self._driver_partitions > 1:
            # Every partition after the driver's first (the MII one) is a
            # GP recompute after a failed II.
            self.counts["recomputes"] += 1
            self._pending_recompute = partition.assignment

    def _engine_created(self, args) -> None:
        policy = args[4] if len(args) > 4 else None
        self._settle_recompute(getattr(policy, "assignment", None))

    def _settle_recompute(self, next_assignment) -> None:
        """A recompute is adopted iff the next engine schedules with it."""
        pending, self._pending_recompute = self._pending_recompute, None
        if pending is not None and next_assignment is pending:
            self.counts["recomputes_adopted"] += 1

    def _attempted(self, args, schedule) -> None:
        stats = args[0].stats
        self.counts["attempts"] += 1
        self.counts["attempt_successes"] += schedule is not None
        self.counts["slot_scans"] += stats.feas_cache_scans
        self.counts["feas_hits"] += stats.feas_cache_hits
        self.counts["spills"] += stats.spills
