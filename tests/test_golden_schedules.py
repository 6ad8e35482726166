"""Golden schedule digests: the engine's output is pinned bit for bit.

Each digest is the sha256 of a canonical text rendering of every
schedule in one (workload, scheduler) cell: the II, the sorted
placements, the sorted auxiliary operations and the bus transfers.
The digests were recorded before the engine's reservation table and
pressure session were collapsed onto a single flat-list layout, so any
refactor of the hot path that changes a single placement fails here.
A *deliberate* schedule change must re-record them and say why.

Re-recorded: ``("paper-4x32", "gp")``, when GP stopped adopting
recomputed partitions.  The MII partition now guides every II, and a
partition recomputed at a failed II gets one attempt at that II only, so
20 of the 40 loops land on different schedules (ten at a lower II, two
at a higher one).

Workloads:

* every paper-suite loop on the 4x32 Table-1 machine;
* the same loops on 4x32 with two buses of latency 2, the only cells
  that pin the reservation table's generic multi-bus, multi-cycle
  transfer path (``find_bus_slot`` through ``bus_free``).  Recorded
  before the engine's register preview became extension-only;
* eight seeded spill-heavy loops on a halved 2-cluster register file
  (``two_cluster(16)``), which drives the spill transformation and
  communication through memory;
* the six largest extended-tier loops (242-282 operations) on 4x64,
  where the SMS ordering, the recurrence analysis and the slot scans
  work on bodies four times the size of the paper loops.  Recorded
  before the ordering sweeps became heap-ordered.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.machine.presets import four_cluster, two_cluster
from repro.schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    UracamScheduler,
)
from repro.schedule.result import ModuloSchedule
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.spec import extended_suite, spec_suite

SCHEDULERS = {
    cls.name: cls
    for cls in (UracamScheduler, FixedPartitionScheduler, GPScheduler)
}

SPILL_SHAPE = LoopShape(
    40, mem_ratio=0.3, depth_bias=0.35, recurrences=1, trip_count=150
)

GOLDEN = {
    ("paper-4x32", "uracam"):
        "907157d12aab7b4cfc7f604cafa0aa4bacf6d6aa61399d69fdb0f9b0cb13f644",
    ("paper-4x32", "fixed-partition"):
        "5dc959c4c777c1fe532bc77da4afdb41ec1239c172106a38cef20c54c7d2a78d",
    ("paper-4x32", "gp"):
        "8e2f93fe86e16dd9b01d8e87d9e6936e52f0832edebbe2f4f3ce6c442a67734f",
    ("paper-4x32-2bus-lat2", "uracam"):
        "95673abf553f172cca0a4296a645b9d712720a3125f5224bfb843b6b5fe20464",
    ("paper-4x32-2bus-lat2", "fixed-partition"):
        "6fe3c83ec047283a624dd5988c676c7ef246cb04a6d2617f00349f0bb6fb210b",
    ("paper-4x32-2bus-lat2", "gp"):
        "f80b2e6df2ade4c59c57293389a27de71b4d6d204f57882f9719e2e7f92dd3a0",
    ("spill-2x16", "uracam"):
        "bfefdeee6570a52d1623ddaf4a5472d47114e93693dab9533b8a5cab498d099d",
    ("spill-2x16", "fixed-partition"):
        "1554575e303ecf1c66642b8300af682dc4bf9578f99f30df3f702209ae6bd001",
    ("spill-2x16", "gp"):
        "cbb8ca06edbcd6b2887ffb15a745023e409c263f467d4ceb957789ac72688818",
    ("extended-4x64", "uracam"):
        "19ef469c7365342520431b7c4caa5181b070958f97939617ab01c7f8f372f75d",
    ("extended-4x64", "fixed-partition"):
        "02938ab45bf112366f8849246554524c98dcfa0ae81a8b9115974915115ff7c1",
    ("extended-4x64", "gp"):
        "c871edb894479fdaa8da145a554734b8b1d9dfc7c824598005bbcf238ff6df02",
}


def _workload(name):
    if name in ("paper-4x32", "paper-4x32-2bus-lat2"):
        loops = [loop for bench in spec_suite() for loop in bench.loops]
        if name == "paper-4x32":
            return four_cluster(32), loops
        return four_cluster(32, num_buses=2, bus_latency=2), loops
    if name == "extended-4x64":
        loops = sorted(
            (loop for bench in extended_suite() for loop in bench.loops),
            key=lambda loop: (-loop.ddg.num_operations, loop.name),
        )
        return four_cluster(64), loops[:6]
    loops = [generate_loop("golden-spill", SPILL_SHAPE, seed) for seed in range(8)]
    return two_cluster(16), loops


def schedule_record(schedule) -> str:
    """Canonical one-line rendering of everything a schedule decides."""
    if not isinstance(schedule, ModuloSchedule):
        return f"list {sorted(schedule.placements.items())} {schedule.length}"
    placements = sorted(
        (uid, p.cluster, p.time) for uid, p in schedule.placements.items()
    )
    aux = sorted(
        (a.kind, a.value_producer, a.cluster, a.time) for a in schedule.aux_ops
    )
    transfers = sorted(
        (uid, t.slot.bus, t.slot.start, t.slot.length, t.dst_cluster)
        for uid, value in schedule.values.items()
        for t in value.transfers
    )
    return f"{schedule.ii} {placements} {aux} {transfers}"


def digest(workload: str, scheduler: str) -> str:
    machine, loops = _workload(workload)
    sha = hashlib.sha256()
    for loop in loops:
        outcome = SCHEDULERS[scheduler](machine).schedule(loop)
        sha.update(f"{loop.name}: {schedule_record(outcome.schedule)}\n".encode())
    return sha.hexdigest()


@pytest.mark.parametrize(
    "workload,scheduler", sorted(GOLDEN), ids=lambda part: str(part)
)
def test_golden_schedule_digest(workload, scheduler):
    assert digest(workload, scheduler) == GOLDEN[(workload, scheduler)]
