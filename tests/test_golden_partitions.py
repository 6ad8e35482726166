"""Golden partition digests: the multilevel partitioner is pinned bit for bit.

Each digest is the sha256 of ``sorted(assignment.items()), ii_bus, ncomm``
of :meth:`MultilevelPartitioner.partition` at the loop's MII, over six
large-body (>= 150 operations) extended-tier loops on the 4x64 Table-1
machine.  The paper-tier schedules in ``test_golden_schedules.py`` pin
the partitioner only on small bodies; these cover the large ones, where
the refiner prices tens of thousands of candidates and every bound prune
gets exercised.  The digests were recorded before the refiner's bound
prunes were added, so a prune that is not exact fails here.  A
*deliberate* partition change must re-record them and say why.

GP's II-failure recomputes partition the same loops at MII+1, +2 and +4,
where balancing and refinement take different paths through the
hierarchy; ``RECOMPUTE_GOLDEN`` pins the greedy variant there.  It was
recorded before the refiner kept one session across hierarchy levels.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.machine.presets import four_cluster
from repro.partition.partitioner import MultilevelPartitioner
from repro.schedule.mii import mii
from repro.workloads.spec import make_extended_benchmark

#: (program, loop name) of the pinned loops: 151-282 operations.
LOOPS = (
    ("applu", "applu_ext20"),
    ("wave5", "wave5_ext17"),
    ("hydro2d", "hydro2d_ext6"),
    ("tomcatv", "tomcatv_ext3"),
    ("swim", "swim_ext7"),
    ("fpppp", "fpppp_ext7"),
)

GOLDEN = {
    "greedy":
        "bc624b4dc0ccc0776386121de1c41f2e871fa63ba2b7f686018a968a0987ad79",
    "pressure":
        "2821fb6b6860e33982f811a770b8e570f73d7f7cd567e23e003236cc5715f009",
    "exact":
        "34d28c2e46f383f7de6e29b39f6d2001b6cbda3f3ffd91842c790bc55713abc8",
}

#: II offsets above MII of GP's recompute partitions.
RECOMPUTE_OFFSETS = (1, 2, 4)

RECOMPUTE_GOLDEN = (
    "fb2b96650f6dc8e537fd1d45f227aa1dbbf69778d3a6771b44455f09126bfc33"
)

VARIANTS = {
    "greedy": {},
    "pressure": {"pressure_aware": True},
    "exact": {"matching": "exact"},
}


def _loops():
    by_program = {}
    for program, name in LOOPS:
        if program not in by_program:
            by_program[program] = {
                loop.name: loop for loop in make_extended_benchmark(program).loops
            }
        yield by_program[program][name]


def digest(variant: str, offsets=(0,)) -> str:
    machine = four_cluster(64)
    partitioner = MultilevelPartitioner(machine, **VARIANTS[variant])
    sha = hashlib.sha256()
    for loop in _loops():
        base = mii(loop, machine)
        for offset in offsets:
            part = partitioner.partition(loop, base + offset)
            record = f"{sorted(part.assignment.items())} {part.ii_bus} {part.ncomm}"
            label = loop.name if offset == 0 else f"{loop.name}@+{offset}"
            sha.update(f"{label}: {record}\n".encode())
    return sha.hexdigest()


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_golden_partition_digest(variant):
    if variant == "exact":
        pytest.importorskip("networkx")
    assert digest(variant) == GOLDEN[variant]


def test_golden_partition_digest_at_recompute_iis():
    assert digest("greedy", RECOMPUTE_OFFSETS) == RECOMPUTE_GOLDEN


#: ``estimate_preview`` calls of greedy ``digest`` at MII: the set of
#: candidates that survive the transfer-count prune.  A change here means
#: the refiner prices a different candidate set.
PREVIEW_CALLS = 2128

#: Ceiling on exact transfer-count walks (``CommState.preview_ncomm``) of
#: the same run: the refiner's delta table does 3,518, plus 10% headroom.
#: Without the table every enumerated candidate pays a walk (18,611).
MAX_TRANSFER_WALKS = 3870


def test_refiner_work_counts(monkeypatch):
    """A host-independent perf gate: counted work, never timings."""
    from repro.partition.estimator import CommState, PartitionEstimator

    counts = {"walks": 0, "previews": 0}

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(CommState, "preview_ncomm", "walks")
    counted(PartitionEstimator, "estimate_preview", "previews")
    assert digest("greedy") == GOLDEN["greedy"]
    assert counts["previews"] == PREVIEW_CALLS
    assert counts["walks"] <= MAX_TRANSFER_WALKS
