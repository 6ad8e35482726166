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


#: ``estimate_preview`` calls of greedy ``digest`` at MII: the candidates
#: that survive both bound prunes, run from the score-delta table, priced
#: from their entries.  A change here means the refiner prices a
#: different candidate set.
PREVIEW_CALLS = 369

#: ``PartitionEstimator._bounded_ii`` calls of the same run: one per
#: ``estimate`` and one per ``may_beat``; a priced candidate does not run
#: the bound prunes a second time.
BOUNDED_II_CALLS = 2295

#: Ceilings on the exact walks of the same run, plus 10% headroom:
#: transfer-count walks (``CommState.preview_ncomm``, 3,035), which every
#: table miss pays, and score-delta walks (``CommState.preview_delta``,
#: 747), which only candidates surviving the transfer-count prune pay.
#: Without the table every enumerated candidate pays a walk (18,611).
MAX_TRANSFER_WALKS = 3340
MAX_SCORE_WALKS = 820

#: Full longest-path sweeps (``PartitionEstimator._start_times``) of the
#: same run.  The live start times are cached per II until a move, the
#: round's winner hands its start times to the live state, and a candidate
#: that un-cuts no tight edge relaxes from the live ones.
FULL_SWEEPS = 707


def test_refiner_work_counts(monkeypatch):
    """A host-independent perf gate: counted work, never timings."""
    from repro.partition.estimator import CommState, PartitionEstimator

    counts = {
        "walks": 0, "score_walks": 0, "previews": 0, "bounds": 0, "sweeps": 0,
    }

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(CommState, "preview_ncomm", "walks")
    counted(CommState, "preview_delta", "score_walks")
    counted(PartitionEstimator, "estimate_preview", "previews")
    counted(PartitionEstimator, "_bounded_ii", "bounds")
    counted(PartitionEstimator, "_start_times", "sweeps")
    assert digest("greedy") == GOLDEN["greedy"]
    assert counts["previews"] == PREVIEW_CALLS
    assert counts["bounds"] == BOUNDED_II_CALLS
    assert counts["sweeps"] == FULL_SWEEPS
    assert counts["walks"] <= MAX_TRANSFER_WALKS
    assert counts["score_walks"] <= MAX_SCORE_WALKS
