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


def digest(variant: str) -> str:
    machine = four_cluster(64)
    partitioner = MultilevelPartitioner(machine, **VARIANTS[variant])
    sha = hashlib.sha256()
    for loop in _loops():
        part = partitioner.partition(loop, mii(loop, machine))
        record = f"{sorted(part.assignment.items())} {part.ii_bus} {part.ncomm}"
        sha.update(f"{loop.name}: {record}\n".encode())
    return sha.hexdigest()


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_golden_partition_digest(variant):
    if variant == "exact":
        pytest.importorskip("networkx")
    assert digest(variant) == GOLDEN[variant]
