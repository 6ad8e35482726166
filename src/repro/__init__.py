"""Graph-partitioning based instruction scheduling for clustered processors.

A faithful Python reproduction of Aletà, Codina, Sánchez & González
(MICRO-34, 2001): multilevel graph-partitioning cluster assignment followed
by URACAM-style modulo scheduling with integrated register allocation and
spill-code generation, evaluated against the URACAM and Fixed Partition
baselines on a synthetic SPECfp95-like loop suite.

Quickstart (the typed service façade — see ``repro.service`` and
``examples/service_quickstart.py``)::

    from repro import ReproService, ScheduleRequest

    with ReproService() as service:
        response = service.schedule(
            ScheduleRequest(kernel="daxpy", machine="2x32", scheduler="gp")
        )
        print(response.ipc(), response.outcome.schedule.ii)

The underlying objects stay public for direct use::

    from repro import kernels, two_cluster, GPScheduler

    loop = kernels.daxpy()
    machine = two_cluster(total_registers=32)
    outcome = GPScheduler(machine).schedule(loop)
    print(outcome.ipc(), outcome.schedule.ii)
"""

from . import eval as evaluation  # noqa: F401  (public alias; `eval` shadows builtin)
from .errors import (
    ConfigError,
    GraphError,
    PartitionError,
    ReproError,
    SchedulingError,
    ValidationError,
)
from .ir import (
    DataDependenceGraph,
    Dependence,
    DepKind,
    Loop,
    LoopBuilder,
    OpClass,
    Opcode,
    Operation,
)
from .machine import (
    ClusterConfig,
    MachineConfig,
    clustered,
    four_cluster,
    two_cluster,
    unified,
)
from .partition import MultilevelPartitioner, Partition
from .service import (
    DiskStore,
    EvaluationRequest,
    EvaluationResponse,
    MachineRegistry,
    MemoryStore,
    RegistryError,
    ReproService,
    RequestError,
    ResultStore,
    ScheduleRequest,
    ScheduleResponse,
    SchedulerRegistry,
)
from .schedule import (
    FixedPartitionScheduler,
    GPScheduler,
    ListSchedule,
    ModuloSchedule,
    ScheduleOutcome,
    UnifiedScheduler,
    UracamScheduler,
    mii,
)
from .workloads import kernels, spec_suite  # noqa: F401

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "ConfigError",
    "DataDependenceGraph",
    "Dependence",
    "DepKind",
    "DiskStore",
    "EvaluationRequest",
    "EvaluationResponse",
    "FixedPartitionScheduler",
    "GPScheduler",
    "GraphError",
    "ListSchedule",
    "Loop",
    "LoopBuilder",
    "MachineConfig",
    "MachineRegistry",
    "MemoryStore",
    "ModuloSchedule",
    "MultilevelPartitioner",
    "OpClass",
    "Opcode",
    "Operation",
    "Partition",
    "PartitionError",
    "RegistryError",
    "ReproError",
    "ReproService",
    "RequestError",
    "ResultStore",
    "ScheduleOutcome",
    "ScheduleRequest",
    "ScheduleResponse",
    "SchedulerRegistry",
    "SchedulingError",
    "UnifiedScheduler",
    "UracamScheduler",
    "ValidationError",
    "clustered",
    "evaluation",
    "four_cluster",
    "kernels",
    "mii",
    "spec_suite",
    "two_cluster",
    "unified",
]
