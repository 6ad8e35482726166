"""Modulo scheduling: engine, policies, drivers, fallback, validation."""

from .analysis_core import ScheduleAnalysis
from .expand import ExpandedSchedule, expand, render_kernel
from .drivers import (
    SCHEDULERS,
    BaseScheduler,
    FixedPartitionScheduler,
    GPScheduler,
    ScheduleOutcome,
    UnifiedScheduler,
    UracamScheduler,
)
from .engine import (
    AllClustersPolicy,
    AssignedFirstPolicy,
    Candidate,
    ClusterPolicy,
    FixedClusterPolicy,
    SchedulingEngine,
)
from .lifetimes import LiveSegment, max_live, pressure_by_cycle, register_cycles
from .listsched import ListSchedule, list_schedule
from .merit import DEFAULT_THRESHOLD, MeritVector, compare, consumption
from .mii import mii, rec_mii, res_mii
from .mrt import BusSlot, FUSlot, Overlay, ReservationTable
from .ordering import sms_order
from .result import AuxOp, ModuloSchedule, Placed, ScheduleStats
from .values import BusTransfer, Use, ValueState, segments_of_value, value_segments

__all__ = [
    "AllClustersPolicy",
    "AssignedFirstPolicy",
    "AuxOp",
    "BaseScheduler",
    "BusSlot",
    "BusTransfer",
    "Candidate",
    "ClusterPolicy",
    "DEFAULT_THRESHOLD",
    "ExpandedSchedule",
    "FixedClusterPolicy",
    "FixedPartitionScheduler",
    "FUSlot",
    "GPScheduler",
    "ListSchedule",
    "LiveSegment",
    "MeritVector",
    "ModuloSchedule",
    "Overlay",
    "Placed",
    "ReservationTable",
    "SCHEDULERS",
    "ScheduleAnalysis",
    "ScheduleOutcome",
    "ScheduleStats",
    "SchedulingEngine",
    "UnifiedScheduler",
    "UracamScheduler",
    "Use",
    "ValueState",
    "compare",
    "consumption",
    "expand",
    "list_schedule",
    "max_live",
    "mii",
    "pressure_by_cycle",
    "rec_mii",
    "register_cycles",
    "render_kernel",
    "res_mii",
    "segments_of_value",
    "sms_order",
    "value_segments",
]
