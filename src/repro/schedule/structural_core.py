"""The shared structural-analysis core (dependences, FUs, buses).

Sibling of :mod:`~repro.schedule.analysis_core`: where that module owns
the *register* picture of a schedule (the value ledger, lifetime
segments, pressure rings), one :class:`StructuralAnalysis` session owns
the *structural* picture — the per-(cluster, op-class) functional-unit
occupancy rows over the II kernel cycles, the per-bus slot ledger, and
the dependence-check evidence.  Every consumer of the structural model
goes through this session:

* the **scheduling engine** already maintains exactly this state while
  scheduling — it *is* the :class:`~repro.schedule.mrt.ReservationTable`
  — so on success the engine hands the table's live occupancy rows over
  (:meth:`from_table`) and attaches the session to the finished
  :class:`~repro.schedule.result.ModuloSchedule` alongside the pressure
  session;
* the **validator**'s ``_validate_dependences`` / ``_validate_functional_units``
  / ``_validate_buses`` passes verify against the cached rows in
  O(occupancy rows) instead of re-sweeping every edge and placement per
  schedule — the last full-sweep hot paths on big sweeps;
* schedules built *without* an engine (deserialized, hand-made, mutated
  by tests) lazily derive their session from the raw schedule via
  :meth:`from_schedule`, which performs the very sweeps the seed
  validator ran — so verdicts on cache-less schedules are unchanged.

The paranoid contract mirrors the register side exactly:
:meth:`from_schedule` stays the reference implementation, and
``validate(full_recheck=True)`` rebuilds the structural session from the
raw schedule and fails on any divergence from an attached one — a stale
or corrupted cache can never hide a structural violation from the
paranoid mode.  :meth:`verify` is the engine-facing check (an engine
built with ``verify=True`` cross-checks the handed-over rows against the
reference sweep at attach time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import ValidationError
from ..ir.ddg import DepKind
from ..ir.opcodes import OpClass
from .values import LOAD_LATENCY, ValueState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.config import MachineConfig
    from .mrt import ReservationTable
    from .result import ModuloSchedule, Placed

#: A functional-unit occupancy key: one (cluster, op-class) row.
FUKey = Tuple[int, OpClass]


# ----------------------------------------------------------------------
# Reference sweeps (the seed validator's full passes)
# ----------------------------------------------------------------------
def check_dependences(schedule: "ModuloSchedule") -> None:
    """Sweep every DDG edge; raise on the first violated dependence.

    This is the reference dependence pass: same-cluster (and non-DATA)
    edges are checked by separation arithmetic, cross-cluster DATA edges
    by their communication evidence (a delivered register copy or a
    store/load pair in the value ledger).
    """
    ddg = schedule.loop.ddg
    ii = schedule.ii
    placements = schedule.placements
    for dep in ddg.edges():
        src = placements.get(dep.src)
        dst = placements.get(dep.dst)
        if src is None or dst is None:
            missing = dep.src if src is None else dep.dst
            raise ValidationError(f"operation {missing} is not scheduled")
        separation = dst.time + ii * dep.distance - src.time
        if dep.kind is not DepKind.DATA or src.cluster == dst.cluster:
            if separation < dep.latency:
                raise ValidationError(
                    f"dependence {dep.src}->{dep.dst} violated: "
                    f"separation {separation} < latency {dep.latency}"
                )
            continue
        # Cross-cluster DATA edge: communication evidence required.
        _check_communication(schedule, dep, src, dst)


def _check_communication(schedule: "ModuloSchedule", dep, src, dst) -> None:
    value = schedule.values.get(dep.src)
    if value is None:
        raise ValidationError(f"no value state for producer {dep.src}")
    birth = src.time + schedule.loop.ddg.operation(dep.src).latency
    read_time = dst.time + schedule.ii * dep.distance
    use = _find_use(value, dep.dst, read_time)

    if use.route == "reg":
        delivered = value.copy_available(dst.cluster)
        if delivered is None or delivered > read_time:
            raise ValidationError(
                f"value {dep.src} not in cluster {dst.cluster} registers "
                f"by cycle {read_time}"
            )
        for transfer in value.transfers:
            if transfer.dst_cluster == dst.cluster and transfer.slot.start < birth:
                raise ValidationError(
                    f"value {dep.src} transferred before it was produced"
                )
    elif use.route == "mem":
        ready = value.memory_ready()
        if ready is None:
            raise ValidationError(
                f"memory-routed use of {dep.src} but the value was never stored"
            )
        if value.store_time < birth:
            raise ValidationError(f"value {dep.src} stored before produced")
        if use.load_time is None or use.load_time < ready:
            raise ValidationError(
                f"load of value {dep.src} issues before the store completes"
            )
        if use.load_time + LOAD_LATENCY > read_time:
            raise ValidationError(
                f"load of value {dep.src} completes after the read at {read_time}"
            )
    else:  # pragma: no cover - defensive
        raise ValidationError(f"unknown route {use.route!r}")


def _find_use(value: ValueState, consumer: int, read_time: int):
    for use in value.uses:
        if use.consumer == consumer and use.read_time == read_time:
            return use
    raise ValidationError(
        f"no use record for consumer {consumer} of value {value.producer}"
    )


def fu_usage_rows(schedule: "ModuloSchedule") -> Dict[FUKey, List[int]]:
    """Per-(cluster, op-class) issue counts over the kernel cycles.

    The reference functional-unit sweep: every placement occupies its
    class at ``time % II``; every auxiliary operation (spill or
    communication store/load) occupies a memory unit.  Only rows with at
    least one occupied cycle are materialized, matching
    :meth:`~repro.schedule.mrt.ReservationTable.fu_occupancy_rows`.
    """
    ii = schedule.ii
    rows: Dict[FUKey, List[int]] = {}
    ddg = schedule.loop.ddg
    for uid, placed in schedule.placements.items():
        key = (placed.cluster, ddg.operation(uid).op_class)
        row = rows.get(key)
        if row is None:
            row = rows[key] = [0] * ii
        row[placed.time % ii] += 1
    for aux in schedule.aux_ops:
        key = (aux.cluster, OpClass.MEM)
        row = rows.get(key)
        if row is None:
            row = rows[key] = [0] * ii
        row[aux.time % ii] += 1
    return rows


def bus_usage_rows(
    schedule: "ModuloSchedule",
) -> Tuple[Dict[int, List[int]], Optional[str]]:
    """Per-bus occupancy counts over the kernel cycles, plus the first
    self-overlap violation (a transfer longer than the II collides with
    the next iteration's instance of itself)."""
    ii = schedule.ii
    rows: Dict[int, List[int]] = {}
    error: Optional[str] = None
    for value in schedule.values.values():
        for transfer in value.transfers:
            cycles = {
                (transfer.slot.start + k) % ii
                for k in range(transfer.slot.length)
            }
            if len(cycles) != transfer.slot.length:
                if error is None:
                    error = (
                        f"transfer of value {value.producer} overlaps itself "
                        f"(length {transfer.slot.length} > II {ii})"
                    )
                continue
            row = rows.get(transfer.slot.bus)
            if row is None:
                row = rows[transfer.slot.bus] = [0] * ii
            for cycle in cycles:
                row[cycle] += 1
    return rows, error


def count_edges(schedule: "ModuloSchedule") -> int:
    """Number of DDG edges the dependence evidence must cover."""
    return schedule.loop.ddg.num_edges


#: One cluster's placement summary: (placements, lowest uid, highest uid).
PlacementRow = Tuple[int, int, int]


def placement_rows(
    placements: Dict[int, "Placed"]
) -> Dict[int, PlacementRow]:
    """Per-cluster placement summaries: count plus the hosted uid range.

    The reference placement sweep.  Uids are dense from 0 (a
    :class:`~repro.ir.ddg.DataDependenceGraph` invariant), so the
    summary is a *complete* placement check, not a heuristic: ``n``
    distinct placed uids, all within ``[0, n)``, are exactly the full
    uid set — which is what :meth:`StructuralAnalysis.check_placements`
    verifies in O(clusters) instead of O(uids).
    """
    rows: Dict[int, PlacementRow] = {}
    for uid, placed in placements.items():
        row = rows.get(placed.cluster)
        if row is None:
            rows[placed.cluster] = (1, uid, uid)
        else:
            count, lo, hi = row
            rows[placed.cluster] = (count + 1, min(lo, uid), max(hi, uid))
    return rows


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class StructuralAnalysis:
    """Structural-analysis session over one schedule.

    Holds the functional-unit occupancy rows, the bus-slot ledger and
    the dependence evidence (how many edges were checked and the first
    violation found, if any).  Engine-attached sessions carry the
    reservation table's live rows — every edge was necessarily satisfied
    when its endpoints committed, so ``dep_error`` is ``None`` and
    ``dep_edges`` counts the whole DDG.  Lazily derived sessions record
    whatever the reference sweeps found.
    """

    def __init__(
        self,
        ii: int,
        fu_rows: Dict[FUKey, List[int]],
        bus_rows: Dict[int, List[int]],
        dep_edges: int,
        dep_error: Optional[str] = None,
        bus_error: Optional[str] = None,
        placements: Optional[Dict[int, PlacementRow]] = None,
    ) -> None:
        self.ii = ii
        self.fu_rows = fu_rows
        self.bus_rows = bus_rows
        self.dep_edges = dep_edges
        self.dep_error = dep_error
        self.bus_error = bus_error
        #: Per-cluster (count, min uid, max uid) placement summary; see
        #: :func:`placement_rows`.
        self.placements = placements or {}

    @classmethod
    def from_table(
        cls,
        table: "ReservationTable",
        dep_edges: int,
        placements: Optional[Dict[int, "Placed"]] = None,
    ) -> "StructuralAnalysis":
        """Adopt a scheduling engine's live reservation state.

        The engine only ever commits candidates whose dependences were
        satisfied at commit time, so the handed-over session records the
        full edge count and no violation.  ``placements`` (the engine's
        committed placement map) is summarized once here, so the
        validator's placement pass never re-sweeps uids.
        """
        return cls(
            ii=table.ii,
            fu_rows=table.fu_occupancy_rows(),
            bus_rows=table.bus_occupancy_rows(),
            dep_edges=dep_edges,
            placements=placement_rows(placements or {}),
        )

    @classmethod
    def from_schedule(cls, schedule: "ModuloSchedule") -> "StructuralAnalysis":
        """Build a session from the raw schedule (the reference path)."""
        dep_error: Optional[str] = None
        try:
            check_dependences(schedule)
        except ValidationError as error:
            dep_error = str(error)
        bus_rows, bus_error = bus_usage_rows(schedule)
        return cls(
            ii=schedule.ii,
            fu_rows=fu_usage_rows(schedule),
            bus_rows=bus_rows,
            dep_edges=count_edges(schedule),
            dep_error=dep_error,
            bus_error=bus_error,
            placements=placement_rows(schedule.placements),
        )

    # ------------------------------------------------------------------
    # Cached validation
    # ------------------------------------------------------------------
    def check_placements(
        self, machine: "MachineConfig", expected_ops: int
    ) -> None:
        """Validate the placement summary in O(clusters).

        ``expected_ops`` is the loop's operation count; uids are dense
        from 0, so ``expected_ops`` distinct placed uids all within
        ``[0, expected_ops)`` are exactly the full uid set (see
        :func:`placement_rows`).
        """
        total = 0
        for cluster, (count, lo, hi) in self.placements.items():
            if not 0 <= cluster < machine.num_clusters:
                raise ValidationError(
                    f"{count} operation(s) on bogus cluster {cluster}"
                )
            if lo < 0 or hi >= expected_ops:
                raise ValidationError(
                    f"cluster {cluster} hosts uids outside [0, "
                    f"{expected_ops}): range [{lo}, {hi}]"
                )
            total += count
        if total != expected_ops:
            raise ValidationError(
                f"{total} of {expected_ops} operations are scheduled"
            )

    def check(self, machine: "MachineConfig") -> None:
        """Validate the cached structural state against the machine.

        Pass order matches the seed validator: dependences, then
        functional units, then buses.  O(occupancy rows), not O(edges +
        placements) — the capacities are resolved once per row.
        """
        if self.dep_error is not None:
            raise ValidationError(self.dep_error)
        for (cluster, op_class), row in self.fu_rows.items():
            capacity = machine.cluster(cluster).units_for_class(op_class)
            for cycle, used in enumerate(row):
                if used > capacity:
                    raise ValidationError(
                        f"cluster {cluster} {op_class} oversubscribed at "
                        f"kernel cycle {cycle}: {used} > {capacity}"
                    )
        if self.bus_error is not None:
            raise ValidationError(self.bus_error)
        for bus, row in self.bus_rows.items():
            if bus >= machine.num_buses:
                raise ValidationError(f"transfer on nonexistent bus {bus}")
            for cycle, used in enumerate(row):
                if used > 1:
                    raise ValidationError(
                        f"bus {bus} double-booked at kernel cycle {cycle}"
                    )

    # ------------------------------------------------------------------
    # Reference cross-checks
    # ------------------------------------------------------------------
    def matches(self, other: "StructuralAnalysis") -> bool:
        """True if two sessions record identical structural pictures."""
        return (
            self.ii == other.ii
            and self.fu_rows == other.fu_rows
            and self.bus_rows == other.bus_rows
            and self.dep_edges == other.dep_edges
            and self.dep_error == other.dep_error
            and self.bus_error == other.bus_error
            and self.placements == other.placements
        )

    def verify(self, schedule: "ModuloSchedule") -> None:
        """Assert this session equals the reference sweep of ``schedule``.

        Raises :class:`AssertionError` naming the first mismatching
        quantity — the escape hatch that keeps the engine's reservation
        handover honest against the sweeps the validator trusts.
        """
        reference = StructuralAnalysis.from_schedule(schedule)
        if self.placements != reference.placements:
            raise AssertionError(
                f"placement summary diverged: session {self.placements} "
                f"!= reference {reference.placements}"
            )
        if self.fu_rows != reference.fu_rows:
            raise AssertionError(
                f"FU occupancy rows diverged: session {self.fu_rows} "
                f"!= reference {reference.fu_rows}"
            )
        if self.bus_rows != reference.bus_rows:
            raise AssertionError(
                f"bus ledger diverged: session {self.bus_rows} "
                f"!= reference {reference.bus_rows}"
            )
        if self.dep_edges != reference.dep_edges:
            raise AssertionError(
                f"dependence evidence diverged: session covers "
                f"{self.dep_edges} edges, reference {reference.dep_edges}"
            )
        if (self.dep_error, self.bus_error) != (
            reference.dep_error,
            reference.bus_error,
        ):
            raise AssertionError(
                f"recorded violations diverged: session "
                f"{(self.dep_error, self.bus_error)} != reference "
                f"{(reference.dep_error, reference.bus_error)}"
            )
