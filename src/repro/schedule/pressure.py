"""Incremental register-pressure accounting for the scheduling engine.

The engine's inner loop evaluates thousands of candidate (cluster, cycle)
placements per loop; rebuilding the full lifetime picture for every
candidate (``value_segments`` over *all* values, then ``register_cycles``
and ``max_live``) makes each evaluation O(all values).  The incremental
session that avoids this — per-cluster pressure rings, running
register-cycle totals, per-value segment caches, and a preview that reads
a candidate's segment growth against the rings without mutating them —
now lives in :mod:`repro.schedule.analysis_core` as
:class:`~repro.schedule.analysis_core.ScheduleAnalysis`, because the same
session is shared with the schedule validator and the evaluation metrics
after the attempt finishes (see that module's docstring).

This module keeps the engine-facing name — :class:`PressureTracker` *is*
``ScheduleAnalysis`` — plus :class:`PressurePreview`, a scoped
apply/rollback over the tracker that the equivalence tests check
:meth:`~PressureTracker.preview_effect` against.  The engine never rolls
anything back: its candidate previews mutate neither values nor rings.

The pure functions in :mod:`repro.schedule.lifetimes` and
:mod:`repro.schedule.values` stay the reference implementation (and the
validator's source of truth); :meth:`PressureTracker.verify` cross-checks
the incremental state against them and is wired into the engine behind
``EngineOptions.verify_pressure``.
"""

from __future__ import annotations

from typing import List, Tuple

from .analysis_core import ScheduleAnalysis
from .lifetimes import LiveSegment
from .values import ValueState

#: The engine-facing name of the shared analysis session.
PressureTracker = ScheduleAnalysis


class PressurePreview:
    """Scoped apply/rollback of a candidate's value mutations.

    Context-manager convenience over the tracker's snapshot primitives::

        with PressurePreview(tracker) as preview:
            preview.update(touched_value)   # after mutating it
            preview.track(new_value)
            fits = tracker.fits(registers)
        # tracker restored exactly

    The engine does not use it (its previews never mutate the tracker);
    the tests use it as the mutate-then-rollback reference.
    """

    def __init__(self, tracker: PressureTracker) -> None:
        self.tracker = tracker
        self._saved: List[Tuple[int, List[LiveSegment]]] = []
        self._added: List[int] = []

    def __enter__(self) -> "PressurePreview":
        return self

    def update(self, value: ValueState) -> None:
        producer = value.producer
        if producer not in [uid for uid, _ in self._saved]:
            self._saved.append(
                (producer, list(self.tracker.segments_of(producer)))
            )
        self.tracker.update(value)

    def track(self, value: ValueState) -> None:
        self.tracker.track(value)
        self._added.append(value.producer)

    def __exit__(self, *exc_info: object) -> None:
        for producer in reversed(self._added):
            self.tracker.forget(producer)
        for producer, segments in reversed(self._saved):
            self.tracker.set_segments(producer, segments)
