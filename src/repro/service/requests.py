"""Typed, frozen request contracts for the service façade.

A request is pure data: *what* to compute — a loop or a suite, a machine,
a scheduler, the ``verify`` switch — with no execution detail (the
worker count, chunk size and pool live on the
:class:`~repro.service.session.ReproService` session; results are
bit-identical at any of those settings, so they never belong in a
request's identity).  Both request types are:

* **validated at construction** — conflicting or malformed fields raise
  :class:`RequestError` immediately, not deep inside a run;
* **deterministically fingerprintable** — :meth:`fingerprint` hashes a
  canonical JSON form (sorted keys, content-addressed loops and
  machines), so two requests describing the same work fingerprint
  identically regardless of field order, construction site or process.
  The fingerprint is the session's memoization key.  Note a *symbolic*
  name and the equivalent explicit object are deliberately different
  identities (next paragraph), so they do not share a fingerprint.

Symbolic fields stay symbolic: a machine given as a spec string
(``"2x32"``, ``"c6x"``) or a suite given as a tier name (``"paper"``)
is resolved against the session's registries at execution time, so a
request built today runs against whatever the registry maps the name to
then.  Passing explicit :class:`~repro.machine.config.MachineConfig` /
:class:`~repro.workloads.spec.Benchmark` objects pins the content
instead (and fingerprints it by content).
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import ReproError
from ..ir.ddg import DataDependenceGraph, memo_get
from ..ir.loop import Loop
from ..ir.serialize import loop_to_dict
from ..machine.config import MachineConfig
from ..workloads.spec import SUITE_TIERS, Benchmark

#: A machine named symbolically (registry name or ``NxR[xB[xL]]`` spec)
#: or pinned as an explicit configuration.
MachineLike = Union[str, MachineConfig]

#: A suite named by tier (``"paper"``/``"extended"``) or pinned as an
#: explicit benchmark sequence.
SuiteLike = Union[str, Tuple[Benchmark, ...]]


class RequestError(ReproError):
    """A request was constructed with missing or conflicting fields."""


def _canonical_machine(machine: MachineLike) -> Any:
    if isinstance(machine, str):
        return machine
    return asdict(machine)


def _fingerprint(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Content digest per DDG, so fingerprinting many requests over the same
#: suite serializes each loop body once, not once per request (a 220-loop
#: extended suite costs ~100ms per full dump).  Entries are
#: ``(ddg.revision, digest)``, the rule of the ``ir.analysis`` memos, so
#: a mutated graph is re-digested.  Weak keys let a DDG and its digest
#: die with its loop only while no cached value references its key graph
#: (digests are plain strings); ``tests/test_memo_lifetime.py`` checks
#: that rule.
_DDG_DIGESTS: "weakref.WeakKeyDictionary[DataDependenceGraph, Tuple[int, str]]" = (
    weakref.WeakKeyDictionary()
)


def _canonical_loop(loop: Loop) -> Dict[str, Any]:
    """A loop's content identity: scalar fields plus a cached body digest.

    Built from the serialized form, so two independently built loops
    with equal content canonicalize equally.
    """
    digest = memo_get(_DDG_DIGESTS, loop.ddg)
    if digest is None:
        body = loop_to_dict(loop)
        digest = _fingerprint(
            {
                "operations": body["operations"],
                "dependences": body["dependences"],
            }
        )
        _DDG_DIGESTS[loop.ddg] = (loop.ddg.revision, digest)
    return {"name": loop.name, "trip_count": loop.trip_count, "body": digest}


class _RequestBase:
    """Shared construction-time checks and fingerprint plumbing."""

    def _check_common(self) -> None:
        if not isinstance(self.scheduler, str) or not self.scheduler:
            raise RequestError("scheduler must be a non-empty name")
        if not isinstance(self.machine, (str, MachineConfig)) or (
            isinstance(self.machine, str) and not self.machine
        ):
            raise RequestError(
                "machine must be a spec/preset name or a MachineConfig"
            )

    def fingerprint(self) -> str:
        """Deterministic identity of the requested work (sha256 hex).

        Stable across field order, construction site and process; the
        memoization key for :class:`~repro.service.session.ReproService`
        response caching.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["machine"] = _canonical_machine(payload["machine"])
        payload["kind"] = type(self).__name__
        return _fingerprint(self._canonicalize(payload))

    def _canonicalize(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return payload


@dataclass(frozen=True)
class ScheduleRequest(_RequestBase):
    """Schedule one loop on one machine with one algorithm.

    Exactly one of ``kernel`` (a built-in kernel name from
    :data:`repro.workloads.kernels.KERNELS`) or ``loop`` (an explicit
    :class:`~repro.ir.loop.Loop`, e.g. loaded from JSON) must be given.

    Every produced modulo schedule is validated from its raw placements
    and value ledger; ``verify`` is the paranoid switch that adds the
    engine's reference cross-checks.
    """

    machine: MachineLike
    scheduler: str = "gp"
    kernel: Optional[str] = None
    loop: Optional[Loop] = None
    verify: bool = False

    def __post_init__(self) -> None:
        self._check_common()
        if (self.kernel is None) == (self.loop is None):
            raise RequestError(
                "exactly one of 'kernel' or 'loop' must be given"
            )
        if self.kernel is not None:
            from ..workloads.kernels import KERNELS

            if self.kernel not in KERNELS:
                raise RequestError(
                    f"unknown kernel {self.kernel!r}; "
                    f"available: {', '.join(sorted(KERNELS))}"
                )
        elif not isinstance(self.loop, Loop):
            raise RequestError("'loop' must be a repro.ir.Loop")

    def resolve_loop(self) -> Loop:
        """The loop to schedule (built-in kernels built on demand)."""
        if self.loop is not None:
            return self.loop
        from ..workloads.kernels import KERNELS

        return KERNELS[self.kernel]()

    def _canonicalize(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if payload["loop"] is not None:
            payload["loop"] = _canonical_loop(payload["loop"])
        return payload


@dataclass(frozen=True)
class EvaluationRequest(_RequestBase):
    """Evaluate one scheduler over a benchmark suite on one machine.

    ``suite`` is a tier name (``"paper"``/``"extended"``) or an explicit
    benchmark sequence; ``programs`` truncates a *named* tier to its
    first N programs (the CLI's ``--programs``) and conflicts with an
    explicit suite — truncate the sequence yourself in that case.
    ``verify`` is the paranoid switch, as on :class:`ScheduleRequest`.
    """

    scheduler: str
    machine: MachineLike
    suite: SuiteLike = "paper"
    programs: int = 0
    verify: bool = False

    def __post_init__(self) -> None:
        self._check_common()
        if isinstance(self.suite, str):
            if self.suite not in SUITE_TIERS:
                raise RequestError(
                    f"unknown suite tier {self.suite!r}; "
                    f"available: {', '.join(SUITE_TIERS)}"
                )
        else:
            suite = tuple(self.suite)
            if not suite or not all(
                isinstance(b, Benchmark) for b in suite
            ):
                raise RequestError(
                    "suite must be a tier name or a non-empty sequence "
                    "of Benchmark objects"
                )
            object.__setattr__(self, "suite", suite)
            if self.programs:
                raise RequestError(
                    "conflicting knobs: 'programs' truncates a named "
                    "tier; slice the explicit suite instead"
                )
        if self.programs < 0:
            raise RequestError(f"programs must be >= 0, got {self.programs}")

    def resolve_suite(self) -> Tuple[Benchmark, ...]:
        """The benchmarks to evaluate, tier names resolved and truncated."""
        if isinstance(self.suite, str):
            from ..workloads.spec import suite_for_tier

            suite = tuple(suite_for_tier(self.suite))
            return suite[: self.programs] if self.programs else suite
        return self.suite

    def _canonicalize(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(payload["suite"], str):
            payload["suite"] = [
                {
                    "name": benchmark.name,
                    "loops": [
                        _canonical_loop(loop) for loop in benchmark.loops
                    ],
                }
                for benchmark in payload["suite"]
            ]
        return payload
