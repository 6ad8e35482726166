"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the broad failure classes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Malformed data dependence graph (unknown node, duplicate edge, ...)."""


class ConfigError(ReproError):
    """Invalid machine configuration (zero clusters, negative latency, ...)."""


class PartitionError(ReproError):
    """Partitioning failed or produced an inconsistent assignment."""


class SchedulingError(ReproError):
    """Modulo scheduling failed for every initiation interval tried."""


class ValidationError(ReproError):
    """An allegedly complete schedule violates a dependence or resource bound."""


class CodecError(ReproError):
    """An encoded request/response payload could not be decoded.

    Raised by :mod:`repro.service.codec` on malformed, truncated or
    wrong-schema payloads.  The result store deliberately converts this
    into a cache *miss* (and drops the entry) rather than letting it
    propagate — a corrupted store must never break a computation it was
    only meant to accelerate.
    """


class StaleSchemaError(CodecError):
    """An intact payload tagged with another codec schema.

    Raised by :mod:`repro.service.codec` when a payload's ``schema`` is
    a string other than this build's ``CODEC_SCHEMA`` (an entry written
    before a schema bump).  ``repro cache verify`` reports such store
    entries as stale, not corrupt.
    """


class StoreError(ReproError):
    """A result store was misconfigured (bad path, non-positive budget)."""


class LoopTaskError(ReproError):
    """Scheduling one loop failed: the scheduler or the validator raised,
    or the worker process running it died.

    Names the benchmark, loop and scheduler; ``cause`` is the original
    exception.  Raised the same way by the sequential and the pooled
    runner.
    """

    def __init__(
        self, benchmark: str, loop_name: str, scheduler: str, cause: BaseException
    ) -> None:
        self.benchmark = benchmark
        self.loop_name = loop_name
        self.scheduler = scheduler
        self.cause = cause
        super().__init__(
            f"scheduling loop {loop_name!r} of benchmark {benchmark!r} "
            f"with {scheduler!r} failed: {type(cause).__name__}: {cause}"
        )

    def __reduce__(self):
        # Raised inside pool workers: rebuild from the four fields, not
        # from the formatted message in ``args``.
        return (
            type(self),
            (self.benchmark, self.loop_name, self.scheduler, self.cause),
        )
