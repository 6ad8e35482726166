"""Content-addressed result stores keyed by request ``fingerprint()``.

A :class:`ResultStore` maps a request's deterministic sha256 fingerprint
to the canonical encoded text of its response (see
:mod:`repro.service.codec`).  Two implementations:

* :class:`MemoryStore` — a plain in-process dict over encoded text, for
  tests and for composing store semantics without touching disk;
* :class:`DiskStore` — sharded content-addressed files
  (``objects/<fp[:2]>/<fp>.json``) with **atomic** writes (temp file +
  ``os.replace`` in the same directory, so readers never observe a
  half-written entry).

Both stores obey the same safety contract, enforced in :meth:`load`:
a corrupted, truncated, non-UTF-8 or wrong-schema entry is **a miss,
never an error** — the :class:`~repro.errors.CodecError` raised while
reading or decoding it quarantines the entry and the caller
recomputes.  The same degrade-don't-raise
discipline covers writes: a full or read-only filesystem (ENOSPC,
EROFS, permissions) turns :meth:`put` into a warn-once no-op, because a
store must never break a computation it was only meant to accelerate.
Stores count ``hits`` / ``misses`` (plus
``write_errors`` and ``quarantined`` in :meth:`stats`); the service
session surfaces a :class:`StoreTelemetry` snapshot on every
:class:`~repro.service.responses.ResponseMeta` so callers can see
whether the content-addressed layer served them.

:class:`DiskStore` is safe to share between processes: writes are
atomic, ``fsync=True`` makes them crash-durable, and corrupted entries
move to a ``quarantine/`` directory for post-mortem instead of
vanishing.  Nothing is ever evicted: entries stay until ``repro cache
clear`` (or :meth:`ResultStore.clear`) removes them.

:func:`open_store` resolves a store *spec* string (``disk``,
``disk:PATH``, or a bare path) — unknown names raise the registries'
structured :class:`~repro.service.registry.RegistryError` with the
alternatives listed, the same contract as scheduler/machine lookups.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import CodecError, StoreError

#: Store spec names :func:`open_store` accepts (besides bare paths).
STORE_NAMES = ("disk",)


@dataclass(frozen=True)
class StoreTelemetry:
    """Store counters surfaced on ``ResponseMeta`` (one per response).

    ``hit`` is whether *this* response was served from the store;
    ``hits``/``misses`` are the store object's counters at response
    time.
    """

    backend: str
    hit: bool
    hits: int
    misses: int


class ResultStore:
    """Protocol + shared machinery for content-addressed result stores.

    Subclasses implement the raw text operations (``_read`` / ``_write``
    / ``_delete`` / ``keys`` / entry sizes); this base owns the counters
    and the corruption-is-a-miss :meth:`load` contract.
    """

    #: Backend name reported in telemetry and ``repro cache`` output.
    name = "store"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        self.quarantined = 0
        self._warned_write_error = False

    # -- raw operations (subclass responsibility) ----------------------
    def _read(self, fingerprint: str) -> Optional[str]:
        """Entry text, ``None`` if absent; :class:`CodecError` if unreadable
        as text."""
        raise NotImplementedError

    def _write(self, fingerprint: str, text: str) -> None:
        raise NotImplementedError

    def _delete(self, fingerprint: str) -> None:
        raise NotImplementedError

    def _quarantine(self, fingerprint: str) -> None:
        """Set a corrupted entry aside (default: just delete it).

        :class:`DiskStore` overrides this to move the file into the
        store's ``quarantine/`` directory so bit rot and torn writes can
        be examined post-mortem instead of silently vanishing.
        """
        self._delete(fingerprint)

    def keys(self) -> List[str]:
        """Every stored fingerprint (no particular order)."""
        raise NotImplementedError

    def total_bytes(self) -> int:
        """Encoded bytes currently stored."""
        raise NotImplementedError

    # -- the service-facing contract ------------------------------------
    def get(self, fingerprint: str) -> Optional[str]:
        """Raw entry text, counting a hit or miss (None = miss).

        Raises :class:`CodecError` for an entry that is not UTF-8 text
        (``repro cache verify`` reports it as corrupt).
        """
        text = self._read(fingerprint)
        if text is None:
            self.misses += 1
            return None
        self.hits += 1
        return text

    def load(self, fingerprint: str, decoder: Callable[[str], object]):
        """Decode one entry; **corruption is a miss, never an error**.

        A present entry that is not UTF-8 text or that ``decoder``
        rejects (truncated file, stale schema, bit rot) is quarantined,
        demoted to a miss, and ``None`` is returned — the caller
        recomputes and overwrites.
        """
        try:
            text = self._read(fingerprint)
            value = None if text is None else decoder(text)
        except CodecError:
            self._quarantine(fingerprint)
            self.quarantined += 1
            self.misses += 1
            return None
        if text is None:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, fingerprint: str, text: str) -> None:
        """Store one entry atomically.

        A write the filesystem rejects (ENOSPC, EROFS, permissions) is
        **degraded to a warn-once no-op**: the entry is simply not
        cached and the serving path carries on.  The count shows up as
        ``write_errors`` in :meth:`stats`.
        """
        try:
            self._write(fingerprint, text)
        except OSError as error:
            self.write_errors += 1
            if not self._warned_write_error:
                self._warned_write_error = True
                warnings.warn(
                    f"{self.name} store cannot persist results "
                    f"({error}); continuing without caching new entries",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def delete(self, fingerprint: str) -> None:
        self._delete(fingerprint)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for fingerprint in self.keys():
            self._delete(fingerprint)
            removed += 1
        return removed

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "entries": len(self.keys()),
            "bytes": self.total_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "write_errors": self.write_errors,
            "quarantined": self.quarantined,
        }

    def telemetry(self, hit: bool) -> StoreTelemetry:
        """The :class:`StoreTelemetry` snapshot for one response."""
        return StoreTelemetry(
            backend=self.name,
            hit=hit,
            hits=self.hits,
            misses=self.misses,
        )

    def close(self) -> None:
        """Release resources (no-op for both built-in backends)."""


class MemoryStore(ResultStore):
    """In-process store over encoded text: a plain dict."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[str, str] = {}

    def _read(self, fingerprint: str) -> Optional[str]:
        return self._entries.get(fingerprint)

    def _write(self, fingerprint: str, text: str) -> None:
        self._entries[fingerprint] = text

    def _delete(self, fingerprint: str) -> None:
        self._entries.pop(fingerprint, None)

    def keys(self) -> List[str]:
        return list(self._entries)

    def total_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self._entries.values())


class DiskStore(ResultStore):
    """Sharded content-addressed files with atomic writes.

    Layout: ``<root>/objects/<fingerprint[:2]>/<fingerprint>.json`` —
    256 shards keep per-directory entry counts sane at fleet scale.
    Writes go to a temp file in the target shard and land via
    ``os.replace``, so concurrent readers (other processes sharing the root)
    either see the old complete entry or the new complete entry, never a
    torn one.  With ``fsync=True`` the temp file and its shard directory
    are synced around the replace, upgrading atomic to **crash-durable**
    (a power loss after :meth:`put` returns cannot lose or tear the
    entry) at the cost of two fsyncs per write.  Entries the reader or
    decoder rejects move to ``<root>/quarantine/`` rather than being
    deleted.
    """

    name = "disk"

    _SUFFIX = ".json"

    def __init__(self, root: str, fsync: bool = False) -> None:
        super().__init__()
        self.root = os.path.abspath(root)
        self.fsync = fsync
        self._objects = os.path.join(self.root, "objects")
        try:
            os.makedirs(self._objects, exist_ok=True)
        except OSError as error:
            raise StoreError(f"cannot create store at {self.root}: {error}") from error

    def _path(self, fingerprint: str) -> str:
        shard = fingerprint[:2] if len(fingerprint) >= 2 else "xx"
        return os.path.join(self._objects, shard, fingerprint + self._SUFFIX)

    def _read(self, fingerprint: str) -> Optional[str]:
        try:
            with open(self._path(fingerprint), "rb") as handle:
                data = handle.read()
        except OSError:
            # Absent or unreadable (permissions, I/O error): a miss, not
            # an error — the caller recomputes.
            return None
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"entry is not UTF-8 text: {error}") from error

    def _write(self, fingerprint: str, text: str) -> None:
        path = self._path(fingerprint)
        shard_dir = os.path.dirname(path)
        os.makedirs(shard_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=self._SUFFIX, dir=shard_dir
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp_path, path)
            if self.fsync:
                self._fsync_dir(shard_dir)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @staticmethod
    def _fsync_dir(path: str) -> None:
        """Make a rename durable by syncing its containing directory."""
        try:
            dir_fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    def _delete(self, fingerprint: str) -> None:
        try:
            os.unlink(self._path(fingerprint))
        except OSError:
            pass

    def _quarantine(self, fingerprint: str) -> None:
        """Move a corrupted entry to ``<root>/quarantine/`` for post-mortem.

        The move is an ``os.replace`` (atomic on the same filesystem);
        if the quarantine directory cannot be created or the move fails,
        fall back to deletion so the corrupt entry never keeps serving
        misses.
        """
        path = self._path(fingerprint)
        quarantine_dir = os.path.join(self.root, "quarantine")
        try:
            os.makedirs(quarantine_dir, exist_ok=True)
            os.replace(
                path, os.path.join(quarantine_dir, fingerprint + self._SUFFIX)
            )
        except OSError:
            self._delete(fingerprint)

    def _entries(self) -> Iterator[Tuple[str, os.stat_result]]:
        try:
            shards = sorted(os.listdir(self._objects))
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(self._objects, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(self._SUFFIX) or name.startswith("."):
                    continue
                try:
                    stat = os.stat(os.path.join(shard_dir, name))
                except OSError:
                    continue
                yield name[: -len(self._SUFFIX)], stat

    def keys(self) -> List[str]:
        return [fingerprint for fingerprint, _stat in self._entries()]

    def total_bytes(self) -> int:
        return sum(stat.st_size for _fingerprint, stat in self._entries())


def default_store_root() -> str:
    """Where ``disk`` (no path) puts the store.

    ``$REPRO_CACHE_DIR`` wins; otherwise the XDG cache home
    (``~/.cache/repro/store``).
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro", "store")


def open_store(
    spec: Optional[object], fsync: bool = False
) -> Optional[ResultStore]:
    """Resolve a store spec to a :class:`ResultStore` (None passes through).

    Accepted specs: an existing :class:`ResultStore` instance, ``"disk"``
    (the default root), ``"disk:PATH"``, or a bare filesystem path
    (anything containing a separator, or ``.``/``..``/``~``-relative);
    ``~`` expands in both path forms.  Unknown names raise the structured
    :class:`~repro.service.registry.RegistryError` (kind ``"store"``)
    with the alternatives listed.
    """
    if spec is None or isinstance(spec, ResultStore):
        return spec
    if not isinstance(spec, str) or not spec:
        raise StoreError(f"store spec must be a name or path, got {spec!r}")
    if spec == "disk":
        return DiskStore(default_store_root(), fsync=fsync)
    if spec.startswith("disk:"):
        return DiskStore(os.path.expanduser(spec[len("disk:"):]), fsync=fsync)
    if os.sep in spec or spec.startswith((".", "~")):
        return DiskStore(os.path.expanduser(spec), fsync=fsync)
    from .registry import RegistryError

    raise RegistryError(
        "store", spec, list(STORE_NAMES) + ["disk:PATH", "a filesystem path"]
    )
