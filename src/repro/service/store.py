"""Content-addressed result stores keyed by request ``fingerprint()``.

A :class:`ResultStore` maps a request's deterministic sha256 fingerprint
to the canonical encoded text of its response (see
:mod:`repro.service.codec`).  Two implementations:

* :class:`MemoryStore` — an in-process LRU over encoded text, for tests
  and for composing store semantics without touching disk;
* :class:`DiskStore` — sharded content-addressed files
  (``objects/<fp[:2]>/<fp>.json``) with **atomic** writes (temp file +
  ``os.replace`` in the same directory, so readers never observe a
  half-written entry) and **LRU eviction by size budget** (access time
  bumped on every hit; least-recently-used entries evicted when the
  byte budget is exceeded).

Both stores obey the same safety contract, enforced in :meth:`load`:
a corrupted, truncated or wrong-schema entry is **a miss, never an
error** — the decoder's :class:`~repro.errors.CodecError` quarantines
the entry and the caller recomputes.  The same degrade-don't-raise
discipline covers writes: a full or read-only filesystem (ENOSPC,
EROFS, permissions) turns :meth:`put` into a warn-once no-op, because a
store must never break a computation it was only meant to accelerate.
Stores count ``hits`` / ``misses`` / ``evictions`` (plus
``write_errors`` and ``quarantined`` in :meth:`stats`); the service
session surfaces a :class:`StoreTelemetry` snapshot on every
:class:`~repro.service.responses.ResponseMeta` so callers can see
whether the content-addressed layer served them.

:class:`DiskStore` is safe to share between processes: writes are
atomic, ``fsync=True`` makes them crash-durable, corrupted entries move
to a ``quarantine/`` directory for post-mortem instead of vanishing,
and LRU eviction takes a cross-process file lock so two processes
sharing one store root cannot race each other deleting entries.

:func:`open_store` resolves a store *spec* string (``memory``, ``disk``,
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

try:  # POSIX only; eviction locking degrades to best-effort without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..errors import CodecError, StoreError

#: Store spec names :func:`open_store` accepts (besides bare paths).
STORE_NAMES = ("memory", "disk")


@dataclass(frozen=True)
class StoreTelemetry:
    """Store counters surfaced on ``ResponseMeta`` (one per response).

    ``hit`` is whether *this* response was served from the store;
    ``hits``/``misses``/``evictions`` are the store's counters at
    response time (session-lifetime for a memory store, process-lifetime
    for a disk store object).
    """

    backend: str
    hit: bool
    hits: int
    misses: int
    evictions: int


class ResultStore:
    """Protocol + shared machinery for content-addressed result stores.

    Subclasses implement the raw text operations (``_read`` / ``_write``
    / ``_delete`` / ``keys`` / entry sizes); this base owns the counters
    and the corruption-is-a-miss :meth:`load` contract.
    """

    #: Backend name reported in telemetry and ``repro cache`` output.
    name = "store"

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise StoreError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_errors = 0
        self.quarantined = 0
        self._warned_write_error = False

    # -- raw operations (subclass responsibility) ----------------------
    def _read(self, fingerprint: str) -> Optional[str]:
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

    def _lru_order(self) -> List[str]:
        """Fingerprints least-recently-used first (eviction order)."""
        raise NotImplementedError

    # -- the service-facing contract ------------------------------------
    def get(self, fingerprint: str) -> Optional[str]:
        """Raw entry text, counting a hit or miss (None = miss)."""
        text = self._read(fingerprint)
        if text is None:
            self.misses += 1
            return None
        self.hits += 1
        return text

    def load(self, fingerprint: str, decoder: Callable[[str], object]):
        """Decode one entry; **corruption is a miss, never an error**.

        A present entry that ``decoder`` rejects (truncated file, stale
        schema, bit rot) is quarantined, demoted to a miss, and ``None``
        is returned — the caller recomputes and overwrites.
        """
        text = self._read(fingerprint)
        if text is None:
            self.misses += 1
            return None
        try:
            value = decoder(text)
        except CodecError:
            self._quarantine(fingerprint)
            self.quarantined += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, fingerprint: str, text: str) -> None:
        """Store one entry atomically, then enforce the size budget.

        The entry just written is the most recently used, so eviction
        removes it last — unless it alone exceeds the whole budget, in
        which case it is evicted too (the store is too small for it).

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
            return
        self._evict_to_budget()

    def delete(self, fingerprint: str) -> None:
        self._delete(fingerprint)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for fingerprint in self.keys():
            self._delete(fingerprint)
            removed += 1
        return removed

    def _acquire_eviction_lock(self) -> object:
        """Claim the right to evict; ``False`` means another holder won.

        The base store is process-private, so eviction is always ours to
        do.  :class:`DiskStore` overrides this with a cross-process file
        lock so two processes sharing one store root cannot race each
        other's LRU deletes.
        """
        return None

    def _release_eviction_lock(self, token: object) -> None:
        """Release whatever :meth:`_acquire_eviction_lock` returned."""

    def _evict_to_budget(self) -> None:
        if self.max_bytes is None:
            return
        token = self._acquire_eviction_lock()
        if token is False:
            # Another process is evicting this store right now; it will
            # bring the size under budget — doubling up would just race
            # deletes against each other.
            return
        try:
            while self.total_bytes() > self.max_bytes:
                order = self._lru_order()
                if not order:
                    return
                self._delete(order[0])
                self.evictions += 1
        finally:
            self._release_eviction_lock(token)

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "entries": len(self.keys()),
            "bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
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
            evictions=self.evictions,
        )

    def close(self) -> None:
        """Release resources (no-op for both built-in backends)."""


class MemoryStore(ResultStore):
    """In-process LRU store over encoded text."""

    name = "memory"

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        super().__init__(max_bytes)
        # Insertion order doubles as recency order: entries move to the
        # end on every read and write.
        self._entries: Dict[str, str] = {}

    def _read(self, fingerprint: str) -> Optional[str]:
        text = self._entries.get(fingerprint)
        if text is not None:
            self._entries.pop(fingerprint)
            self._entries[fingerprint] = text
        return text

    def _write(self, fingerprint: str, text: str) -> None:
        self._entries.pop(fingerprint, None)
        self._entries[fingerprint] = text

    def _delete(self, fingerprint: str) -> None:
        self._entries.pop(fingerprint, None)

    def keys(self) -> List[str]:
        return list(self._entries)

    def total_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self._entries.values())

    def _lru_order(self) -> List[str]:
        return list(self._entries)


class DiskStore(ResultStore):
    """Sharded content-addressed files with atomic writes and LRU eviction.

    Layout: ``<root>/objects/<fingerprint[:2]>/<fingerprint>.json`` —
    256 shards keep per-directory entry counts sane at fleet scale.
    Writes go to a temp file in the target shard and land via
    ``os.replace``, so concurrent readers (other processes sharing the root)
    either see the old complete entry or the new complete entry, never a
    torn one.  With ``fsync=True`` the temp file and its shard directory
    are synced around the replace, upgrading atomic to **crash-durable**
    (a power loss after :meth:`put` returns cannot lose or tear the
    entry) at the cost of two fsyncs per write.  Reads bump the entry's
    access time (``os.utime``), which is the LRU clock eviction sorts
    by.  Eviction serializes across processes via ``flock`` on
    ``<root>/eviction.lock``; entries the decoder rejects move to
    ``<root>/quarantine/`` rather than being deleted.
    """

    name = "disk"

    _SUFFIX = ".json"

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        fsync: bool = False,
    ) -> None:
        super().__init__(max_bytes)
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
        path = self._path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError:
            # Unreadable entry (permissions, I/O error): a miss, not an
            # error — the caller recomputes.
            return None
        try:
            os.utime(path)  # bump the LRU clock
        except OSError:
            pass
        return text

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

    def _acquire_eviction_lock(self) -> object:
        if fcntl is None:
            return None  # best-effort on platforms without flock
        try:
            fd = os.open(
                os.path.join(self.root, "eviction.lock"),
                os.O_CREAT | os.O_RDWR,
                0o644,
            )
        except OSError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False  # another process holds the eviction lock
        return fd

    def _release_eviction_lock(self, token: object) -> None:
        if isinstance(token, int):
            try:
                fcntl.flock(token, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(token)

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

    def _lru_order(self) -> List[str]:
        entries = list(self._entries())
        entries.sort(key=lambda item: (item[1].st_atime, item[1].st_mtime, item[0]))
        return [fingerprint for fingerprint, _stat in entries]


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
    spec: Optional[object],
    max_bytes: Optional[int] = None,
    fsync: bool = False,
) -> Optional[ResultStore]:
    """Resolve a store spec to a :class:`ResultStore` (None passes through).

    Accepted specs: an existing :class:`ResultStore` instance,
    ``"memory"``, ``"disk"`` (the default root), ``"disk:PATH"``, or a
    bare filesystem path (anything containing a separator, or ``.``/
    ``..``-relative).  ``fsync`` applies to disk-backed stores only.
    Unknown names raise the structured
    :class:`~repro.service.registry.RegistryError` (kind ``"store"``)
    with the alternatives listed.
    """
    if spec is None or isinstance(spec, ResultStore):
        return spec
    if not isinstance(spec, str) or not spec:
        raise StoreError(f"store spec must be a name or path, got {spec!r}")
    if spec == "memory":
        return MemoryStore(max_bytes=max_bytes)
    if spec == "disk":
        return DiskStore(default_store_root(), max_bytes=max_bytes, fsync=fsync)
    if spec.startswith("disk:"):
        return DiskStore(spec[len("disk:"):], max_bytes=max_bytes, fsync=fsync)
    if os.sep in spec or spec.startswith((".", "~")):
        return DiskStore(os.path.expanduser(spec), max_bytes=max_bytes, fsync=fsync)
    from .registry import RegistryError

    raise RegistryError(
        "store", spec, list(STORE_NAMES) + ["disk:PATH", "a filesystem path"]
    )
