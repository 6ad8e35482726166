"""Content-addressed result stores: layout, atomicity, corruption.

The store's safety contract is that it can only ever *accelerate* a
computation, never change or break it: corrupted/truncated/non-UTF-8/
wrong-schema entries are misses (and are set aside), and partial
results are never persisted (enforced in the session, tested in
test_service).
"""

import json
import os

import pytest

from repro.errors import CodecError, StoreError
from repro.service import (
    EvaluationRequest,
    RegistryError,
    ReproService,
    dumps_response,
)
from repro.service.store import (
    DiskStore,
    MemoryStore,
    ResultStore,
    default_store_root,
    open_store,
)
from repro.workloads.kernels import daxpy, stencil5
from repro.workloads.spec import Benchmark


def mini_suite():
    return (Benchmark(name="mini", loops=(daxpy(), stencil5())),)


def _decoder(text):
    # Mirrors loads_response's contract: any malformed payload surfaces
    # as CodecError (which the store demotes to a miss).
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise CodecError(str(error)) from error
    if not isinstance(payload, dict) or "value" not in payload:
        raise CodecError("missing value")
    return payload["value"]


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
    else:
        yield DiskStore(str(tmp_path / "store"))


class TestStoreContract:
    def test_put_get_round_trip(self, store):
        store.put("a" * 64, '{"value": 1}')
        assert store.get("a" * 64) == '{"value": 1}'
        assert store.hits == 1 and store.misses == 0

    def test_missing_is_a_miss(self, store):
        assert store.get("b" * 64) is None
        assert store.misses == 1

    def test_load_decodes(self, store):
        store.put("c" * 64, '{"value": 42}')
        assert store.load("c" * 64, _decoder) == 42
        assert store.hits == 1

    def test_corrupt_entry_is_a_miss_and_dropped(self, store):
        fingerprint = "d" * 64
        store.put(fingerprint, "{truncated")
        assert store.load(fingerprint, _decoder) is None
        assert store.misses == 1 and store.hits == 0
        # The bad entry is gone: the next write replaces it cleanly.
        assert fingerprint not in store.keys()

    def test_wrong_schema_entry_is_a_miss(self, store):
        fingerprint = "e" * 64
        store.put(fingerprint, '{"other": true}')  # decodes as JSON, wrong shape
        assert store.load(fingerprint, _decoder) is None
        assert fingerprint not in store.keys()

    def test_delete_and_clear(self, store):
        for i in range(3):
            store.put(f"{i:064d}", '{"value": %d}' % i)
        store.delete(f"{0:064d}")
        assert len(store.keys()) == 2
        assert store.clear() == 2
        assert store.keys() == []

    def test_total_bytes_tracks_content(self, store):
        text = '{"value": 7}'
        store.put("f" * 64, text)
        assert store.total_bytes() == len(text.encode("utf-8"))

    def test_telemetry_snapshot(self, store):
        store.put("a" * 64, '{"value": 1}')
        store.get("a" * 64)
        store.get("b" * 64)
        snapshot = store.telemetry(hit=True)
        assert snapshot.hit is True
        assert snapshot.hits == 1 and snapshot.misses == 1
        assert snapshot.backend == store.name

    def test_stats_shape(self, store):
        stats = store.stats()
        assert set(stats) >= {
            "backend", "entries", "bytes", "hits", "misses",
            "write_errors", "quarantined",
        }


class TestDiskStoreLayout:
    def test_sharded_content_addressed_paths(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        fingerprint = "ab" + "0" * 62
        store.put(fingerprint, '{"value": 1}')
        expected = (
            tmp_path / "store" / "objects" / "ab" / (fingerprint + ".json")
        )
        assert expected.is_file()

    def test_no_temp_files_left_behind(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        for i in range(5):
            store.put(f"{i:064x}", '{"value": %d}' % i)
        leftovers = [
            name
            for _dir, _sub, names in os.walk(tmp_path)
            for name in names
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_truncated_file_on_disk_is_a_miss(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        fingerprint = "cd" + "1" * 62
        store.put(fingerprint, '{"value": 1}')
        path = tmp_path / "store" / "objects" / "cd" / (fingerprint + ".json")
        path.write_text('{"val')  # simulate a torn write / bit rot
        assert store.load(fingerprint, _decoder) is None
        assert not path.exists()

    def test_reopening_sees_entries(self, tmp_path):
        root = str(tmp_path / "store")
        DiskStore(root).put("a" * 64, '{"value": 9}')
        assert DiskStore(root).get("a" * 64) == '{"value": 9}'


class TestOpenStore:
    def test_none_passes_through(self):
        assert open_store(None) is None

    def test_instance_passes_through(self):
        store = MemoryStore()
        assert open_store(store) is store

    def test_disk_with_path(self, tmp_path):
        store = open_store(f"disk:{tmp_path}/s")
        assert isinstance(store, DiskStore)
        assert store.root == str(tmp_path / "s")

    def test_bare_path(self, tmp_path):
        store = open_store(str(tmp_path / "s"))
        assert isinstance(store, DiskStore)

    def test_default_disk_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert default_store_root() == str(tmp_path / "cache")
        store = open_store("disk")
        assert store.root == str(tmp_path / "cache")

    def test_unknown_name_structured_error(self):
        with pytest.raises(RegistryError) as excinfo:
            open_store("redis")
        error = excinfo.value
        assert error.kind == "store"
        assert error.name == "redis"
        assert "disk" in error.alternatives
        assert isinstance(error, KeyError)

    def test_non_string_spec_rejected(self):
        with pytest.raises(StoreError):
            open_store(123)


class TestCrashSafetyAndSharing:
    """Hardening: fsync durability, full-disk degradation and quarantine
    for corrupt entries."""

    def test_fsync_round_trip(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"), fsync=True)
        store.put("a" * 64, '{"value": 1}')
        assert store.get("a" * 64) == '{"value": 1}'
        assert store.fsync is True

    def test_open_store_passes_fsync(self, tmp_path):
        store = open_store(f"disk:{tmp_path}/s", fsync=True)
        assert store.fsync is True
        assert open_store(f"disk:{tmp_path}/s").fsync is False

    def test_write_error_degrades_to_miss_and_warns_once(
        self, tmp_path, monkeypatch
    ):
        import errno
        import warnings as warnings_module

        store = DiskStore(str(tmp_path / "store"))

        def full_disk(_fingerprint, _text):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store, "_write", full_disk)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            store.put("a" * 64, '{"value": 1}')  # must not raise
            store.put("b" * 64, '{"value": 2}')
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1  # warn once, not per write
        assert "without caching" in str(runtime[0].message)
        assert store.write_errors == 2
        assert store.get("a" * 64) is None  # a failed put is a miss
        assert store.stats()["write_errors"] == 2
        # Recovery: with the disk back, writes persist again.
        monkeypatch.undo()
        store.put("c" * 64, '{"value": 3}')
        assert store.get("c" * 64) == '{"value": 3}'

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        fingerprint = "ab" + "2" * 62
        store.put(fingerprint, '{"value": 1}')
        path = (
            tmp_path / "store" / "objects" / "ab" / (fingerprint + ".json")
        )
        path.write_text("{torn write")
        assert store.load(fingerprint, _decoder) is None
        assert store.quarantined == 1
        assert store.misses == 1
        assert not path.exists()
        quarantined = (
            tmp_path / "store" / "quarantine" / (fingerprint + ".json")
        )
        assert quarantined.is_file()  # kept for post-mortem …
        assert quarantined.read_text() == "{torn write"
        assert fingerprint not in store.keys()  # … but out of the store
        # The quarantine directory never pollutes the entry scan or the
        # byte count.
        assert store.total_bytes() == 0

    def test_non_utf8_entry_is_quarantined_as_a_miss(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        fingerprint = "ef" + "3" * 62
        store.put(fingerprint, '{"value": 1}')
        path = tmp_path / "store" / "objects" / "ef" / (fingerprint + ".json")
        path.write_bytes(b"\xff\xfe{not text")
        with pytest.raises(CodecError):
            store.get(fingerprint)  # raw reads name the damage
        assert store.load(fingerprint, _decoder) is None  # ... loads miss
        assert store.quarantined == 1
        assert store.misses == 1 and store.hits == 0
        assert not path.exists()
        assert (tmp_path / "store" / "quarantine" / (fingerprint + ".json")).is_file()
        # The recompute's write lands cleanly.
        store.put(fingerprint, '{"value": 2}')
        assert store.load(fingerprint, _decoder) == 2

    def test_memory_store_quarantine_just_drops(self):
        store = MemoryStore()
        store.put("a" * 64, "{bad")
        assert store.load("a" * 64, _decoder) is None
        assert store.quarantined == 1
        assert store.keys() == []

class TestStoreHoldsRealResponses:
    def test_cross_session_replay_is_export_identical(self, tmp_path):
        from repro.eval.export import suite_result_to_json

        store = DiskStore(str(tmp_path / "store"))
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(jobs=1, store=store) as first:
            computed = first.evaluate(request)
        assert computed.meta.store is not None
        assert computed.meta.store.hit is False
        with ReproService(jobs=1, store=store) as second:
            replayed = second.evaluate(request)
        assert replayed.meta.cache_hit is True
        assert replayed.meta.store.hit is True
        assert suite_result_to_json(replayed.result) == suite_result_to_json(
            computed.result
        )

    def test_stored_text_is_canonical(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(jobs=1, store=store) as service:
            response = service.evaluate(request)
        text = store.get(request.fingerprint())
        assert text == dumps_response(response)
