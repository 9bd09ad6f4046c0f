"""Tests for the persistent on-disk stage-artifact store."""

from __future__ import annotations

import gc
import hashlib
import pickle
import sys
import threading
from pathlib import Path

from repro.experiments.artifact_cache import (
    CACHE_VERSION,
    StageCache,
    cache_enabled,
    default_cache_dir,
)

#: A stage key has the shape of the pipeline's sha256 hex digests.
KEY = hashlib.sha256(b"s27/simulation").hexdigest()


class TestEnvironment:
    def test_cache_enabled_default_and_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOW_CACHE", raising=False)
        assert cache_enabled()
        for off in ("0", "off", "no"):
            monkeypatch.setenv("REPRO_FLOW_CACHE", off)
            assert not cache_enabled()
        monkeypatch.setenv("REPRO_FLOW_CACHE", "1")
        assert cache_enabled()

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir() == Path(
            default_cache_dir()).resolve()  # repo-root default is absolute


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = StageCache(tmp_path)
        assert cache.load(KEY) is None
        cache.store(KEY, {"rows": [1, 2, 3]})
        assert cache.load(KEY) == {"rows": [1, 2, 3]}

    def test_entries_are_sharded_by_prefix(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store(KEY, "payload")
        assert (cache.root / KEY[:2] / f"{KEY}.pkl").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store(KEY, "payload")
        (cache.root / KEY[:2] / f"{KEY}.pkl").write_bytes(b"\x80garbage")
        assert cache.load(KEY) is None

    def test_load_restores_the_collector(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store(KEY, list(range(100)))
        other = hashlib.sha256(b"other").hexdigest()
        cache.store(other, "payload")
        (cache.root / other[:2] / f"{other}.pkl").write_bytes(b"\x80garbage")
        missing = hashlib.sha256(b"missing").hexdigest()
        assert gc.isenabled()
        assert cache.load(KEY) == list(range(100))
        assert gc.isenabled()
        assert cache.load(other) is None
        assert gc.isenabled()
        assert cache.load(missing) is None
        assert gc.isenabled()
        # A caller that turned the collector off keeps it off.
        gc.disable()
        try:
            assert cache.load(KEY) == list(range(100))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_concurrent_loads_leave_the_collector_on(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store(KEY, list(range(1000)))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda: [cache.load(KEY) for _ in range(200)])
                for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(switch)
        assert gc.isenabled()

    def test_store_is_best_effort(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cache = StageCache(target / "sub")  # mkdir will fail
        cache.store(KEY, "payload")  # must not raise
        assert cache.load(KEY) is None

    def test_no_stray_tmp_files_after_store(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store(KEY, list(range(100)))
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []


class TestStageCache:
    def test_namespaced_by_global_version(self, tmp_path):
        cache = StageCache(tmp_path)
        assert cache.root == tmp_path / f"v{CACHE_VERSION}"
        cache.store(KEY, "artifact")
        assert (tmp_path / f"v{CACHE_VERSION}" / KEY[:2]
                / f"{KEY}.pkl").exists()
        assert cache.load(KEY) == "artifact"

    def test_version_bump_orphans_old_entries(self, tmp_path):
        stale = tmp_path / "v0" / KEY[:2] / f"{KEY}.pkl"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(pickle.dumps("stale"))
        assert StageCache(tmp_path).load(KEY) is None

    def test_default_root_follows_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert StageCache().root == tmp_path / "env" / f"v{CACHE_VERSION}"
