"""Persistent on-disk store for per-stage pipeline artifacts.

Repeated table/figure/benchmark drivers replay the same (circuit, scale,
config) flows; the in-process cache of :mod:`repro.experiments.runner` only
helps within one interpreter.  This module persists pipeline artifacts to
disk at **stage** granularity: the :class:`~repro.core.pipeline.Pipeline`
keys every stage by a Merkle-style content hash of

* the circuit content hash,
* the stage's semantic config fields — worker-count knobs
  (``simulation_jobs`` / ``schedule_jobs``) are deliberately excluded,
  results are bit-identical for any job count,
* the keys of its upstream stages, and
* the stage's own ``CACHE_VERSION``,

so editing, say, a scheduling knob reuses the cached STA/faults/ATPG/
detection artifacts and only re-optimizes schedules, and a killed run
resumes from its last completed stage.  The legacy whole-``FlowResult``
cache survives as a thin wrapper: a flow is fully cached exactly when all
of its stage artifacts are present
(:meth:`repro.core.flow.HdfTestFlow.cached_result`).

Environment knobs:

* ``REPRO_FLOW_CACHE=0`` disables the disk cache entirely (in-memory
  caching is unaffected);
* ``REPRO_CACHE_DIR`` overrides the cache directory (default:
  ``<repo root>/.repro_cache``).

Writes are atomic (temp file + ``os.replace``) so concurrent workers of the
parallel suite runner can share one directory safely; loads tolerate
corrupt/truncated entries by treating them as misses.  Entries are
pickles, so the store must live in a local, user-owned directory: loading
an entry runs whatever code its bytes name.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

#: Global salt over every stage entry — bump on cross-cutting semantic
#: changes (per-stage changes should bump the stage's own CACHE_VERSION).
CACHE_VERSION = 2


def cache_enabled() -> bool:
    """Disk cache toggle (``REPRO_FLOW_CACHE``, default on)."""
    return os.environ.get("REPRO_FLOW_CACHE", "1") not in ("0", "off", "no")


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # src/repro/experiments/artifact_cache.py -> repo root is 3 levels up
    # from the package directory.
    return Path(__file__).resolve().parents[3] / ".repro_cache"


class StageCache:
    """The per-stage content-addressed store the pipeline plugs into.

    One pickle per entry, written atomically.  Entries live under a
    ``v<CACHE_VERSION>`` namespace of the cache directory, so bumping the
    global salt orphans (rather than corrupts) every pre-existing entry.
    Keys are the pipeline's Merkle-style stage hashes
    (:meth:`repro.core.pipeline.Pipeline.stage_keys`).
    """

    def __init__(self, root: Path | str | None = None) -> None:
        base = Path(root) if root is not None else default_cache_dir()
        self.root = base / f"v{CACHE_VERSION}"

    def _path(self, key: str) -> Path:
        return self.root / f"{key[:2]}" / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        """Cheap presence probe (one ``stat``, no deserialization).

        The sharded suite runner uses this for ready-checks; entries are
        written atomically, so a visible path is always a complete pickle
        (which may still fail :meth:`load` if written by foreign code).
        """
        return self._path(key).exists()

    def delete(self, key: str) -> None:
        """Drop the entry if present (used by forced recomputes)."""
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def load(self, key: str) -> Any | None:
        """Return the stored object, or None on miss/corruption.

        A corrupt pickle can raise nearly any exception type (a flipped
        length byte gives ``OverflowError`` or ``MemoryError``, a flipped
        opcode ``TypeError``), so every ``Exception`` counts as a miss.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception:
            return None

    def store(self, key: str, obj: Any) -> None:
        """Atomically persist ``obj`` under ``key`` (best effort)."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent,
                                       prefix=path.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # Read-only filesystems / quota: caching is an optimization,
            # never a hard failure.
            pass
