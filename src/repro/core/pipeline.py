"""Staged execution of the Fig. 4 flow with per-stage artifact reuse.

:class:`Pipeline` runs the registered :class:`~repro.core.stages.Stage`
objects in topological order.  When given a cache (any object with
``load(key) -> obj | None`` and ``store(key, obj)`` — see
:class:`repro.experiments.artifact_cache.StageCache`), every stage is
keyed by a Merkle-style content hash::

    key(stage) = sha256(stage name, stage CACHE_VERSION,
                        circuit content hash,
                        stage semantic config fields,
                        {dep: key(dep) for dep in stage.deps})

so a key changes exactly when the stage itself, its configuration, the
circuit, or anything upstream changes.  Editing a scheduling knob
therefore reuses the cached STA/faults/ATPG/detection artifacts and only
re-optimizes schedules; a partially-completed flow resumes from its last
finished stage.

Observability: ``run`` returns a ``meta`` dict with per-stage wall clock
and cache hit/miss status; the flow surfaces it as ``FlowResult.meta``
and ``repro bench`` aggregates the counters across a suite replay.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Iterable, Protocol

from repro.core.stages import DEFAULT_STAGES, Stage, StageContext


class StageStore(Protocol):
    """Minimal cache interface the pipeline consumes."""

    def load(self, key: str) -> Any | None: ...  # pragma: no cover

    def store(self, key: str, obj: Any) -> None: ...  # pragma: no cover


class Pipeline:
    """An ordered DAG of flow stages."""

    def __init__(self, stages: Iterable[Stage] = DEFAULT_STAGES) -> None:
        self._stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise ValueError(f"duplicate stage {stage.name!r}")
            missing = [d for d in stage.deps if d not in self._stages]
            if missing:
                raise ValueError(
                    f"stage {stage.name!r} depends on unregistered/later "
                    f"stage(s) {missing} — stages must be topologically "
                    f"ordered")
            self._stages[stage.name] = stage

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stages(self) -> tuple[str, ...]:
        """Registered stage names in execution order."""
        return tuple(self._stages)

    def get(self, name: str) -> Stage:
        self._require(name)
        return self._stages[name]

    def _require(self, name: str) -> None:
        if name not in self._stages:
            known = ", ".join(self._stages)
            raise ValueError(f"unknown stage {name!r} "
                             f"(registered stages: {known})")

    def descendants(self, names: Iterable[str]) -> set[str]:
        """``names`` plus every stage downstream of them (validated)."""
        seeds = set(names)
        for name in seeds:
            self._require(name)
        out = set(seeds)
        for name, stage in self._stages.items():  # topological order
            if any(d in out for d in stage.deps):
                out.add(name)
        return out

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def stage_keys(self, ctx: StageContext) -> dict[str, str]:
        """Merkle-style content key per stage for this context."""
        circuit_hash = ctx.circuit.content_hash()
        keys: dict[str, str] = {}
        for name, stage in self._stages.items():
            payload = {
                "stage": name,
                "version": stage.CACHE_VERSION,
                "circuit": circuit_hash,
                "config": stage.config_key(ctx),
                "deps": {d: keys[d] for d in stage.deps},
            }
            blob = json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))
            keys[name] = hashlib.sha256(blob.encode()).hexdigest()
        return keys

    def unit_descriptors(self, ctx: StageContext) -> tuple[
            tuple[str, str, tuple[tuple[str, str], ...]], ...]:
        """Serializable ``(stage, key, ((dep, dep_key), ...))`` descriptors.

        One per registered stage, in topological order — the work-unit
        decomposition the sharded suite runner
        (:mod:`repro.experiments.shard`) schedules over a shared stage
        store: a unit is ready exactly when every ``dep_key`` artifact is
        present, and complete when its own ``key`` is.
        """
        keys = self.stage_keys(ctx)
        return tuple(
            (name, keys[name],
             tuple((d, keys[d]) for d in stage.deps))
            for name, stage in self._stages.items())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, ctx: StageContext, *, cache: StageStore | None = None,
            recompute_from: Iterable[str] = (),
            ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Execute all stages; returns ``(artifacts, meta)``.

        ``cache`` enables per-stage artifact reuse; ``recompute_from``
        names stages whose cached entries (and those of every downstream
        stage) are bypassed for this run.
        """
        forced = self.descendants(recompute_from) if recompute_from else set()
        keys = self.stage_keys(ctx) if cache is not None else {}
        artifacts: dict[str, Any] = {}
        meta: dict[str, Any] = {
            "stages": {},
            "cache": {"hits": 0, "misses": 0},
        }
        if cache is not None:
            meta["keys"] = dict(keys)
        for name, stage in self._stages.items():
            t0 = time.perf_counter()
            artifact = None
            status = "computed"
            storable = cache is not None and stage.cacheable(ctx)
            if storable and name not in forced:
                artifact = cache.load(keys[name])
                if artifact is not None and \
                        not isinstance(artifact, stage.artifact_type):
                    artifact = None  # stale/foreign entry: treat as miss
                status = "hit" if artifact is not None else "miss"
            if artifact is None:
                artifact = stage.run(ctx, {d: artifacts[d]
                                           for d in stage.deps})
                if storable:
                    # Forced recomputes refresh the stored entry too.
                    cache.store(keys[name], artifact)
            artifacts[name] = artifact
            if cache is not None:
                if status == "hit":
                    meta["cache"]["hits"] += 1
                else:
                    meta["cache"]["misses"] += 1
            meta["stages"][name] = {
                "seconds": time.perf_counter() - t0,
                "cache": status,
            }
        return artifacts, meta

    def cached_artifacts(self, ctx: StageContext,
                         cache: StageStore | None) -> dict[str, Any] | None:
        """Load every stage artifact from cache, or None on any miss.

        This is the whole-``FlowResult`` cache as a thin wrapper over the
        stage store: a flow is "done" exactly when all of its stage
        artifacts are present.
        """
        if cache is None:
            return None
        keys = self.stage_keys(ctx)
        artifacts: dict[str, Any] = {}
        for name, stage in self._stages.items():
            if not stage.cacheable(ctx):
                return None
            artifact = cache.load(keys[name])
            if artifact is None or \
                    not isinstance(artifact, stage.artifact_type):
                return None
            artifacts[name] = artifact
        return artifacts


#: Process-wide default pipeline mirroring Fig. 4.
DEFAULT_PIPELINE = Pipeline()
