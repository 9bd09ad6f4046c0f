"""Stage-cache semantics: Merkle keys, targeted invalidation, recovery.

Flipping one semantic ``FlowConfig`` field must invalidate exactly the
stage that reads it plus its downstream closure — nothing upstream; the
fleet's worker count must invalidate nothing.  Corrupt or foreign cache
entries are treated as misses and repaired in place.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import DEFAULT_PIPELINE, FlowConfig, HdfTestFlow
from repro.core.stages import AgingStage, StageContext
from repro.experiments.artifact_cache import StageCache


def _keys(circuit, config, **ctx_kwargs):
    ctx = StageContext(circuit=circuit, config=config, **ctx_kwargs)
    return DEFAULT_PIPELINE.stage_keys(ctx)


ALL_STAGES = ("sta", "faults", "atpg", "simulation", "classify", "schedule")

#: (FlowConfig override, stage that reads the knob).
SEMANTIC_CASES = [
    ({"fast_ratio": 2.5}, "sta"),
    ({"monitor_fraction": 0.5}, "sta"),
    ({"monitor_delay_fractions": (0.1, 0.2)}, "sta"),
    ({"n_sigma": 5.0}, "faults"),
    ({"atpg_seed": 11}, "atpg"),
    ({"pattern_cap": 5}, "atpg"),
    ({"coverage_targets": (0.9,)}, "schedule"),
]


class _ReadRecorder:
    """A ``FlowConfig`` stand-in recording the names of the fields read."""

    def __init__(self, config: FlowConfig) -> None:
        self._config = config
        self.reads: set[str] = set()

    def __getattr__(self, name: str):
        self.reads.add(name)
        return getattr(self._config, name)


class TestStageKeys:
    def test_every_config_field_has_a_case(self):
        # A new FlowConfig field cannot ship without its invalidation case.
        assert ({next(iter(o)) for o, _ in SEMANTIC_CASES}
                == {f.name for f in fields(FlowConfig)})

    def test_stages_read_only_their_key_fields(self, s27):
        """A stage reading a field its key leaves out would replay a
        stored artifact computed under another value of that field."""
        ctx = HdfTestFlow(s27).context(with_schedules=True,
                                       with_coverage_schedules=True)
        ctx.fleet_devices = 8
        artifacts = {}
        reads = {}
        stages = [DEFAULT_PIPELINE.get(n) for n in DEFAULT_PIPELINE.stages()]
        for stage in (*stages, AgingStage()):
            recorder = _ReadRecorder(FlowConfig())
            ctx.config = recorder
            artifacts[stage.name] = stage.run(
                ctx, {d: artifacts[d] for d in stage.deps})
            reads[stage.name] = recorder.reads
            assert recorder.reads <= set(stage.config_fields), stage.name
        assert reads["sta"] == {"fast_ratio", "monitor_fraction",
                                "monitor_delay_fractions"}

    def test_deterministic(self, s27):
        assert _keys(s27, FlowConfig()) == _keys(s27, FlowConfig())

    def test_covers_every_stage(self, s27):
        assert tuple(_keys(s27, FlowConfig())) == ALL_STAGES

    @pytest.mark.parametrize("override,stage", SEMANTIC_CASES,
                             ids=[f"{next(iter(o))}->{s}"
                                  for o, s in SEMANTIC_CASES])
    def test_semantic_flip_invalidates_exactly_downstream(self, s27,
                                                          override, stage):
        base = _keys(s27, FlowConfig())
        flipped = _keys(s27, FlowConfig(**override))
        changed = {name for name in ALL_STAGES
                   if base[name] != flipped[name]}
        assert changed == DEFAULT_PIPELINE.descendants([stage])

    def test_job_knobs_change_nothing(self, s27):
        # The fleet sweep's worker count is the one remaining job knob.
        from repro.core.pipeline import Pipeline
        from repro.experiments.fleet import FLEET_PIPELINE_STAGES

        fleet = Pipeline(tuple(s() for s in FLEET_PIPELINE_STAGES))

        def keys(jobs):
            return fleet.stage_keys(StageContext(
                circuit=s27, config=FlowConfig(), fleet_jobs=jobs))

        assert keys(8) == keys(1)

    def test_circuit_content_changes_every_key(self, s27, c17):
        a = _keys(s27, FlowConfig())
        b = _keys(c17, FlowConfig())
        assert all(a[name] != b[name] for name in ALL_STAGES)

    def test_schedule_flags_only_touch_schedule(self, s27):
        base = _keys(s27, FlowConfig())
        flagged = _keys(s27, FlowConfig(), with_coverage_schedules=True)
        changed = {name for name in ALL_STAGES
                   if base[name] != flagged[name]}
        assert changed == {"schedule"}

    def test_external_test_set_keys_by_content(self, s27):
        res = HdfTestFlow(s27).run(with_schedules=False)
        base = _keys(s27, FlowConfig())
        replayed = _keys(s27, FlowConfig(), test_set=res.test_set)
        changed = {name for name in ALL_STAGES
                   if base[name] != replayed[name]}
        assert changed == DEFAULT_PIPELINE.descendants(["atpg"])
        again = _keys(s27, FlowConfig(), test_set=res.test_set)
        assert again == replayed  # same patterns -> same keys


class TestDescendants:
    def test_closures(self):
        d = DEFAULT_PIPELINE.descendants
        assert d(["schedule"]) == {"schedule"}
        assert d(["classify"]) == {"classify", "schedule"}
        assert d(["atpg"]) == {"atpg", "simulation", "classify", "schedule"}
        assert d(["sta"]) == set(ALL_STAGES) - {"atpg"}
        assert d(["sta", "atpg"]) == set(ALL_STAGES)

    def test_unknown_stage_lists_registered(self):
        with pytest.raises(ValueError,
                           match="registered stages: sta, faults, atpg"):
            DEFAULT_PIPELINE.descendants(["typo"])


class TestCachedRuns:
    @pytest.fixture()
    def cache(self, tmp_path):
        return StageCache(tmp_path)

    def test_rerun_is_all_hits_and_identical(self, s27, cache):
        first = HdfTestFlow(s27).run(cache=cache)
        again = HdfTestFlow(s27).run(cache=cache)
        assert all(s["cache"] == "miss"
                   for s in first.meta["stages"].values())
        assert all(s["cache"] == "hit"
                   for s in again.meta["stages"].values())
        assert again.meta["cache"] == {"hits": 6, "misses": 0}
        assert again.data.ranges == first.data.ranges
        assert again.table2_row() == first.table2_row()

    def test_scheduling_knob_reuses_upstream_artifacts(self, s27, cache):
        HdfTestFlow(s27).run(cache=cache)
        res = HdfTestFlow(
            s27, FlowConfig(coverage_targets=(0.9,))).run(cache=cache)
        stages = res.meta["stages"]
        for name in ("sta", "faults", "atpg", "simulation", "classify"):
            assert stages[name]["cache"] == "hit", name
        assert stages["schedule"]["cache"] == "miss"

    #: Corrupt entries, each raising a different error type when
    #: unpickled: a truncated pickle (``UnpicklingError``), a length field
    #: flipped to 2**64-1 (``OverflowError``) and an int where the REDUCE
    #: opcode expects a callable (``TypeError``).
    CORRUPT_PAYLOADS = (
        b"\x80truncated-pickle",
        b"\x80\x05\x96" + b"\xff" * 8 + b".",
        b"\x80\x04K\x01)R.",
    )

    def test_corrupted_entry_recomputes_and_repairs(self, s27, cache):
        first = HdfTestFlow(s27).run(cache=cache)
        key = first.meta["keys"]["simulation"]
        for payload in self.CORRUPT_PAYLOADS:
            cache._path(key).write_bytes(payload)
            assert cache.load(key) is None, payload
            res = HdfTestFlow(s27).run(cache=cache)
            stages = res.meta["stages"]
            assert stages["simulation"]["cache"] == "miss", payload
            for name in ("sta", "faults", "atpg", "classify", "schedule"):
                assert stages[name]["cache"] == "hit", (name, payload)
            assert res.data.ranges == first.data.ranges
            # The recompute rewrote the entry in place.
            assert type(cache.load(key)).__name__ == "DetectionArtifact"
        # The repaired entry serves the next run.
        assert HdfTestFlow(s27).run(
            cache=cache).meta["stages"]["simulation"]["cache"] == "hit"

    def test_truncated_entry_is_a_miss(self, s27, cache):
        first = HdfTestFlow(s27).run(cache=cache)
        key = first.meta["keys"]["classify"]
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:10])
        res = HdfTestFlow(s27).run(cache=cache)
        assert res.meta["stages"]["classify"]["cache"] == "miss"

    def test_foreign_typed_entry_is_a_miss(self, s27, cache):
        first = HdfTestFlow(s27).run(cache=cache)
        cache.store(first.meta["keys"]["faults"], {"not": "an artifact"})
        res = HdfTestFlow(s27).run(cache=cache)
        assert res.meta["stages"]["faults"]["cache"] == "miss"
        assert res.table1_row() == first.table1_row()

    def test_cached_result_requires_every_stage(self, s27, cache):
        flow = HdfTestFlow(s27)
        assert flow.cached_result(cache=cache) is None
        first = flow.run(cache=cache)
        probe = flow.cached_result(cache=cache)
        assert probe is not None
        assert probe.table1_row() == first.table1_row()
        # Evict one stage: the whole-flow probe must turn into a miss.
        cache._path(first.meta["keys"]["schedule"]).unlink()
        assert flow.cached_result(cache=cache) is None

    def test_recompute_from_refreshes_stored_entry(self, s27, cache,
                                                   monkeypatch):
        flow = HdfTestFlow(s27)
        first = flow.run(cache=cache)
        key = first.meta["keys"]["schedule"]
        cache.store(key, "stale-placeholder")
        flow.run(cache=cache, recompute_from=("schedule",))
        refreshed = cache.load(key)
        assert refreshed != "stale-placeholder"
        assert type(refreshed).__name__ == "ScheduleArtifact"

    def test_run_without_cache_reports_computed(self, s27):
        res = HdfTestFlow(s27).run()
        assert all(s["cache"] == "computed"
                   for s in res.meta["stages"].values())
        assert "keys" not in res.meta
