"""Tests for the suite runner and its caches."""

from __future__ import annotations

import pytest

from repro.experiments.runner import (
    SuiteRunConfig,
    clear_cache,
    run_suite,
    suite_flow,
)
from repro.experiments.shard import ShardStats


def _signature(res):
    """Comparable digest of one FlowResult (workers must not change it)."""
    return (
        [(p.launch, p.capture) for p in res.test_set],
        res.universe_size,
        res.data.faults_with_ranges(),
        sorted(res.schedules),
    )


class TestConfig:
    def test_defaults_cover_full_suite(self):
        cfg = SuiteRunConfig()
        assert len(cfg.names) == 12
        assert cfg.scale == 1.0

    def test_quick_profile(self):
        cfg = SuiteRunConfig.quick()
        assert len(cfg.names) == 4
        assert cfg.scale < 1.0

    def test_quick_overrides(self):
        cfg = SuiteRunConfig.quick(with_coverage_schedules=True, scale=0.4)
        assert cfg.with_coverage_schedules
        assert cfg.scale == 0.4

    def test_hashable_for_cache_key(self):
        assert hash(SuiteRunConfig.quick()) == hash(SuiteRunConfig.quick())


class TestRun:
    @pytest.fixture()
    def tiny_cfg(self):
        return SuiteRunConfig(names=("s9234",), scale=0.25,
                              with_schedules=False)

    def test_run_and_cache(self, tiny_cfg):
        clear_cache()
        first = run_suite(tiny_cfg)
        second = run_suite(tiny_cfg)
        assert first["s9234"] is second["s9234"]

    def test_clear_cache_forces_recompute(self, tiny_cfg):
        first = run_suite(tiny_cfg)
        clear_cache()
        second = run_suite(tiny_cfg)
        assert first["s9234"] is not second["s9234"]

    def test_different_scale_different_entry(self, tiny_cfg):
        a = run_suite(tiny_cfg)
        b = run_suite(SuiteRunConfig(names=("s9234",), scale=0.3,
                                     with_schedules=False))
        assert a["s9234"] is not b["s9234"]

    def test_pattern_budget_scales_with_suite(self, tiny_cfg):
        res = run_suite(tiny_cfg)["s9234"]
        assert len(res.test_set) <= 24  # full-scale budget for s9234

    def test_results_keyed_in_config_order(self):
        cfg = SuiteRunConfig(names=("s13207", "s9234"), scale=0.25,
                             with_schedules=False)
        out = run_suite(cfg)
        assert list(out) == ["s13207", "s9234"]


    def test_memo_keeps_a_bounded_number_of_configs(self, tmp_path):
        from repro.experiments import runner
        from repro.experiments.artifact_cache import StageCache

        clear_cache()
        # One store for all configs: they differ in the monitor fraction
        # only, so the ATPG artifact is computed once.
        store = StageCache(tmp_path)
        for k in range(runner.SUITE_MEMO_SIZE + 2):
            cfg = SuiteRunConfig(names=("s9234",), scale=0.25,
                                 with_schedules=False,
                                 monitor_fraction=0.1 * (k + 1))
            first = run_suite(cfg, store=store)
            assert len(runner._CACHE) <= runner.SUITE_MEMO_SIZE
        # The latest config is still served from the memo.
        assert run_suite(cfg, store=store)["s9234"] is first["s9234"]
        clear_cache()

    def test_memo_is_shared_safely_by_threads(self, tmp_path):
        """The service's worker threads share the memo: concurrent hits,
        misses and evictions must neither raise nor outgrow the cap."""
        import sys
        import threading

        from repro.experiments import runner
        from repro.experiments.artifact_cache import StageCache

        clear_cache()
        store = StageCache(tmp_path)
        cfgs = [SuiteRunConfig(names=("s9234",), scale=0.25,
                               with_schedules=False,
                               monitor_fraction=0.1 * (k + 1))
                for k in range(runner.SUITE_MEMO_SIZE + 2)]
        for cfg in cfgs:   # fill the store; the threads then replay it
            run_suite(cfg, store=store)
        errors = []

        def work(offset):
            try:
                for _ in range(3):
                    for cfg in cfgs[offset::2]:
                        assert list(run_suite(cfg, store=store)) == \
                            ["s9234"]
            except Exception as exc:   # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i % 2,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(runner._CACHE) <= runner.SUITE_MEMO_SIZE
        clear_cache()


class TestParallel:
    def test_parallel_matches_serial(self):
        cfg = SuiteRunConfig(names=("s9234", "s13207"), scale=0.25,
                             with_schedules=True)
        # Serial reference: plain in-process flows, no store at all.
        serial = {name: suite_flow(name, cfg).run() for name in cfg.names}
        for workers in (1, 2):
            clear_cache()
            parallel = run_suite(cfg, workers=workers)
            assert list(parallel) == list(serial)
            for name in serial:
                assert (_signature(serial[name])
                        == _signature(parallel[name])), (workers, name)
        clear_cache()

    def test_parallel_merges_worker_timers(self):
        clear_cache()
        stats = ShardStats()
        run_suite(SuiteRunConfig(names=("s9234", "s13207"), scale=0.25,
                                 with_schedules=False),
                  workers=2, stats=stats)
        # Every worker ships its stage split back to the caller.
        assert stats.workers == 2
        assert stats.timer.total() > 0
        assert "random" in stats.timer.totals  # the ATPG stage
        assert set(stats.stage_seconds) == {
            "sta", "faults", "atpg", "simulation", "classify", "schedule"}
        clear_cache()


class TestDiskCache:
    @pytest.fixture()
    def disk_cfg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        yield SuiteRunConfig(names=("s9234",), scale=0.25,
                             with_schedules=False)
        clear_cache()

    def test_second_invocation_skips_all_flow_executions(self, disk_cfg,
                                                         monkeypatch,
                                                         tmp_path):
        first = run_suite(disk_cfg)
        assert any(tmp_path.rglob("*.pkl"))  # stage artifacts persisted

        clear_cache()  # wipe in-memory layer; only the disk copy remains

        def boom(self, ctx, inputs):
            raise AssertionError("stage must not execute on a cache hit")

        monkeypatch.setattr("repro.core.stages.Stage.run", boom)
        second = run_suite(disk_cfg)
        assert _signature(first["s9234"]) == _signature(second["s9234"])
        meta = second["s9234"].meta
        assert all(s["cache"] == "hit" for s in meta["stages"].values())
        assert meta["cache"] == {"hits": len(meta["stages"]), "misses": 0}

    def test_partial_run_resumes_from_last_finished_stage(self, disk_cfg):
        from repro.core.stages import ScheduleStage

        # Simulate a run killed during schedule optimization: everything
        # upstream landed in the stage store, the schedule artifact didn't.
        def die(self, ctx, inputs):
            raise RuntimeError("killed mid-flow")

        resumed_cfg = SuiteRunConfig(names=("s9234",), scale=0.25,
                                     with_schedules=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ScheduleStage, "run", die)
            with pytest.raises(RuntimeError, match="killed mid-flow"):
                run_suite(resumed_cfg)
        clear_cache()

        stats = ShardStats()
        run_suite(resumed_cfg, stats=stats)
        assert stats.stage_seconds.keys() == {"schedule"}  # recomputed
        assert (stats.computed, stats.hits) == (1, 5)

    def test_recompute_from_forces_downstream_only(self, disk_cfg):
        run_suite(disk_cfg)
        clear_cache()
        stats = ShardStats()
        run_suite(disk_cfg, recompute_from=("simulation",), stats=stats)
        assert stats.stage_seconds.keys() == {
            "simulation", "classify", "schedule"}
        assert (stats.computed, stats.hits) == (3, 3)

    def test_recompute_from_rejects_unknown_stage(self, disk_cfg):
        with pytest.raises(ValueError, match="registered stages"):
            run_suite(disk_cfg, recompute_from=("nope",))

    def test_disabled_cache_writes_nothing(self, disk_cfg, monkeypatch,
                                           tmp_path):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        run_suite(disk_cfg)
        assert not any(tmp_path.rglob("*.pkl"))

    def test_disabled_cache_drains_through_a_removed_temp_store(
            self, disk_cfg, monkeypatch, tmp_path):
        import tempfile

        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        stats = ShardStats()
        cfg = SuiteRunConfig(names=("s9234", "s13207"), scale=0.25,
                             with_schedules=False)
        results = run_suite(cfg, workers=2, stats=stats)
        assert list(results) == ["s9234", "s13207"]
        assert stats.computed == 2 * 6
        assert not any(tmp_path.rglob("*.pkl"))
        assert list(scratch.iterdir()) == []  # temp store removed

    def test_job_count_shares_one_disk_entry(self, disk_cfg, monkeypatch,
                                             tmp_path):
        run_suite(disk_cfg)
        entries = list(tmp_path.rglob("*.pkl"))
        clear_cache()
        run_suite(disk_cfg, workers=2)  # same keys: no new artifact
        assert sorted(tmp_path.rglob("*.pkl")) == sorted(entries)

    def test_run_suite_constructs_exactly_one_stage_cache(self, disk_cfg,
                                                          monkeypatch):
        # Regression: the pre-scan and the execution path used to build
        # separate StageCache instances; one instance is now threaded
        # through the drain and the result assembly alike.
        from repro.experiments.artifact_cache import StageCache

        constructed = []
        orig = StageCache.__init__

        def counting(self, root=None):
            constructed.append(self)
            orig(self, root)

        monkeypatch.setattr(StageCache, "__init__", counting)
        run_suite(disk_cfg)
        assert len(constructed) == 1
