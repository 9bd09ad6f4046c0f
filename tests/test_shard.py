"""Tests for the shard scheduler (``repro.experiments.shard``).

Covers the claim-by-rename protocol (exclusivity, stale steal,
heartbeats), work-unit planning (DAG structure, LPT priority), the drain
loop (resume, partial resume, stale-claim reclamation), the fork-based
multi-worker driver (crash recovery with a killed worker), and end-to-end
parity of suite runs (``run_suite``, which drains stage units through
this scheduler) against plain in-process flows.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.circuits.library import suite_entry
from repro.experiments.artifact_cache import StageCache
from repro.experiments.runner import (
    SuiteRunConfig,
    clear_cache,
    run_suite,
    suite_flow,
    suite_plan,
)
from repro.experiments.shard import (
    ClaimBoard,
    ShardPlan,
    ShardStats,
    TimedStage,
    WorkUnit,
    drain_units,
    run_plan,
    suite_timed_specs,
    timed_plan,
)

STAGES = ("sta", "faults", "atpg", "simulation", "classify", "schedule")


def _backdate(path, seconds: float) -> None:
    old = time.time() - seconds
    os.utime(path, times=(old, old))


# ----------------------------------------------------------------------
# Claim board
# ----------------------------------------------------------------------
class TestClaimBoard:
    @pytest.fixture()
    def board(self, tmp_path):
        return ClaimBoard(tmp_path / "claims", ttl=30.0, worker="a")

    def test_claim_is_exclusive(self, board):
        assert board.try_claim("k1")
        assert not board.try_claim("k1")
        board.release("k1")
        assert board.try_claim("k1")

    def test_independent_keys_do_not_interfere(self, board):
        assert board.try_claim("k1")
        assert board.try_claim("k2")

    def test_fresh_claim_is_not_stolen(self, board, tmp_path):
        board.try_claim("k1")
        thief = ClaimBoard(tmp_path / "claims", ttl=30.0, worker="b")
        assert not thief.reclaim_if_stale("k1")
        assert not thief.try_claim("k1")  # still held

    def test_stale_claim_is_stolen_exactly_once(self, board, tmp_path):
        board.try_claim("k1")
        _backdate(board._path("k1"), seconds=120.0)
        thief = ClaimBoard(tmp_path / "claims", ttl=30.0, worker="b")
        other = ClaimBoard(tmp_path / "claims", ttl=30.0, worker="c")
        assert thief.reclaim_if_stale("k1")
        assert not other.reclaim_if_stale("k1")  # already gone
        assert thief.try_claim("k1")  # slot is free again

    def test_missing_claim_is_not_stale(self, board):
        assert board.age("nope") is None
        assert not board.reclaim_if_stale("nope")

    def test_heartbeat_keeps_long_claims_alive(self, tmp_path):
        board = ClaimBoard(tmp_path / "claims", ttl=0.3, worker="a")
        board.try_claim("k1")
        beat = board.heartbeat("k1")
        try:
            time.sleep(0.7)  # > TTL: without heartbeats this would expire
            thief = ClaimBoard(tmp_path / "claims", ttl=0.3, worker="b")
            assert not thief.reclaim_if_stale("k1")
        finally:
            beat.cancel()

    def test_ttl_floor_and_env_default(self, tmp_path, monkeypatch):
        assert ClaimBoard(tmp_path, ttl=0.0).ttl == 0.05
        monkeypatch.setenv("REPRO_CLAIM_TTL", "7.5")
        assert ClaimBoard(tmp_path).ttl == 7.5
        monkeypatch.setenv("REPRO_CLAIM_TTL", "junk")
        assert ClaimBoard(tmp_path).ttl == 30.0


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestPlans:
    def test_suite_plan_mirrors_pipeline_dag(self, tmp_path):
        cfg = SuiteRunConfig(names=("s9234", "s13207"), scale=0.25,
                             with_schedules=False)
        plan = suite_plan(cfg)
        assert len(plan.units) == 2 * len(STAGES)
        keys = {u.key for u in plan.units}
        assert len(keys) == len(plan.units)  # content keys are unique
        by_circuit = {}
        for u in plan.units:
            by_circuit.setdefault(u.circuit, {})[u.stage] = u
        for name, stages in by_circuit.items():
            assert set(stages) == set(STAGES), name
            # Dep keys point at in-plan upstream units.
            sim = stages["simulation"]
            assert {d for d, _ in sim.deps} == {"sta", "faults", "atpg"}
            for dep_name, dep_key in sim.deps:
                assert stages[dep_name].key == dep_key

    def test_lpt_orders_costliest_circuit_first(self):
        units = [WorkUnit("cheap", "sta", "k1", (), cost=1.0),
                 WorkUnit("pricy", "sta", "k2", (), cost=5.0),
                 WorkUnit("cheap", "faults", "k3", (("sta", "k1"),),
                          cost=1.0)]
        ordered = ShardPlan.order_units(units)
        assert [u.circuit for u in ordered] == ["pricy", "cheap", "cheap"]
        # Topological (insertion) order within a circuit is preserved.
        assert [u.stage for u in ordered[1:]] == ["sta", "faults"]

    def test_timed_plan_validates_arguments(self):
        specs = [TimedStage("c0", "sta", 0.01)]
        with pytest.raises(ValueError, match="granularity"):
            timed_plan(specs, nonce="x", granularity="nope")
        with pytest.raises(ValueError, match="order"):
            timed_plan(specs, nonce="x", order="nope")

    def test_timed_plan_circuit_granularity_sums_costs(self):
        specs = [TimedStage("c0", s, 0.01) for s in STAGES]
        plan = timed_plan(specs, nonce="x", granularity="circuit",
                          order="given")
        assert len(plan.units) == 1
        assert plan.units[0].cost == pytest.approx(0.06)
        assert plan.units[0].deps == ()

    def test_suite_timed_specs_deterministic_and_normalized(self):
        a = suite_timed_specs(10, serial_s=2.0)
        b = suite_timed_specs(10, serial_s=2.0)
        assert a == b
        assert len(a) == 10 * len(STAGES)
        assert sum(s.cost for s in a) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Drain loop (in-process)
# ----------------------------------------------------------------------
class TestDrain:
    def _tiny_specs(self, n=3):
        return [TimedStage(f"c{i}", s, 0.001)
                for i in range(n) for s in STAGES]

    def test_drain_completes_and_resumes(self, tmp_path):
        store = StageCache(tmp_path)
        plan = timed_plan(self._tiny_specs(), nonce="resume")
        stats = run_plan(plan, workers=1, store=store)
        assert stats.computed == len(plan.units)
        assert all(store.contains(u.key) for u in plan.units)
        again = run_plan(timed_plan(self._tiny_specs(), nonce="resume"),
                         workers=1, store=store)
        assert again.computed == 0
        assert again.hits == len(plan.units)

    def test_partial_resume_recomputes_only_missing_unit(self, tmp_path):
        store = StageCache(tmp_path)
        plan = timed_plan(self._tiny_specs(), nonce="partial")
        run_plan(plan, workers=1, store=store)
        store.delete(plan.units[4].key)
        stats = run_plan(timed_plan(self._tiny_specs(), nonce="partial"),
                         workers=1, store=store)
        assert stats.computed == 1
        assert stats.hits == len(plan.units) - 1

    def test_drain_reclaims_stale_claim(self, tmp_path):
        store = StageCache(tmp_path)
        plan = timed_plan(self._tiny_specs(1), nonce="stale")
        board = ClaimBoard.for_store(store, ttl=0.1, worker="live")
        dead = ClaimBoard.for_store(store, ttl=0.1, worker="dead")
        first_ready = plan.units[0]
        assert dead.try_claim(first_ready.key)  # orphaned claim
        _backdate(dead._path(first_ready.key), seconds=10.0)
        stats = drain_units(plan, store, board, poll=0.01)
        assert stats.reclaimed == 1
        assert stats.computed == len(plan.units)

    def test_drain_waits_out_fresh_foreign_claim(self, tmp_path):
        # A unit freshly claimed elsewhere is not stolen; the worker
        # polls until the TTL expires, then reclaims and finishes.
        store = StageCache(tmp_path)
        plan = timed_plan(self._tiny_specs(1), nonce="wait")
        board = ClaimBoard.for_store(store, ttl=0.2, worker="live")
        foreign = ClaimBoard.for_store(store, ttl=0.2, worker="gone")
        assert foreign.try_claim(plan.units[0].key)
        t0 = time.perf_counter()
        stats = drain_units(plan, store, board, poll=0.01)
        assert time.perf_counter() - t0 >= 0.2
        assert stats.reclaimed == 1
        assert stats.computed == len(plan.units)
        assert stats.wait_s > 0


# ----------------------------------------------------------------------
# Heartbeat thread lifecycle
# ----------------------------------------------------------------------
def _live_heartbeat_threads() -> list[str]:
    import threading

    from repro.experiments.shard import _Heartbeat

    return [t.name for t in threading.enumerate()
            if t.name.startswith(_Heartbeat.THREAD_PREFIX)]


class TestHeartbeatLifecycle:
    def test_drain_leaves_no_heartbeat_threads(self, tmp_path):
        # Regression: heartbeats used to run as fire-and-forget daemon
        # threads that outlived their unit; a long-lived process (the
        # service orchestrator) would accumulate one per drained unit.
        store = StageCache(tmp_path)
        plan = timed_plan([TimedStage(f"c{i}", s, 0.001)
                           for i in range(3) for s in STAGES],
                          nonce="hb-drain")
        board = ClaimBoard.for_store(store, ttl=0.2, worker="hb")
        stats = drain_units(plan, store, board, poll=0.01)
        assert stats.computed == len(plan.units)
        assert _live_heartbeat_threads() == []

    def test_cancel_stops_and_joins(self, tmp_path):
        board = ClaimBoard(tmp_path / "claims", ttl=0.2, worker="a")
        board.try_claim("k1")
        beat = board.heartbeat("k1")
        assert beat.alive
        assert _live_heartbeat_threads()
        beat.cancel()
        beat.cancel()  # idempotent
        assert not beat.alive
        assert _live_heartbeat_threads() == []

    def test_context_manager_cancels_on_error(self, tmp_path):
        board = ClaimBoard(tmp_path / "claims", ttl=0.2, worker="a")
        board.try_claim("k1")
        with pytest.raises(RuntimeError):
            with board.heartbeat("k1") as beat:
                assert beat.alive
                raise RuntimeError("unit failed")
        assert not beat.alive

    def test_released_claim_retires_the_thread(self, tmp_path):
        # A heartbeat whose claim vanished (released, or stolen after a
        # stall) must terminate on its own instead of spinning forever.
        board = ClaimBoard(tmp_path / "claims", ttl=0.2, worker="a")
        board.try_claim("k1")
        beat = board.heartbeat("k1")
        board.release("k1")
        deadline = time.time() + 2.0
        while beat.alive and time.time() < deadline:
            time.sleep(0.02)
        assert not beat.alive


# ----------------------------------------------------------------------
# Fork driver: crash recovery
# ----------------------------------------------------------------------
@pytest.mark.skipif("fork" not in __import__("multiprocessing")
                    .get_all_start_methods(),
                    reason="requires the fork start method")
class TestCrashRecovery:
    def test_killed_worker_unit_is_reclaimed_once(self, tmp_path):
        store = StageCache(tmp_path / "store")
        flag = tmp_path / "killed-once"
        base = timed_plan([TimedStage(f"c{i}", s, 0.01)
                           for i in range(4) for s in STAGES],
                          nonce="crash")
        victim = base.units[5].key

        def execute(unit, _inputs, _timer):
            if unit.key == victim and not flag.exists():
                flag.write_text("x")
                os._exit(42)  # simulate a hard-killed worker mid-stage
            time.sleep(unit.cost)
            return {"circuit": unit.circuit, "stage": unit.stage}

        plan = ShardPlan(base.units, execute)
        stats = run_plan(plan, workers=2, store=store, ttl=0.3)
        assert flag.exists()  # one worker really died
        assert stats.worker_failures == 1
        # The orphaned claim was reclaimed exactly once and the suite
        # still completed.
        assert stats.reclaimed == 1
        assert all(store.contains(u.key) for u in plan.units)
        # The dead worker's stats are lost with it; the survivor accounts
        # for every unit either by computing it or by observing the dead
        # worker's stored artifacts as hits.
        assert stats.computed + stats.hits == len(plan.units)

    def test_all_workers_dead_raises_with_resume_hint(self, tmp_path):
        store = StageCache(tmp_path / "store")
        base = timed_plan([TimedStage("c0", s, 0.01) for s in STAGES],
                          nonce="fatal")

        def execute(unit, _inputs, _timer):
            raise RuntimeError("stage exploded")

        plan = ShardPlan(base.units, execute)
        with pytest.raises(RuntimeError, match="resume"):
            run_plan(plan, workers=2, store=store, ttl=0.2)


# ----------------------------------------------------------------------
# End-to-end sharded suite runs
# ----------------------------------------------------------------------
def _deep_signature(res):
    """Bit-level digest of everything a FlowResult derives from stages."""
    cls_ = res.classification
    return (
        [(p.launch, p.capture) for p in res.test_set],
        res.clock.t_nom,
        res.universe_size,
        res.data.faults_with_ranges(),
        sorted(cls_.target),
        sorted(cls_.at_speed),
        sorted(cls_.monitor_at_speed),
        sorted(cls_.timing_redundant),
        sorted(cls_.conv_detected),
        sorted(cls_.prop_detected),
        {k: (sorted(s.periods),
             [(e.period, e.pattern, e.config) for e in s.entries],
             sorted(s.covered))
         for k, s in res.schedules.items()},
    )


class TestRunSuiteSharded:
    @pytest.fixture()
    def cfg(self):
        clear_cache()
        yield SuiteRunConfig(names=("s9234", "s13207"), scale=0.25,
                             with_schedules=True)
        clear_cache()

    def _run(self, cfg, **kwargs):
        """One uncached-in-memory ``run_suite`` call plus its stats."""
        clear_cache()
        stats = ShardStats()
        return run_suite(cfg, stats=stats, **kwargs), stats

    def test_matches_serial_flows_bit_identically(self, cfg):
        # Serial reference: plain in-process flows, no store at all.
        serial = {name: suite_flow(name, cfg).run(
            with_schedules=cfg.with_schedules) for name in cfg.names}
        for workers in (1, 2):
            results, stats = self._run(cfg, workers=workers)
            assert list(results) == list(serial)
            for name in serial:
                assert (_deep_signature(results[name])
                        == _deep_signature(serial[name])), (workers, name)
            assert stats.computed == len(cfg.names) * len(STAGES)
            assert stats.workers == workers

    def test_two_workers_match_one_worker(self, cfg, tmp_path):
        one, _ = self._run(cfg, workers=1, store=StageCache(tmp_path / "1"))
        two, stats = self._run(cfg, workers=2,
                               store=StageCache(tmp_path / "2"))
        for name in cfg.names:
            assert (_deep_signature(one[name])
                    == _deep_signature(two[name])), name
        assert stats.worker_failures == 0

    def test_rerun_resumes_entirely_from_store(self, cfg, tmp_path):
        store = StageCache(tmp_path)
        first, stats = self._run(cfg, store=store)
        assert stats.computed == len(cfg.names) * len(STAGES)
        second, stats = self._run(cfg, store=store)
        assert stats.computed == 0
        assert stats.hits == len(cfg.names) * len(STAGES)
        for name in cfg.names:
            assert (_deep_signature(first[name])
                    == _deep_signature(second[name])), name

    def test_partial_suite_resumes_missing_stages_only(self, cfg, tmp_path):
        store = StageCache(tmp_path)
        self._run(cfg, store=store)
        dropped = [u for u in suite_plan(cfg).units
                   if u.circuit == "s9234" and u.stage == "schedule"]
        assert len(dropped) == 1
        store.delete(dropped[0].key)
        _, stats = self._run(cfg, store=store)
        assert stats.computed == 1

    def test_recompute_from_leaves_upstream_untouched(self, cfg, tmp_path):
        store = StageCache(tmp_path)
        self._run(cfg, store=store)
        entries = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.pkl")}
        forced = {u.key for u in suite_plan(cfg).units
                  if u.stage in ("simulation", "classify", "schedule")}
        _, stats = self._run(cfg, workers=2, store=store,
                             recompute_from=("simulation",))
        assert stats.computed == 3 * len(cfg.names)
        after = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.pkl")}
        assert set(after) == set(entries)
        for path, mtime in entries.items():
            if path.stem in forced:
                assert after[path] != mtime, path.stem
            else:
                assert after[path] == mtime, path.stem

    def test_pattern_budget_matches_run_suite(self, cfg, tmp_path):
        # A plain suite_flow run probes the artifacts run_suite stored:
        # both derive the same pattern cap, hence the same stage keys.
        store = StageCache(tmp_path)
        self._run(cfg, store=store)
        name = cfg.names[0]
        probe = suite_flow(name, cfg).cached_result(
            with_schedules=cfg.with_schedules,
            with_coverage_schedules=cfg.with_coverage_schedules,
            cache=store)
        assert probe is not None
        cap = suite_entry(name).pattern_budget(scale=cfg.scale)
        assert len(probe.test_set) <= cap


def test_worker_count_reports_in_process_drain(tmp_path, monkeypatch):
    # Without the fork start method the plan drains in-process; the
    # stats must say one worker ran, not the number requested.
    monkeypatch.setattr("multiprocessing.get_all_start_methods",
                        lambda: ["spawn"])
    plan = timed_plan([TimedStage("c0", s, 0.001) for s in STAGES],
                      nonce="nofork")
    stats = run_plan(plan, workers=4, store=StageCache(tmp_path))
    assert stats.computed == len(STAGES)
    assert stats.workers == 1
