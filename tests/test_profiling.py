"""Tests for the lightweight stage timer."""

from __future__ import annotations

import pytest

from repro.utils.profiling import StageTimer


class TestStageTimer:
    def test_add_accumulates(self):
        t = StageTimer()
        t.add("sim", 0.5)
        t.add("sim", 0.25, count=3)
        t.add("io", 1.0)
        assert t.total("sim") == pytest.approx(0.75)
        assert t.total() == pytest.approx(1.75)
        assert t.as_dict()["sim"]["count"] == 4

    def test_unknown_stage_total_is_zero(self):
        assert StageTimer().total("nope") == 0.0

    def test_stage_context_measures(self):
        t = StageTimer()
        with t.stage("work"):
            sum(range(1000))
        d = t.as_dict()
        assert d["work"]["count"] == 1
        assert d["work"]["seconds"] >= 0.0

    def test_merge(self):
        a, b = StageTimer(), StageTimer()
        a.add("x", 1.0)
        b.add("x", 2.0, count=2)
        b.add("y", 3.0)
        a.merge(b)
        assert a.total("x") == pytest.approx(3.0)
        assert a.total("y") == pytest.approx(3.0)
        assert a.as_dict()["x"]["count"] == 3

    def test_as_dict_is_json_friendly(self):
        import json

        t = StageTimer()
        t.add("s", 0.125)
        assert json.loads(json.dumps(t.as_dict())) == t.as_dict()


class TestNestedStages:
    """Regression: nested/re-entrant stage() used to double-count total()."""

    def _spin(self, seconds):
        import time

        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def test_nested_stage_does_not_double_count_total(self):
        import time

        t = StageTimer()
        t0 = time.perf_counter()
        with t.stage("outer"):
            self._spin(0.01)
            with t.stage("inner"):
                self._spin(0.02)
            self._spin(0.01)
        wall = time.perf_counter() - t0
        # Before the fix total() was ~wall + inner (inner counted twice).
        assert t.total() == pytest.approx(wall, rel=0.25)
        assert t.total() < 1.5 * wall

    def test_nested_stage_uses_hierarchical_keys(self):
        t = StageTimer()
        with t.stage("outer"):
            with t.stage("inner"):
                pass
        assert set(t.totals) == {"outer", "outer/inner"}
        assert t.counts["outer/inner"] == 1

    def test_reentrant_same_name(self):
        t = StageTimer()
        with t.stage("x"):
            self._spin(0.005)
            with t.stage("x"):
                self._spin(0.005)
        assert set(t.totals) == {"x", "x/x"}
        assert t.total() == pytest.approx(
            t.totals["x"] + t.totals["x/x"])

    def test_self_time_excludes_children(self):
        t = StageTimer()
        with t.stage("outer"):
            with t.stage("inner"):
                self._spin(0.02)
        # Outer self time is near zero, not ~0.02s.
        assert t.totals["outer"] < t.totals["outer/inner"]

    def test_exception_unwinds_stack(self):
        t = StageTimer()
        with pytest.raises(RuntimeError):
            with t.stage("outer"):
                with t.stage("inner"):
                    raise RuntimeError("boom")
        assert t._stack == []
        assert set(t.totals) == {"outer", "outer/inner"}
        # The timer remains usable with flat keys afterwards.
        with t.stage("later"):
            pass
        assert "later" in t.totals

    def test_pickle_roundtrip_drops_active_frames(self):
        import pickle

        t = StageTimer()
        t.add("x", 1.0)
        clone = pickle.loads(pickle.dumps(t))
        assert clone.totals == t.totals
        assert clone._stack == []


def test_detection_timer_stage_counts(s27):
    """The detection stage split lands in the documented stage names."""
    from repro.atpg.transition import generate_transition_tests
    from repro.faults.detection import (
        compute_detection_data,
        incremental_detection_data,
    )
    from repro.faults.universe import small_delay_fault_universe
    from repro.timing.sta import run_sta

    faults = small_delay_fault_universe(s27)
    ts = generate_transition_tests(s27, seed=3).test_set.filled(seed=3)
    horizon = run_sta(s27).clock_period

    # Default (wordwave): one batched sweep per stage, so counts are 1.
    timer = StageTimer()
    compute_detection_data(s27, faults, ts, horizon=horizon, timer=timer)
    d = timer.as_dict()
    assert set(d) <= {"pregrade", "base_sim", "site_inject",
                      "faulty_sim", "intervals"}
    assert d["base_sim"]["count"] == 1
    assert d["faulty_sim"]["count"] == d["intervals"]["count"] == 1

    # Incremental: per-pattern base sweeps, per-instance faulty resims.
    timer = StageTimer()
    incremental_detection_data(s27, faults, ts, horizon=horizon,
                               timer=timer)
    d = timer.as_dict()
    assert set(d) <= {"pregrade", "base_sim", "faulty_sim", "intervals"}
    assert d["pregrade"]["count"] == 1
    assert d["base_sim"]["count"] == len(ts)
    assert d["faulty_sim"]["count"] == d["intervals"]["count"] > 0
