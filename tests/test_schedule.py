"""Tests for the two-step schedule optimization."""

from __future__ import annotations

import pytest

from repro.scheduling.schedule import (
    FF_ONLY_CONFIG,
    ScheduleEntry,
    optimize_schedule,
    order_periods_fault_dropping,
    target_ranges,
)
from repro.scheduling.discretize import PeriodCandidate
from repro.utils.bitset import masks_to_matrix
from repro.utils.intervals import Interval


def _dropping(chosen):
    """``order_periods_fault_dropping`` over the candidates' packed rows."""
    fault_ids = sorted(set().union(*(c.faults for c in chosen)), key=repr)
    rows = masks_to_matrix(
        [sum(1 << fault_ids.index(f) for f in c.faults) for c in chosen],
        len(fault_ids))
    return order_periods_fault_dropping(chosen, rows, fault_ids)


class TestScheduleResult:
    @pytest.fixture()
    def prop(self, flow_result_small):
        return flow_result_small.schedules["prop"]

    def test_full_coverage(self, flow_result_small, prop):
        assert prop.covered == prop.targets
        assert prop.coverage == 1.0

    def test_entries_use_selected_periods(self, prop):
        period_set = set(prop.periods)
        for e in prop.entries:
            assert any(abs(e.period - p) < 1e-9 for p in period_set)

    def test_periods_within_window(self, flow_result_small, prop):
        clock = flow_result_small.clock
        for p in prop.periods:
            assert clock.t_min - 1e-9 <= p <= clock.t_nom + 1e-9

    def test_every_target_detected_by_some_entry(self, flow_result_small, prop):
        """Re-verify the schedule against the detection data."""
        data = flow_result_small.data
        configs = flow_result_small.configs
        for fi in prop.targets:
            detected = False
            for e in prop.entries:
                fpr = data.ranges.get(fi, {}).get(e.pattern)
                if fpr is None:
                    continue
                if fpr.i_all.contains(e.period):
                    detected = True
                    break
                if e.config >= 0 and fpr.i_mon.shifted(
                        configs[e.config]).contains(e.period):
                    detected = True
                    break
            assert detected, f"fault {fi} not covered by the schedule"

    def test_naive_size_and_reduction(self, flow_result_small, prop):
        n_p = len(flow_result_small.test_set)
        n_c = len(flow_result_small.configs)
        naive = prop.naive_size(n_p, n_c)
        assert naive == n_p * (n_c + 1) * prop.num_frequencies
        red = prop.reduction_percent(n_p, n_c)
        assert 0.0 <= red < 100.0
        assert red == pytest.approx((1 - prop.num_entries / naive) * 100.0)

    def test_entries_at(self, prop):
        if prop.periods:
            p = prop.periods[0]
            assert all(e.period == p for e in prop.entries_at(p))


class TestSolverComparison:
    def test_ilp_no_worse_than_greedy(self, flow_result_small):
        prop = flow_result_small.schedules["prop"]
        heur = flow_result_small.schedules["heur"]
        assert prop.num_frequencies <= heur.num_frequencies

    def test_unknown_solver_rejected(self, flow_result_small):
        data = flow_result_small.data
        cls = flow_result_small.classification
        with pytest.raises(ValueError, match="unknown solver"):
            optimize_schedule(data, cls.target, flow_result_small.clock,
                              flow_result_small.configs, solver="magic")


class TestPartialCoverage:
    def test_relaxed_coverage_fewer_freqs(self, flow_result_small):
        full = flow_result_small.schedules["prop"]
        for cov, sched in flow_result_small.coverage_schedules.items():
            assert sched.num_frequencies <= full.num_frequencies
            assert sched.coverage >= cov - 1e-9

    def test_monotone_in_coverage(self, flow_result_small):
        items = sorted(flow_result_small.coverage_schedules.items())
        for (cov_a, a), (cov_b, b) in zip(items, items[1:]):
            assert cov_a < cov_b
            assert a.num_frequencies <= b.num_frequencies


class TestHelpers:
    def test_order_periods_fault_dropping(self):
        c1 = PeriodCandidate(1.0, Interval(0.5, 1.5),
                             frozenset({1, 2, 3}))
        c2 = PeriodCandidate(2.0, Interval(1.5, 2.5), frozenset({3, 4}))
        ordered = _dropping([c2, c1])
        assert ordered[0][0] is c1
        assert ordered[0][1] == frozenset({1, 2, 3})
        assert ordered[1][1] == frozenset({4})  # 3 was dropped

    def test_order_skips_empty_contribution(self):
        c1 = PeriodCandidate(1.0, Interval(0.5, 1.5), frozenset({1}))
        c2 = PeriodCandidate(2.0, Interval(1.5, 2.5), frozenset({1}))
        ordered = _dropping([c1, c2])
        assert len(ordered) == 1

    def test_target_ranges_excludes_unobservable(self, flow_result_small):
        data = flow_result_small.data
        cls = flow_result_small.classification
        clock = flow_result_small.clock
        ranges = target_ranges(data, cls.timing_redundant, clock,
                               flow_result_small.configs)
        assert ranges == {}

    def test_empty_targets(self, flow_result_small):
        sched = optimize_schedule(
            flow_result_small.data, set(), flow_result_small.clock,
            flow_result_small.configs)
        assert sched.num_frequencies == 0
        assert sched.num_entries == 0
        assert sched.coverage == 1.0


class TestConventionalMode:
    def test_ff_only_entries(self, flow_result_small):
        conv = flow_result_small.schedules["conv"]
        assert all(e.config == FF_ONLY_CONFIG for e in conv.entries)

    def test_conv_covers_its_targets(self, flow_result_small):
        conv = flow_result_small.schedules["conv"]
        data = flow_result_small.data
        for fi in conv.targets:
            assert any(
                data.ranges.get(fi, {}).get(e.pattern) is not None
                and data.ranges[fi][e.pattern].i_all.contains(e.period)
                for e in conv.entries)
