"""Edge-case tests for result containers and derived metrics."""

from __future__ import annotations

import pytest

from repro.faults.classify import FaultClassification


class TestClassificationMetrics:
    def test_gain_zero_conv_zero_prop(self):
        cls = FaultClassification(num_faults=0)
        assert cls.coverage_gain_percent == 0.0

    def test_gain_infinite_when_only_monitors_detect(self):
        cls = FaultClassification(num_faults=0)
        cls.prop_detected = {0}
        assert cls.coverage_gain_percent == float("inf")

    def test_gain_regular(self):
        cls = FaultClassification(num_faults=0)
        cls.conv_detected = {0, 1}
        cls.prop_detected = {0, 1, 2}
        assert cls.coverage_gain_percent == pytest.approx(50.0)


class TestFlowResultMetrics:
    def test_gain_consistent_with_classification(self, flow_result_small):
        res = flow_result_small
        conv = res.conv_hdf_detected
        prop = res.prop_hdf_detected
        if conv:
            assert res.gain_percent == pytest.approx(
                (prop / conv - 1.0) * 100.0)

    def test_hdf_counts_exclude_at_speed(self, flow_result_small):
        res = flow_result_small
        cls = res.classification
        assert res.conv_hdf_detected == len(cls.conv_detected - cls.at_speed)
        assert res.prop_hdf_detected == len(cls.prop_detected - cls.at_speed)

    def test_targets_never_exceed_prop_hdfs(self, flow_result_small):
        res = flow_result_small
        assert res.num_target_faults <= res.prop_hdf_detected

    def test_table3_row_empty_without_coverage_schedules(self,
                                                         flow_result_s27):
        row = flow_result_s27.table3_row()
        assert list(row) == ["circuit"]
