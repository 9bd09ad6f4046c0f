"""Flow behavior under non-default configurations."""

from __future__ import annotations

import pytest

from repro.core import FlowConfig, HdfTestFlow


@pytest.fixture(scope="module")
def circuit():
    from repro.circuits.generators import CircuitProfile, generate_circuit
    return generate_circuit(CircuitProfile(
        name="variant", n_gates=70, n_ffs=14, n_inputs=8, n_outputs=4,
        depth=7, seed=11, endpoint_side_gates=1))


class TestNoMonitors:
    @pytest.fixture(scope="class")
    def result(self, circuit):
        return HdfTestFlow(circuit, FlowConfig(
            monitor_fraction=0.0, atpg_seed=2)).run(with_schedules=True)

    def test_no_monitors_placed(self, result):
        assert result.placement.count == 0

    def test_prop_equals_conv(self, result):
        assert result.prop_hdf_detected == result.conv_hdf_detected
        assert result.gain_percent == 0.0

    def test_no_monitor_at_speed_class(self, result):
        assert result.classification.monitor_at_speed == set()

    def test_schedules_agree_on_targets(self, result):
        # Without monitors the proposed method degenerates to conventional
        # FAST over the same fault set.
        conv = result.schedules["conv"]
        prop = result.schedules["prop"]
        assert prop.targets == conv.targets
        assert prop.num_frequencies == conv.num_frequencies


class TestFastRatio:
    def run_with_ratio(self, circuit, ratio):
        return HdfTestFlow(circuit, FlowConfig(
            fast_ratio=ratio, atpg_seed=2)).run(with_schedules=False)

    def test_wider_window_detects_more(self, circuit):
        narrow = self.run_with_ratio(circuit, 1.5)
        wide = self.run_with_ratio(circuit, 3.0)
        assert wide.conv_hdf_detected >= narrow.conv_hdf_detected
        assert wide.prop_hdf_detected >= narrow.prop_hdf_detected

    def test_window_bounds_follow_ratio(self, circuit):
        res = self.run_with_ratio(circuit, 2.0)
        assert res.clock.t_min == pytest.approx(res.clock.t_nom / 2.0)

    def test_degenerate_ratio_one(self, circuit):
        """f_max = f_nom: the window collapses to at-speed testing; nothing
        needs (or can use) FAST scheduling."""
        res = self.run_with_ratio(circuit, 1.0)
        # Faults are either at-speed detectable or unreachable.
        assert res.classification.target == set() or all(
            res.data.detection_range(
                fi, tuple(res.configs), res.clock.t_min,
                res.clock.t_nom).is_empty is False
            for fi in res.classification.target)


class TestMonitorFractionMonotonicity:
    def test_prop_detection_monotone_in_fraction(self, circuit):
        counts = []
        for frac in (0.0, 0.5, 1.0):
            res = HdfTestFlow(circuit, FlowConfig(
                monitor_fraction=frac, atpg_seed=2)).run(
                with_schedules=False)
            counts.append(res.prop_hdf_detected)
        assert counts == sorted(counts)
