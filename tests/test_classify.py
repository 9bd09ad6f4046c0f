"""Tests for fault classification (Fig. 4 steps 1-5)."""

from __future__ import annotations

import pytest

from repro.faults.classify import classify_faults, structural_prefilter
from repro.faults.universe import small_delay_fault_universe
from repro.monitors.insertion import insert_monitors
from repro.monitors.monitor import MonitorConfigSet
from repro.timing.clock import ClockSpec
from repro.timing.sta import run_sta
from repro.utils.intervals import EPS


class TestPartition:
    def test_classes_are_disjoint_and_cover(self, flow_result_small):
        cls = flow_result_small.classification
        n = cls.num_faults
        everything = (cls.not_activated | cls.timing_redundant
                      | cls.prop_detected)
        assert everything == set(range(n))
        assert not cls.not_activated & cls.prop_detected
        assert not cls.timing_redundant & cls.prop_detected
        # at_speed, monitor_at_speed, target partition prop_detected.
        assert (cls.at_speed | cls.monitor_at_speed | cls.target
                == cls.prop_detected)
        assert not cls.at_speed & cls.monitor_at_speed
        assert not cls.at_speed & cls.target
        assert not cls.monitor_at_speed & cls.target

    def test_conv_subset_of_prop(self, flow_result_small):
        cls = flow_result_small.classification
        assert cls.conv_detected <= cls.prop_detected

    def test_at_speed_faults_contain_t_nom(self, flow_result_small):
        cls = flow_result_small.classification
        data = flow_result_small.data
        t_nom = flow_result_small.clock.t_nom
        for fi in cls.at_speed:
            assert data.union_all(fi).contains(t_nom)

    def test_monitor_at_speed_needs_config(self, flow_result_small):
        cls = flow_result_small.classification
        data = flow_result_small.data
        clock = flow_result_small.clock
        configs = flow_result_small.configs
        for fi in cls.monitor_at_speed:
            assert not data.union_all(fi).contains(clock.t_nom)
            assert any(data.union_mon(fi).shifted(d).contains(clock.t_nom)
                       for d in configs)

    def test_target_faults_need_fast(self, flow_result_small):
        """Target faults are detectable in the window but not at t_nom."""
        cls = flow_result_small.classification
        data = flow_result_small.data
        clock = flow_result_small.clock
        configs = flow_result_small.configs
        for fi in cls.target:
            rng = data.detection_range(fi, tuple(configs),
                                       clock.t_min, clock.t_nom)
            assert not rng.is_empty
            assert not data.union_all(fi).contains(clock.t_nom)

    def test_timing_redundant_unobservable(self, flow_result_small):
        cls = flow_result_small.classification
        data = flow_result_small.data
        clock = flow_result_small.clock
        configs = flow_result_small.configs
        for fi in cls.timing_redundant:
            rng = data.detection_range(fi, tuple(configs),
                                       clock.t_min, clock.t_nom)
            assert rng.is_empty

    def test_summary_counts(self, flow_result_small):
        cls = flow_result_small.classification
        s = cls.summary()
        assert s["faults"] == len(flow_result_small.data.faults)
        assert s["prop"] == len(cls.prop_detected)
        assert (s["at_speed"] + s["monitor_at_speed"] + s["target"]
                == s["prop"])

    def test_gain_percent(self, flow_result_small):
        cls = flow_result_small.classification
        if cls.conv_detected:
            expected = (len(cls.prop_detected) / len(cls.conv_detected)
                        - 1.0) * 100.0
            assert cls.coverage_gain_percent == pytest.approx(expected)


class TestStructuralPrefilter:
    @pytest.fixture()
    def setup(self, small_generated):
        sta = run_sta(small_generated)
        clock = ClockSpec(sta.clock_period)
        configs = MonitorConfigSet.paper_default(clock.t_nom)
        placement = insert_monitors(small_generated, sta, configs)
        faults = small_delay_fault_universe(small_generated)
        return small_generated, sta, clock, configs, placement, faults

    def test_partition_complete(self, setup):
        circuit, sta, clock, configs, placement, faults = setup
        res = structural_prefilter(circuit, sta, faults, clock, configs,
                                   placement.monitored_gates)
        assert (len(res.at_speed) + len(res.redundant) + len(res.remaining)
                == len(faults))

    def test_at_speed_have_small_site_slack(self, setup):
        circuit, sta, clock, configs, placement, faults = setup
        res = structural_prefilter(circuit, sta, faults, clock, configs,
                                   placement.monitored_gates)
        for fault in res.at_speed:
            gate = fault.site.gate
            g = circuit.gates[gate]
            if fault.site.is_output_pin:
                arr = sta.arrival_max[gate]
            else:
                rise, fall = g.pin_delays[fault.site.pin]
                arr = (sta.arrival_max[g.fanin[fault.site.pin]]
                       + max(rise, fall))
            slack = clock.t_nom - (arr + sta._downstream_max[gate])
            assert fault.delta > slack - EPS

    @staticmethod
    def _site_latest(circuit, sta, fault):
        gate = fault.site.gate
        g = circuit.gates[gate]
        if fault.site.is_output_pin:
            arr = sta.arrival_max[gate]
        else:
            rise, fall = g.pin_delays[fault.site.pin]
            arr = (sta.arrival_max[g.fanin[fault.site.pin]]
                   + max(rise, fall))
        return arr + sta._downstream_max[gate] + fault.delta

    def test_redundant_effects_below_window(self, setup):
        circuit, sta, clock, configs, placement, faults = setup
        res = structural_prefilter(circuit, sta, faults, clock, configs,
                                   placement.monitored_gates)
        for fault in res.redundant:
            assert self._site_latest(circuit, sta, fault) < clock.t_min

    def test_prefilter_is_sound_wrt_simulation(self, flow_result_small):
        """Nothing the simulation can detect in the FAST window was
        structurally discarded: target faults all come from `remaining`."""
        # flow ran with the prefilter on; every simulated fault is from
        # `remaining`, so targets exist => prefilter did not over-prune.
        assert flow_result_small.prefilter is not None
        assert len(flow_result_small.classification.target) > 0

    def test_monitored_cone_rescues_shiftable_faults(self, setup):
        """Faults below the window but observed by a monitor must be kept
        when the largest delay can lift them in."""
        circuit, sta, clock, configs, placement, faults = setup
        res = structural_prefilter(circuit, sta, faults, clock, configs,
                                   placement.monitored_gates)
        for fault in res.remaining:
            latest = self._site_latest(circuit, sta, fault)
            if latest < clock.t_min - EPS:
                cone = circuit.fanout_cone(fault.site.gate) | {fault.site.gate}
                assert cone & placement.monitored_gates
                assert latest + configs.largest >= clock.t_min - EPS
