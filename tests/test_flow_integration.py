"""End-to-end tests of the HDF test flow (Fig. 4)."""

from __future__ import annotations

import pytest

from repro.core import FlowConfig, HdfTestFlow
from repro.monitors.monitor import PAPER_DELAY_FRACTIONS
from repro.simulation.wave_sim import WaveformSimulator
from repro.timing.variation import SIGMA_FRACTION


class TestFlowConfig:
    def test_defaults_match_paper(self):
        cfg = FlowConfig()
        assert cfg.fast_ratio == 3.0
        assert cfg.monitor_fraction == 0.25
        assert cfg.monitor_delay_fractions == PAPER_DELAY_FRACTIONS
        assert cfg.n_sigma == 6.0
        assert SIGMA_FRACTION == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(fast_ratio=0.5)
        with pytest.raises(ValueError):
            FlowConfig(monitor_fraction=2.0)
        with pytest.raises(ValueError):
            FlowConfig(pattern_cap=0)
        with pytest.raises(ValueError):
            FlowConfig(coverage_targets=(1.5,))


class TestFlowRun:
    def test_requires_finalized_circuit(self):
        from repro.netlist.circuit import Circuit
        c = Circuit("x")
        c.add_input("a")
        with pytest.raises(ValueError):
            HdfTestFlow(c)

    def test_result_fields_populated(self, flow_result_small):
        res = flow_result_small
        assert res.universe_size > 0
        assert res.prefilter is not None
        assert res.atpg is not None
        assert len(res.test_set) > 0
        assert res.data.faults
        assert set(res.schedules) == {"conv", "heur", "prop"}

    def test_clock_derived_from_sta(self, flow_result_small):
        res = flow_result_small
        assert res.clock.t_nom == pytest.approx(res.sta.clock_period)
        assert res.clock.fast_ratio == 3.0

    def test_monitor_configs_scaled_to_clock(self, flow_result_small):
        res = flow_result_small
        fractions = sorted(PAPER_DELAY_FRACTIONS)
        for d, f in zip(res.configs, fractions):
            assert d == pytest.approx(f * res.clock.t_nom)

    def test_prop_detects_at_least_conv(self, flow_result_small):
        assert flow_result_small.prop_hdf_detected >= \
            flow_result_small.conv_hdf_detected

    def test_table_rows_consistent(self, flow_result_small):
        r1 = flow_result_small.table1_row()
        assert r1["targets"] == len(flow_result_small.classification.target)
        assert r1["monitors"] == flow_result_small.placement.count
        r2 = flow_result_small.table2_row()
        assert r2["freq_prop"] == \
            flow_result_small.schedules["prop"].num_frequencies
        r3 = flow_result_small.table3_row()
        assert "F_95" in r3 and "S_90" in r3

    def test_summary_keys(self, flow_result_small):
        s = flow_result_small.summary()
        assert s["circuit"] == flow_result_small.circuit.name
        assert "freqs_prop" in s and "atpg_coverage" in s

    def test_progress_callback_invoked(self, s27):
        notes = []
        HdfTestFlow(s27, FlowConfig(atpg_seed=1)).run(
            with_schedules=False, progress=notes.append)
        assert any("fault simulation" in n for n in notes)

    def test_external_test_set(self, s27):
        from repro.atpg.patterns import random_test_set
        ts = random_test_set(s27, 12, seed=5)
        res = HdfTestFlow(s27, FlowConfig()).run(test_set=ts,
                                                 with_schedules=False)
        assert res.atpg is None
        assert len(res.test_set) == 12

    def test_pattern_cap(self, s27):
        res = HdfTestFlow(s27, FlowConfig(pattern_cap=4)).run(
            with_schedules=False)
        assert len(res.test_set) <= 4


class TestDeterminism:
    """Two runs of the full pipeline must agree bit for bit — any hidden
    iteration-order dependence would silently break reproducibility."""

    def test_flow_fully_deterministic(self, s27):
        def run():
            return HdfTestFlow(s27, FlowConfig(atpg_seed=9)).run(
                with_schedules=True)
        a, b = run(), run()
        assert a.table1_row() == b.table1_row()
        assert a.test_set.patterns == b.test_set.patterns
        assert a.classification.summary() == b.classification.summary()
        for name in ("conv", "heur", "prop"):
            assert a.schedules[name].entries == b.schedules[name].entries
            assert a.schedules[name].periods == \
                pytest.approx(b.schedules[name].periods)
        # Detection ranges themselves.
        assert set(a.data.ranges) == set(b.data.ranges)
        for fi in a.data.ranges:
            for pi, fpr in a.data.ranges[fi].items():
                assert b.data.ranges[fi][pi].i_all == fpr.i_all
                assert b.data.ranges[fi][pi].i_mon == fpr.i_mon


class TestMonitorSemanticsConsistency:
    """The interval math (detection ranges + shifts) and the hardware model
    (shadow register sampling at ``t - d``) must tell the same story."""

    def test_monitor_at_speed_faults_flag_shadow_mismatch(self,
                                                          flow_result_small):
        res = flow_result_small
        sim = WaveformSimulator(res.circuit)
        t_nom = res.clock.t_nom
        checked = 0
        for fi in sorted(res.classification.monitor_at_speed)[:10]:
            fault = res.data.faults[fi]
            # Find a pattern and config whose shifted range covers t_nom.
            found = False
            for pi, fpr in res.data.pairs_for_fault(fi):
                for ci, d in enumerate(res.configs):
                    if not fpr.i_mon.shifted(d).contains(t_nom):
                        continue
                    pattern = res.test_set[pi]
                    base = sim.simulate(pattern.launch, pattern.capture)
                    faulty = sim.simulate_fault(base, fault)
                    # Some monitored output's shadow register captures a
                    # different value in the faulty machine.
                    for og in res.placement.monitored_gates:
                        if base.waveforms[og].value_at(t_nom - d) != \
                                faulty.waveforms[og].value_at(t_nom - d):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            assert found, f"fault {fi}: shifted range not realized in hardware"
            checked += 1
        if res.classification.monitor_at_speed:
            assert checked > 0


class TestScheduleExecution:
    """Independent verification: executing a schedule entry really captures
    a faulty value for the fault it claims to cover."""

    def test_entries_capture_faults(self, flow_result_small):
        res = flow_result_small
        circuit = res.circuit
        sim = WaveformSimulator(circuit)
        configs = res.configs
        monitored = res.placement.monitored_gates
        prop = res.schedules["prop"]
        data = res.data

        # Map each target fault to one claimed (entry) and replay it.
        checked = 0
        for fi in sorted(prop.targets)[:25]:
            fault = data.faults[fi]
            entry = None
            for e in prop.entries:
                fpr = data.ranges.get(fi, {}).get(e.pattern)
                if fpr is None:
                    continue
                if fpr.i_all.contains(e.period) or (
                        e.config >= 0 and fpr.i_mon.shifted(
                            configs[e.config]).contains(e.period)):
                    entry = e
                    break
            assert entry is not None
            pattern = res.test_set[entry.pattern]
            base = sim.simulate(pattern.launch, pattern.capture)
            faulty = sim.simulate_fault(base, fault)
            t = entry.period
            d = configs[entry.config] if entry.config >= 0 else None
            obs_gates = {op.gate for op in circuit.observation_points()}
            miscaptured = False
            for og in obs_gates:
                g_wave = base.waveforms[og]
                f_wave = faulty.waveforms[og]
                if g_wave.value_at(t) != f_wave.value_at(t):
                    miscaptured = True  # standard FF sees the fault
                    break
                if d is not None and og in monitored and \
                        g_wave.value_at(t - d) != f_wave.value_at(t - d):
                    miscaptured = True  # shadow register sees the fault
                    break
            assert miscaptured, f"schedule entry fails to expose fault {fi}"
            checked += 1
        assert checked > 0
