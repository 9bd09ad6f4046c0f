"""Tests for the monitor hardware cost model."""

from __future__ import annotations

import pytest

from repro.monitors.cost import (
    GE_FLIP_FLOP,
    GE_XOR2,
    circuit_gate_equivalents,
    monitor_gate_equivalents,
    placement_cost,
)
from repro.monitors.insertion import insert_monitors
from repro.monitors.monitor import MonitorConfigSet
from repro.timing.sta import run_sta


@pytest.fixture()
def placements(small_generated):
    sta = run_sta(small_generated)
    configs = MonitorConfigSet.paper_default(sta.clock_period)
    return {
        frac: insert_monitors(small_generated, sta, configs, fraction=frac)
        for frac in (0.25, 1.0)
    }


class TestCircuitArea:
    def test_positive_and_scales_with_size(self, s27, small_generated):
        assert 0 < circuit_gate_equivalents(s27) < \
            circuit_gate_equivalents(small_generated)

    def test_includes_flip_flops(self, s27):
        total = circuit_gate_equivalents(s27)
        assert total >= s27.num_ffs * GE_FLIP_FLOP

    def test_wide_gates_cost_more(self):
        from repro.netlist.circuit import Circuit, GateKind
        def area(n):
            c = Circuit(f"w{n}")
            ins = [c.add_input(f"i{k}") for k in range(n)]
            g = c.add_gate("g", GateKind.NAND, ins)
            c.mark_output(g)
            return circuit_gate_equivalents(c.finalize())
        assert area(4) > area(2)


class TestMonitorArea:
    def test_components_counted(self, placements):
        p = placements[0.25]
        ge = monitor_gate_equivalents(p)
        assert ge > GE_FLIP_FLOP + GE_XOR2  # MUX and delay lines on top

    def test_more_configs_cost_more(self, small_generated):
        sta = run_sta(small_generated)
        small = insert_monitors(small_generated, sta,
                                MonitorConfigSet((10.0,)))
        large = insert_monitors(small_generated, sta,
                                MonitorConfigSet((10.0, 20.0, 40.0, 100.0)))
        assert monitor_gate_equivalents(large) > \
            monitor_gate_equivalents(small)

    def test_longer_delays_cost_more(self, small_generated):
        sta = run_sta(small_generated)
        short = insert_monitors(small_generated, sta,
                                MonitorConfigSet((5.0,)))
        long = insert_monitors(small_generated, sta,
                               MonitorConfigSet((100.0,)))
        assert monitor_gate_equivalents(long) > \
            monitor_gate_equivalents(short)


class TestPlacementCost:
    def test_overhead_scales_with_fraction(self, small_generated,
                                           placements):
        quarter = placement_cost(small_generated, placements[0.25])
        full = placement_cost(small_generated, placements[1.0])
        assert full.total_ge > quarter.total_ge
        assert full.overhead_percent > quarter.overhead_percent

    def test_overhead_shrinks_with_logic_to_ff_ratio(self):
        """Monitor count scales with the FF count while circuit area scales
        with the gate count, so logic-rich designs (high gates-per-FF, the
        norm in real circuits) pay relatively less — the regime that makes
        monitor reuse attractive."""
        from repro.circuits.generators import CircuitProfile, generate_circuit
        def overhead(n_gates):
            profile = CircuitProfile(
                name=f"r{n_gates}", n_gates=n_gates, n_ffs=12, n_inputs=10,
                n_outputs=4, depth=8, seed=4, endpoint_side_gates=0)
            c = generate_circuit(profile)
            sta = run_sta(c)
            configs = MonitorConfigSet.paper_default(sta.clock_period)
            placement = insert_monitors(c, sta, configs, fraction=0.25)
            return placement_cost(c, placement).overhead_percent
        lean, rich = overhead(60), overhead(300)
        assert 0.0 < rich < lean

    def test_zero_monitors_zero_cost(self, small_generated):
        sta = run_sta(small_generated)
        configs = MonitorConfigSet.paper_default(sta.clock_period)
        empty = insert_monitors(small_generated, sta, configs, fraction=0.0)
        cost = placement_cost(small_generated, empty)
        assert cost.total_ge == 0.0
        assert cost.overhead_percent == 0.0
