"""Hardware cost model for monitor insertion.

Programmable monitors are not free: each instance adds a shadow flip-flop,
a delay line per element, a selection MUX and an XOR comparator (Fig. 2a).
The related work the paper builds on ([13]) optimizes exactly this
penalty, so the reproduction ships the standard gate-equivalent (GE)
accounting used to weigh coverage gain against silicon area.

All values are in NAND2-gate equivalents, the conventional unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.monitors.insertion import MonitorPlacement
from repro.netlist.circuit import Circuit, GateKind

#: Typical gate-equivalent weights (NAND2 = 1.0).
GE_FLIP_FLOP = 6.0
GE_XOR2 = 2.5
GE_MUX_PER_INPUT = 1.75
GE_DELAY_ELEMENT_PER_PS = 0.08  # buffer chains: ~2 GE per 25 ps stage

#: GE weight per combinational cell kind for circuit area.
_KIND_GE = {
    GateKind.NOT: 0.67,
    GateKind.BUF: 1.0,
    GateKind.NAND: 1.0,
    GateKind.NOR: 1.0,
    GateKind.AND: 1.33,
    GateKind.OR: 1.33,
    GateKind.XOR: 2.5,
    GateKind.XNOR: 2.5,
}
_GE_PER_EXTRA_INPUT = 0.5


@dataclass(frozen=True)
class MonitorCost:
    """Gate-equivalent breakdown of one monitor placement."""

    monitors: int
    ge_per_monitor: float
    circuit_ge: float

    @property
    def total_ge(self) -> float:
        return self.monitors * self.ge_per_monitor

    @property
    def overhead_percent(self) -> float:
        """Monitor area relative to the bare circuit (incl. its FFs)."""
        if self.circuit_ge <= 0:
            return 0.0
        return 100.0 * self.total_ge / self.circuit_ge


def circuit_gate_equivalents(circuit: Circuit) -> float:
    """GE area of the bare circuit (combinational cells + flip-flops)."""
    total = 0.0
    for g in circuit.gates:
        if g.kind == GateKind.DFF:
            total += GE_FLIP_FLOP
        elif GateKind.is_combinational(g.kind):
            base = _KIND_GE[g.kind]
            total += base + _GE_PER_EXTRA_INPUT * max(0, g.arity - 2)
    return total


def monitor_gate_equivalents(placement: MonitorPlacement) -> float:
    """GE area of one monitor instance under the placement's config set.

    Shadow FF + XOR + an n-input selection MUX + one buffer chain per
    delay element, sized by its delay value.
    """
    configs = placement.configs
    mux = GE_MUX_PER_INPUT * len(configs)
    delay_lines = sum(GE_DELAY_ELEMENT_PER_PS * d for d in configs)
    return GE_FLIP_FLOP + GE_XOR2 + mux + delay_lines


def placement_cost(circuit: Circuit,
                   placement: MonitorPlacement) -> MonitorCost:
    """Full cost report for a monitor placement in ``circuit``."""
    return MonitorCost(
        monitors=placement.count,
        ge_per_monitor=monitor_gate_equivalents(placement),
        circuit_ge=circuit_gate_equivalents(circuit),
    )
