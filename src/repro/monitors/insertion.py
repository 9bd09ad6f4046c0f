"""Monitor placement at long path ends.

Following [25] and Sec. V of the paper, monitors are integrated at the ends
of the *longest* paths, covering a fraction (default 25 %) of the
pseudo-primary outputs: flip-flops terminating long paths are the first to
age into timing violations, and their shadow registers recover the most
otherwise-hidden faults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.monitors.monitor import MonitorBank, MonitorConfigSet, ProgrammableDelayMonitor
from repro.netlist.circuit import Circuit, ObservationPoint
from repro.timing.sta import StaResult

#: Fraction of pseudo-primary outputs that receive a monitor (Sec. V: 25 %).
DEFAULT_COVERAGE_FRACTION = 0.25


@dataclass
class MonitorPlacement:
    """Result of monitor insertion."""

    bank: MonitorBank
    points: list[ObservationPoint]
    configs: MonitorConfigSet

    @property
    def count(self) -> int:
        """|M|: number of inserted monitors (Table I column 5)."""
        return len(self.bank)

    @property
    def monitored_gates(self) -> frozenset[int]:
        """Driving-gate indices observed by a monitor."""
        return self.bank.gates()


def insert_monitors(
    circuit: Circuit,
    sta: StaResult,
    configs: MonitorConfigSet,
    *,
    fraction: float = DEFAULT_COVERAGE_FRACTION,
    include_primary_outputs: bool = False,
) -> MonitorPlacement:
    """Place monitors on the longest-path pseudo-primary outputs.

    PPOs are ranked by the maximum arrival time of their driving gate; the
    top ``fraction`` (at least one, if any PPO exists) get a monitor.  With
    ``include_primary_outputs`` the ranking additionally considers POs, for
    designs whose responses are captured on-chip.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    points = [op for op in circuit.observation_points()
              if op.is_pseudo or include_primary_outputs]
    ranked = sorted(points, key=lambda op: (-sta.arrival_max[op.gate], op.name))
    count = int(round(fraction * len(ranked)))
    if fraction > 0.0 and ranked:
        count = max(1, count)
    chosen = ranked[:count]

    bank = MonitorBank([
        ProgrammableDelayMonitor(name=f"mon:{op.name}", gate=op.gate,
                                 configs=configs)
        for op in chosen
    ])
    return MonitorPlacement(bank=bank, points=chosen, configs=configs)
