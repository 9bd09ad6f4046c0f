"""Static timing analysis over the combinational core.

Computes per-gate earliest/latest arrival times (min over the fast pin/edge,
max over the slow pin/edge), the critical path length, and per-gate slack
with respect to a clock period.  The nominal clock of a circuit is defined as
``clk = 1.05 * cpl`` (critical path length plus 5 % margin, Sec. V).

The analysis is structural (topological, no false-path analysis), which is
the standard pessimistic model for FAST planning: a fault is *potentially*
at-speed detectable when its minimum structural slack is below the fault
size; explicit waveform simulation then confirms actual detection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.circuit import Circuit, GateKind

#: Clock margin on top of the critical path (Sec. V: clk = 1.05 * cpl).
CLOCK_MARGIN = 1.05


@dataclass
class StaResult:
    """Arrival/required/slack data for one circuit."""

    arrival_max: list[float]
    arrival_min: list[float]
    required: list[float]
    critical_path: float
    clock_period: float

    def slack_max_path(self, gate: int) -> float:
        """Slack of the longest path through ``gate`` w.r.t. the clock."""
        return self.clock_period - (self.arrival_max[gate]
                                    + self._downstream_max[gate])

    def min_slack(self, gate: int) -> float:
        """Smallest slack of any structural path through ``gate``.

        This bounds at-speed detectability: a delay fault of size δ at the
        gate can cause a nominal-period failure only if δ > min_slack.
        """
        return self.slack_max_path(gate)

    def max_slack(self, gate: int) -> float:
        """Largest slack of any path through ``gate`` (shortest path)."""
        return self.clock_period - (self.arrival_min[gate]
                                    + self._downstream_min[gate])

    # populated by run_sta
    _downstream_max: list[float] = None  # type: ignore[assignment]
    _downstream_min: list[float] = None  # type: ignore[assignment]


def run_sta(circuit: Circuit, *, clock_period: float | None = None) -> StaResult:
    """Run STA; if ``clock_period`` is None, derive it from the critical path."""
    if not circuit.is_finalized:
        raise ValueError("circuit must be finalized before STA")
    n = len(circuit.gates)
    a_max = [0.0] * n
    a_min = [0.0] * n
    for idx in circuit.topo_order:
        g = circuit.gates[idx]
        if not GateKind.is_combinational(g.kind):
            continue
        maxes = []
        mins = []
        for pin, src in enumerate(g.fanin):
            rise, fall = g.pin_delays[pin]
            maxes.append(a_max[src] + max(rise, fall))
            mins.append(a_min[src] + min(rise, fall))
        a_max[idx] = max(maxes)
        a_min[idx] = min(mins)

    observed = {op.gate for op in circuit.observation_points()}
    cpl = max((a_max[g] for g in observed), default=0.0)
    period = clock_period if clock_period is not None else CLOCK_MARGIN * cpl

    # Downstream (gate output -> any observation point) longest/shortest path.
    down_max = [float("-inf")] * n
    down_min = [float("inf")] * n
    for g in observed:
        down_max[g] = max(down_max[g], 0.0)
        down_min[g] = min(down_min[g], 0.0)
    for idx in reversed(circuit.topo_order):
        for consumer, pin in circuit.fanouts(idx):
            cg = circuit.gates[consumer]
            if not GateKind.is_combinational(cg.kind):
                continue
            if down_max[consumer] == float("-inf"):
                continue
            rise, fall = cg.pin_delays[pin]
            down_max[idx] = max(down_max[idx],
                                down_max[consumer] + max(rise, fall))
            down_min[idx] = min(down_min[idx],
                                down_min[consumer] + min(rise, fall))

    # Gates with no path to any observation point: give them full-period slack.
    for i in range(n):
        if down_max[i] == float("-inf"):
            down_max[i] = -a_max[i]
        if down_min[i] == float("inf"):
            down_min[i] = period - a_min[i]

    required = [period - down_max[i] for i in range(n)]
    result = StaResult(
        arrival_max=a_max,
        arrival_min=a_min,
        required=required,
        critical_path=cpl,
        clock_period=period,
    )
    result._downstream_max = down_max
    result._downstream_min = down_min
    return result
