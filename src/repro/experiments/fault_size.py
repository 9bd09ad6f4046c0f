"""Fault-size sensitivity: how the δ = 6σ choice shapes the experiment.

The paper sizes small delay faults at δ = 6σ "to model degraded or
marginal devices" (Sec. III).  This sweep reruns the flow at other
multiples of σ and reports how the fault population redistributes:

* the at-speed class grows monotonically with δ (bigger faults exceed
  more path slacks),
* the *relative monitor gain* is largest for the smallest faults: tiny
  marginal delays produce short, early detection intervals that only the
  shifted shadow registers can observe — the early-life-failure story in
  one curve,
* very large faults are increasingly caught by ordinary at-speed test,
  eroding the population FAST scheduling has to cover.

δ = 6σ sits in the transition region with both a substantial hidden
population and a pronounced monitor gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.library import paper_suite, suite_circuit
from repro.core.config import DEFAULT_ATPG_SEED, FlowConfig
from repro.core.flow import HdfTestFlow


@dataclass(frozen=True)
class FaultSizePoint:
    """Flow outcome at one fault size."""

    n_sigma: float
    universe: int
    at_speed_structural: int
    at_speed_simulated: int
    conv_detected: int
    prop_detected: int
    targets: int
    timing_redundant: int

    @property
    def gain_percent(self) -> float:
        if self.conv_detected == 0:
            return float("inf") if self.prop_detected else 0.0
        return (self.prop_detected / self.conv_detected - 1.0) * 100.0

    @property
    def at_speed_total(self) -> int:
        return self.at_speed_structural + self.at_speed_simulated

    def row(self) -> dict[str, object]:
        return {
            "n_sigma": self.n_sigma,
            "universe": self.universe,
            "at_speed": self.at_speed_total,
            "conv": self.conv_detected,
            "prop": self.prop_detected,
            "gain_%": round(self.gain_percent, 1),
            "targets": self.targets,
            "redundant": self.timing_redundant,
        }


def fault_size_sweep(circuit_name: str = "s13207", *,
                     n_sigmas: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 12.0),
                     scale: float = 0.5,
                     pattern_cap: int | None = None,
                     seed: int = DEFAULT_ATPG_SEED) -> list[FaultSizePoint]:
    """Run the flow at each fault size on the same circuit and patterns."""
    entry = paper_suite([circuit_name])[0]
    cap = (pattern_cap if pattern_cap is not None
           else entry.pattern_budget(scale=scale))
    points: list[FaultSizePoint] = []
    for n_sigma in n_sigmas:
        circuit = suite_circuit(circuit_name, scale=scale)
        config = FlowConfig(n_sigma=n_sigma, pattern_cap=cap, atpg_seed=seed)
        result = HdfTestFlow(circuit, config).run(with_schedules=False)
        cls = result.classification
        points.append(FaultSizePoint(
            n_sigma=n_sigma,
            universe=result.universe_size,
            at_speed_structural=len(result.prefilter.at_speed),
            at_speed_simulated=len(cls.at_speed),
            conv_detected=result.conv_hdf_detected,
            prop_detected=result.prop_hdf_detected,
            targets=len(cls.target),
            timing_redundant=len(cls.timing_redundant),
        ))
    return points
