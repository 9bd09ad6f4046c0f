"""Fault classification — steps 1–5 of the test flow (Fig. 4).

Two stages mirror the paper:

* :func:`structural_prefilter` — topological analysis using STA slacks
  (step 1): faults whose minimum slack is below the fault size are *at-speed
  detectable* and removed; faults whose effects can never reach the
  observable window, even via monitor shifting, are *timing redundant*.
* :func:`classify_faults` — simulation-accurate classification from the
  detection ranges (steps 3–5): confirms at-speed detection, identifies
  *monitor-at-speed detectable* faults (a delay configuration makes them
  observable at nominal speed) and leaves the remaining detectable faults as
  the *target set* Φ_tar for FAST scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.detection import DetectionData
from repro.faults.models import SmallDelayFault
from repro.monitors.monitor import MonitorConfigSet
from repro.netlist.circuit import Circuit
from repro.timing.clock import ClockSpec
from repro.timing.sta import StaResult
from repro.utils.intervals import EPS


@dataclass
class StructuralFilterResult:
    """Outcome of the topological pre-analysis (step 1)."""

    at_speed: list[SmallDelayFault] = field(default_factory=list)
    redundant: list[SmallDelayFault] = field(default_factory=list)
    remaining: list[SmallDelayFault] = field(default_factory=list)


def structural_prefilter(
    circuit: Circuit,
    sta: StaResult,
    faults: list[SmallDelayFault],
    clock: ClockSpec,
    configs: MonitorConfigSet,
    monitored_gates: frozenset[int],
) -> StructuralFilterResult:
    """Topological fault screening before expensive simulation.

    *At-speed detectable*: the smallest structural slack through the site is
    below δ — an ordinary at-speed test already catches the fault.

    *Timing redundant*: even the longest structural path through the site
    plus δ lands below ``t_min``, and no monitor observes the site's fanout
    cone (or the largest monitor delay still cannot lift the effect into the
    window) — the fault is undetectable under any FAST frequency.
    """
    result = StructuralFilterResult()
    cone_cache: dict[int, set[int]] = {}
    for fault in faults:
        gate = fault.site.gate
        g = circuit.gates[gate]
        if fault.site.is_output_pin:
            site_arrival = sta.arrival_max[gate]
        else:
            # Paths through *this pin* only: the driver's latest arrival plus
            # the pin-to-output delay.  A fast side-input of a deep gate has
            # far more slack than the gate's critical input.
            rise, fall = g.pin_delays[fault.site.pin]
            site_arrival = (sta.arrival_max[g.fanin[fault.site.pin]]
                            + max(rise, fall))
        site_latest_path = site_arrival + sta._downstream_max[gate]
        if fault.delta > clock.t_nom - site_latest_path + EPS:
            result.at_speed.append(fault)
            continue
        latest_effect = site_latest_path + fault.delta
        if latest_effect < clock.t_min - EPS:
            if gate not in cone_cache:
                cone_cache[gate] = circuit.fanout_cone(gate) | {gate}
            sees_monitor = bool(cone_cache[gate] & monitored_gates)
            if (not sees_monitor
                    or latest_effect + configs.largest < clock.t_min - EPS):
                result.redundant.append(fault)
                continue
        result.remaining.append(fault)
    return result


@dataclass
class FaultClassification:
    """Simulation-accurate fault partition (Fig. 4 steps 3–5).

    All members hold indices into the ``num_faults`` classified faults.
    """

    num_faults: int
    conv_detected: set[int] = field(default_factory=set)
    prop_detected: set[int] = field(default_factory=set)
    at_speed: set[int] = field(default_factory=set)
    monitor_at_speed: set[int] = field(default_factory=set)
    timing_redundant: set[int] = field(default_factory=set)
    target: set[int] = field(default_factory=set)
    not_activated: set[int] = field(default_factory=set)

    @property
    def coverage_gain_percent(self) -> float:
        """Relative gain Δ% of prop. over conv. detection (Table I col. 8)."""
        if not self.conv_detected:
            return float("inf") if self.prop_detected else 0.0
        return (len(self.prop_detected) / len(self.conv_detected) - 1.0) * 100.0

    def summary(self) -> dict[str, int]:
        return {
            "faults": self.num_faults,
            "conv": len(self.conv_detected),
            "prop": len(self.prop_detected),
            "at_speed": len(self.at_speed),
            "monitor_at_speed": len(self.monitor_at_speed),
            "timing_redundant": len(self.timing_redundant),
            "target": len(self.target),
            "not_activated": len(self.not_activated),
        }


def classify_faults(data: DetectionData, clock: ClockSpec,
                    configs: MonitorConfigSet) -> FaultClassification:
    """Partition the fault list using simulated detection ranges.

    Definitions (w.r.t. the window ``[t_min, t_nom]``):

    * *conv. detected*  — FF range intersects the window (plain FAST),
    * *at-speed*        — FF range covers ``t_nom``,
    * *monitor-at-speed*— not at-speed, but some config shifts the monitor
      range onto ``t_nom``,
    * *prop. detected*  — FF range or any shifted monitor range intersects
      the window (monitors in play),
    * *timing redundant*— fault effects exist but none reach the window,
    * *target* Φ_tar    — prop. detected minus the two at-speed classes:
      exactly the faults whose detection requires FAST frequencies.

    All five classes come from one pass of the :class:`RangeTable`
    kernel over every fault at once.
    """
    cls = FaultClassification(num_faults=len(data.faults))
    t_min, t_nom = clock.t_min, clock.t_nom
    table = data.table
    delays = tuple(configs)

    def ids(faults: np.ndarray) -> set[int]:
        return set(np.unique(faults).tolist())

    activated = ids(table.faults) & set(range(cls.num_faults))
    cls.not_activated = set(range(cls.num_faults)) - activated
    cls.prop_detected = ids(table.observable(delays, t_min, t_nom).fault)
    cls.timing_redundant = activated - cls.prop_detected
    cls.conv_detected = ids(table.observable((), t_min, t_nom).fault) \
        & cls.prop_detected
    i_all = table.union_all()
    cls.at_speed = ids(i_all.fault[i_all.contains(t_nom)]) \
        & cls.prop_detected
    i_mon = table.union_mon()
    shifted_hit = np.zeros(i_mon.fault.size, dtype=bool)
    for d in delays:
        shifted_hit |= i_mon.contains(t_nom, shift=d)
    cls.monitor_at_speed = (ids(i_mon.fault[shifted_hit])
                            & cls.prop_detected) - cls.at_speed
    cls.target = cls.prop_detected - cls.at_speed - cls.monitor_at_speed
    return cls
