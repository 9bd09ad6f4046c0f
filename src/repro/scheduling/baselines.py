"""Comparison baselines for the schedule optimization (Table II columns).

* ``conv.`` — conventional FAST without monitors: only standard flip-flops
  observe responses, so the schedulable fault set and the candidate
  frequencies come from the FF detection ranges alone.
* ``heur.`` — the greedy heuristic selection in the spirit of [17]: same
  monitor-extended detection data as the proposed method, but both covering
  steps use the greedy heuristic instead of the exact ILP.
* ``prop.`` — the proposed method: monitors + two-step ILP
  (:func:`repro.scheduling.schedule.optimize_schedule` with ``solver="ilp"``).
"""

from __future__ import annotations

from repro.faults.classify import FaultClassification
from repro.faults.detection import DetectionData
from repro.monitors.monitor import MonitorConfigSet
from repro.scheduling.schedule import ScheduleResult, optimize_schedule
from repro.scheduling.setcover import DEFAULT_TIME_LIMIT_S
from repro.timing.clock import ClockSpec
from repro.utils.profiling import StageTimer


def conventional_targets(classification: FaultClassification) -> frozenset[int]:
    """Faults conventional FAST must schedule: FF-detectable in the window
    but not already caught at-speed."""
    return frozenset(classification.conv_detected - classification.at_speed)


def conventional_schedule(
    data: DetectionData,
    classification: FaultClassification,
    clock: ClockSpec,
    *,
    solver: str = "ilp",
    time_limit: float = DEFAULT_TIME_LIMIT_S,
    timer: StageTimer | None = None,
) -> ScheduleResult:
    """Schedule for conventional FAST (no monitors, Table II col. 2)."""
    return optimize_schedule(
        data, conventional_targets(classification), clock, configs=None,
        solver=solver, time_limit=time_limit,  # type: ignore[arg-type]
        timer=timer)


def heuristic_schedule(
    data: DetectionData,
    classification: FaultClassification,
    clock: ClockSpec,
    configs: MonitorConfigSet,
    *,
    coverage: float = 1.0,
    timer: StageTimer | None = None,
) -> ScheduleResult:
    """Greedy monitor-aware schedule (the [17]-style heuristic, col. 3)."""
    return optimize_schedule(
        data, classification.target, clock, configs,
        coverage=coverage, solver="greedy", timer=timer)


def proposed_schedule(
    data: DetectionData,
    classification: FaultClassification,
    clock: ClockSpec,
    configs: MonitorConfigSet,
    *,
    coverage: float = 1.0,
    time_limit: float = DEFAULT_TIME_LIMIT_S,
    timer: StageTimer | None = None,
) -> ScheduleResult:
    """The paper's ILP schedule with programmable monitors (col. 4)."""
    return optimize_schedule(
        data, classification.target, clock, configs,
        coverage=coverage, solver="ilp", time_limit=time_limit,
        timer=timer)
