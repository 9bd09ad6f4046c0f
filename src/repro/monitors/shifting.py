"""Detection-range shifting math (Sec. III-B).

Delay elements shift the signal a monitor's shadow register observes, and
therefore shift a fault's detection range right along the time axis:
``I_SR(φ, o) = I_FF(φ, o) + d``.  These helpers implement the two effects the
paper exploits:

* recovering *unobservable* fault effects from ``(0, t_min)`` into the
  testable window, and
* widening the usable detection range across multiple configurations:
  ``I_SR(φ) = ⋃_{d ∈ C} (I_FF(φ) + d)``.
"""

from __future__ import annotations

from typing import Iterable

from repro.monitors.monitor import MonitorConfigSet
from repro.utils.intervals import IntervalAccumulator, IntervalSet


def shifted_union(i_mon: IntervalSet, configs: Iterable[float]) -> IntervalSet:
    """``⋃_{d∈C}(I_mon + d)`` — the shadow-register range over all configs."""
    acc = IntervalAccumulator()
    for d in configs:
        acc.add(i_mon.shifted(d))
    return acc.build()


def observable_range(i_all: IntervalSet, i_mon: IntervalSet,
                     configs: Iterable[float],
                     t_min: float, t_nom: float) -> IntervalSet:
    """Full observable range ``I(φ) = I_FF ∪ ⋃_d (I_SR + d)`` clipped to the
    FAST window (Definition 2 extended by Sec. III-B).

    The one-fault form of :meth:`repro.faults.detection.RangeTable.observable`,
    in the same float operation order: the shifted copies of ``i_mon`` and
    ``i_all`` are merged once, then clipped.
    """
    acc = IntervalAccumulator()
    acc.add(i_all)
    for d in configs:
        acc.add(i_mon.shifted(d))
    return acc.build().clipped(t_min, t_nom)


def range_for_config(i_all: IntervalSet, i_mon: IntervalSet, d: float,
                     t_min: float, t_nom: float) -> IntervalSet:
    """Observable range when one specific configuration ``d`` is active."""
    return observable_range(i_all, i_mon, (d,), t_min, t_nom)


def detecting_configs(i_mon: IntervalSet, configs: MonitorConfigSet,
                      period: float, *,
                      t_min: float, t_nom: float) -> list[int]:
    """Indices of configurations whose shifted range covers ``period``."""
    if not t_min <= period <= t_nom:
        return []
    return [idx for idx, d in enumerate(configs)
            if i_mon.shifted(d).contains(period)]


def recoverable_below_window(i_mon: IntervalSet, configs: MonitorConfigSet,
                             t_min: float, t_nom: float) -> IntervalSet:
    """Portion of a sub-``t_min`` range that some config makes observable.

    The paper notes a maximum monitor delay of ``t_nom / 3`` suffices to
    recover any range located in ``(0, t_nom/3)`` when ``f_max = 3 f_nom``.
    """
    hidden = i_mon.clipped(0.0, t_min)
    recovered = IntervalSet.empty()
    for d in configs:
        recovered = recovered.union(
            hidden.shifted(d).clipped(t_min, t_nom).shifted(-d))
    return recovered
