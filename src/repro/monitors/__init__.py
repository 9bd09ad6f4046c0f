"""Programmable delay monitor models (Sec. II-B / III of the paper).

A monitor is a shadow register observing a pseudo-primary output through a
selectable delay element, compared against the standard flip-flop by an XOR
gate.  The package covers the hardware model (:mod:`monitor`), placement at
long path ends (:mod:`insertion`) and guard-band aging alerts
(:mod:`alerts`).  The detection-range shift ``I_SR = I_FF + d`` itself is
applied by the range-table kernel,
:meth:`repro.faults.detection.RangeTable.combined`.
"""

from repro.monitors.monitor import MonitorConfigSet, ProgrammableDelayMonitor
from repro.monitors.insertion import MonitorPlacement, insert_monitors

__all__ = [
    "MonitorConfigSet",
    "ProgrammableDelayMonitor",
    "MonitorPlacement",
    "insert_monitors",
]
