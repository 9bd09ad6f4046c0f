"""Timing-accurate simulation engines.

* :mod:`repro.simulation.logic` — boolean / ternary gate evaluation,
* :mod:`repro.simulation.waveform` — transition-list signal waveforms,
* :mod:`repro.simulation.wave_sim` — topological waveform simulator with
  pin-to-pin rise/fall delays and fanout-cone faulty resimulation (the
  CPU stand-in for the GPU simulator [20] used in the paper),
* :mod:`repro.simulation.parallel_sim` — 64-way bit-parallel two-valued
  simulator used by the ATPG for fault dropping,
* :mod:`repro.simulation.event_sim` — event-driven reference engine used to
  cross-check the topological simulator in tests,
* :mod:`repro.simulation.word_wave` — batched array-kernel timed waveform
  engine (flat event arrays, levelized merge kernels); the detection
  stage's engine, parity-checked against the incremental path
  (:func:`repro.faults.detection.incremental_detection_data`) built on
  :mod:`repro.simulation.wave_sim`.
"""

from repro.simulation.waveform import Waveform
from repro.simulation.wave_sim import WaveformSimulator

__all__ = ["Waveform", "WaveformSimulator"]
