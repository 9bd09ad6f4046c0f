"""Detection-range extraction via timing-accurate fault simulation.

For every (fault, pattern) pair the faulty and fault-free waveforms at each
observation point are XOR-ed; intervals narrower than the pulse-filter
threshold are discarded pessimistically (Fig. 1).  Two interval sets are kept
per pair (Sec. III-B):

* ``i_all`` — union over *all* observation points: detection range of the
  standard capture flip-flops,
* ``i_mon`` — union over *monitored* observation points, before the monitor
  delay shift; a configuration ``d`` detects at period ``t`` iff
  ``t ∈ i_all ∪ (i_mon + d)``.

Ranges are stored unclipped in ``[0, horizon]`` (``horizon = t_nom``): the
portion below ``t_min`` is unobservable by flip-flops but becomes relevant
once shifted by a monitor delay, which is precisely the paper's mechanism for
recovering otherwise hidden faults.

Engine: the default ``"wordwave"`` engine runs the whole fault universe
through batched NumPy array kernels (:mod:`repro.simulation.word_wave`) —
flat event arrays merged in levelized order, with activation, injection and
interval extraction all vectorized across (fault, pattern) instances.  The
``"incremental"`` engine combines a bit-parallel activation pre-grading pass
with the change-driven cone-schedule fault simulator
(:meth:`WaveformSimulator.simulate_fault`) and doubles as the fallback for
workloads outside the array kernels' envelope.  Both produce
bit-identical :class:`DetectionData` (``tests/test_wordwave_golden.py``),
pinned by ``tests/test_detection_golden.py`` and checked against the
definition above by ``tests/test_detection_rule.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.atpg.patterns import TestSet
from repro.faults.models import SmallDelayFault
from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.parallel_sim import BitParallelSimulator
from repro.simulation.wave_sim import DEFAULT_INERTIAL_PS, WaveformSimulator
from repro.utils.cache import LruCache
from repro.utils.intervals import IntervalAccumulator, IntervalSet
from repro.utils.profiling import StageTimer

#: Recognized values of the ``engine`` parameter.
ENGINES = ("wordwave", "incremental")

#: Bound of the per-data schedule-candidate memo (``_sched_cache``): one
#: flow run queries at most a handful of distinct (targets, configs,
#: window) tuples, so a small window keeps every live key resident while
#: capping growth across ad-hoc queries.
SCHED_CACHE_SIZE = 8


@dataclass(frozen=True)
class FaultPatternRange:
    """Raw detection ranges of one fault under one pattern."""

    i_all: IntervalSet
    i_mon: IntervalSet

    @property
    def is_empty(self) -> bool:
        return self.i_all.is_empty and self.i_mon.is_empty


@dataclass
class DetectionData:
    """Sparse (fault, pattern) → detection-range table plus aggregates."""

    circuit: Circuit
    faults: list[SmallDelayFault]
    patterns: TestSet
    horizon: float
    monitored_gates: frozenset[int]
    #: fault index -> {pattern index -> ranges}; only non-empty entries exist.
    ranges: dict[int, dict[int, FaultPatternRange]] = field(default_factory=dict)
    _union_all: dict[int, IntervalSet] = field(default_factory=dict, repr=False)
    _union_mon: dict[int, IntervalSet] = field(default_factory=dict, repr=False)
    #: (fault, configs, window) -> clipped observable range; the schedule
    #: optimizer queries the same configuration tuple for every fault in a
    #: loop, so rebuilding the shifted union each call dominates otherwise.
    _det_range: dict[tuple[int, tuple[float, ...], float, float], IntervalSet] \
        = field(default_factory=dict, repr=False)
    #: (targets, configs, window, policy) -> (ranges, CandidateSet); the
    #: schedule optimizer's discretization cache — the heuristic, proposed
    #: and relaxed-coverage schedules all share one candidate set.  Bounded:
    #: distinct candidate-set keys (different target sets, windows, prune
    #: policies) used to accumulate without limit; the LRU keeps the most
    #: recent ones and counts hits/misses for ``repro flow --verbose``.
    _sched_cache: LruCache = field(
        default_factory=lambda: LruCache(maxsize=SCHED_CACHE_SIZE),
        repr=False)

    def add(self, fault_idx: int, pattern_idx: int,
            fpr: FaultPatternRange) -> None:
        self.ranges.setdefault(fault_idx, {})[pattern_idx] = fpr
        self._union_all.pop(fault_idx, None)
        self._union_mon.pop(fault_idx, None)
        if self._det_range:
            for key in [k for k in self._det_range if k[0] == fault_idx]:
                del self._det_range[key]
        self._sched_cache.clear()

    def pairs_for_fault(self, fault_idx: int) -> list[tuple[int, FaultPatternRange]]:
        """All patterns with a non-empty range for the fault."""
        return sorted(self.ranges.get(fault_idx, {}).items())

    def union_all(self, fault_idx: int) -> IntervalSet:
        """Union of ``i_all`` over all patterns (FF detection range of φ)."""
        if fault_idx not in self._union_all:
            acc = IntervalAccumulator()
            for fpr in self.ranges.get(fault_idx, {}).values():
                acc.add(fpr.i_all)
            self._union_all[fault_idx] = acc.build()
        return self._union_all[fault_idx]

    def union_mon(self, fault_idx: int) -> IntervalSet:
        """Union of pre-shift ``i_mon`` over all patterns."""
        if fault_idx not in self._union_mon:
            acc = IntervalAccumulator()
            for fpr in self.ranges.get(fault_idx, {}).values():
                acc.add(fpr.i_mon)
            self._union_mon[fault_idx] = acc.build()
        return self._union_mon[fault_idx]

    def detection_range(self, fault_idx: int, configs: Sequence[float],
                        t_min: float, t_nom: float) -> IntervalSet:
        """Observable detection range ``I(φ)`` with monitors (Sec. III-B):
        ``I_FF ∪ ⋃_{d∈C}(I_mon + d)`` clipped to ``[t_min, t_nom]``.

        Memoized per (fault, configuration tuple, window): the schedule
        optimizer evaluates the same configuration set for every fault and
        candidate period, so each union is built exactly once.
        """
        key = (fault_idx, tuple(configs), t_min, t_nom)
        cached = self._det_range.get(key)
        if cached is not None:
            return cached
        acc = IntervalAccumulator()
        acc.add(self.union_all(fault_idx))
        mon = self.union_mon(fault_idx)
        for d in key[1]:
            acc.add(mon.shifted(d))
        result = acc.build().clipped(t_min, t_nom)
        self._det_range[key] = result
        return result

    def faults_with_ranges(self) -> set[int]:
        return set(self.ranges)


def _prepare_reach(circuit: Circuit, faults: Sequence[SmallDelayFault]
                   ) -> tuple[list[list[int]], list[int]]:
    """Per fault: reachable observation gates and the site's signal gate."""
    obs_gates = {op.gate for op in circuit.observation_points()}
    reach: list[list[int]] = []
    site_signal: list[int] = []
    cone_cache: dict[int, frozenset[int]] = {}
    for f in faults:
        g = f.site.gate
        if g not in cone_cache:
            cone_cache[g] = circuit.fanout_cone(g) | {g}
        reach.append(sorted(cone_cache[g] & obs_gates))
        site_signal.append(f.site.signal_gate(circuit))
    return reach, site_signal


def _pregrade_activation(circuit: Circuit, patterns: TestSet,
                         site_signal: Sequence[int]) -> list[int] | None:
    """Bit-parallel activation pre-grading: per-fault pattern bitmasks.

    One packed :class:`BitParallelSimulator` sweep over the launch/capture
    toggle words prunes every (fault, pattern) pair whose site signal is
    provably constant — no transition of either polarity, hazards included —
    before any waveform is simulated.  Bit ``p`` of entry ``fi`` is set when
    pattern ``p`` *may* activate fault ``fi``; the cheap per-pattern
    polarity check on the actual waveform stays as the exact second stage.

    Returns None (grading disabled) when the patterns still contain
    don't-cares, which cannot be packed.
    """
    n = len(patterns)
    if n == 0 or any(p.has_dont_cares for p in patterns):
        return None
    bp = BitParallelSimulator(circuit)
    launch_words, width = bp.pack_vectors([p.launch for p in patterns])
    capture_words, _ = bp.pack_vectors([p.capture for p in patterns])
    toggles = {idx: launch_words[idx] ^ capture_words[idx]
               for idx in launch_words}
    # Constant generators never toggle regardless of the packed vector bits.
    for idx in toggles:
        kind = circuit.gates[idx].kind
        if kind == GateKind.CONST0 or kind == GateKind.CONST1:
            toggles[idx] = 0
    activity = bp.activity_words(toggles, width)
    return [activity[sg] for sg in site_signal]


def _simulate_one_pattern(
    sim: WaveformSimulator,
    faults: Sequence[SmallDelayFault],
    reach: list[list[int]],
    site_signal: list[int],
    pattern,
    pattern_idx: int,
    *,
    horizon: float,
    monitored: frozenset[int],
    glitch_threshold: float,
    active_masks: Sequence[int] | None = None,
    timer: StageTimer | None = None,
) -> list[tuple[int, FaultPatternRange]]:
    """Ranges of every activated fault under one pattern."""
    t0 = time.perf_counter() if timer is not None else 0.0
    base = sim.simulate(pattern.launch, pattern.capture)
    if timer is not None:
        timer.add("base_sim", time.perf_counter() - t0)
    base_waves = base.waveforms
    bit = 1 << pattern_idx
    out: list[tuple[int, FaultPatternRange]] = []
    for fi, fault in enumerate(faults):
        if not reach[fi]:
            continue
        # Stage 1 (bit-parallel pre-grading): site provably constant.
        if active_masks is not None and not (active_masks[fi] & bit):
            continue
        # Stage 2 (exact): the fault only matters when the signal at its
        # site has a transition of the faulted polarity.
        sig_wave = base_waves[site_signal[fi]]
        if not sig_wave.has_transition(rising=fault.slow_to_rise):
            continue
        if timer is not None:
            t0 = time.perf_counter()
        faulty = sim.simulate_fault(base, fault)
        if timer is not None:
            t1 = time.perf_counter()
            timer.add("faulty_sim", t1 - t0)
        i_all = IntervalAccumulator()
        i_mon = IntervalAccumulator()
        faulty_waves = faulty.waveforms
        for og in reach[fi]:
            bw = base_waves[og]
            fw = faulty_waves[og]
            if fw is bw:
                continue  # shared object: untouched by the fault
            diff = bw.diff_intervals(fw, horizon)
            if diff.is_empty:
                continue
            diff = diff.filter_glitches(glitch_threshold)
            if diff.is_empty:
                continue
            i_all.add(diff)
            if og in monitored:
                i_mon.add(diff)
        if not (i_all.is_empty and i_mon.is_empty):
            out.append((fi, FaultPatternRange(i_all.build(), i_mon.build())))
        if timer is not None:
            timer.add("intervals", time.perf_counter() - t1)
    return out


def compute_detection_data(
    circuit: Circuit,
    faults: Sequence[SmallDelayFault],
    patterns: TestSet,
    *,
    horizon: float,
    monitored_gates: Iterable[int] = (),
    inertial: float = DEFAULT_INERTIAL_PS,
    glitch_threshold: float | None = None,
    progress: Callable[[int, int], None] | None = None,
    engine: str = "wordwave",
    timer: StageTimer | None = None,
) -> DetectionData:
    """Simulate every pattern against every (activated) fault.

    ``monitored_gates`` are the driving-gate indices of observation points
    that carry a delay monitor.  ``glitch_threshold`` defaults to the
    inertial threshold.  ``progress(done, total)`` is called once per pattern
    when provided; ``done`` counts patterns in pattern order, so
    ``done - 1`` is always the index of the pattern just finished.  The
    ``wordwave`` engine simulates all patterns in one batched sweep and
    reports ``progress(total, total)`` once at the end.

    ``engine`` selects ``"wordwave"`` (batched NumPy array kernels over flat
    event storage; default) or ``"incremental"`` (bit-parallel pre-grading
    + change-driven cone-schedule propagation).  Both return bit-identical
    data; ``wordwave`` falls back to ``incremental`` for workloads outside
    its envelope (don't-care patterns, gate kinds without truth-table
    kernels, fan-in above the kernel limit, or a degenerate inertial
    threshold).  ``timer``, when given, accumulates the per-stage
    wall-clock split (``pregrade`` / ``base_sim`` / ``site_inject`` /
    ``faulty_sim`` / ``intervals``).
    """
    if glitch_threshold is None:
        glitch_threshold = inertial
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    monitored = frozenset(monitored_gates)
    data = DetectionData(
        circuit=circuit,
        faults=list(faults),
        patterns=patterns,
        horizon=horizon,
        monitored_gates=monitored,
    )
    total = len(patterns)

    if engine == "wordwave":
        from repro.simulation.word_wave import (run_wordwave,
                                                wordwave_fallback_reason)
        reason = wordwave_fallback_reason(circuit, patterns, inertial)
        if reason is None and run_wordwave(
                data, inertial=inertial,
                glitch_threshold=glitch_threshold, timer=timer):
            if progress is not None:
                progress(total, total)
            return data
        # Workload outside the array kernels' envelope (don't-cares, exotic
        # gate kinds or fault sites, degenerate inertial): the incremental
        # engine produces the identical DetectionData, just event-driven.
        engine = "incremental"

    # Per-fault reachable observation gates: only the event-driven engine
    # walks explicit cone lists (wordwave decides eligibility on its plan's
    # reachability bitmap instead).
    reach, site_signal = _prepare_reach(circuit, data.faults)

    active_masks: list[int] | None = None
    if data.faults:
        t0 = time.perf_counter() if timer is not None else 0.0
        active_masks = _pregrade_activation(circuit, patterns, site_signal)
        if timer is not None:
            timer.add("pregrade", time.perf_counter() - t0)

    sim = WaveformSimulator(circuit, inertial=inertial)
    for pi, pattern in enumerate(patterns):
        for fi, fpr in _simulate_one_pattern(
                sim, data.faults, reach, site_signal, pattern, pi,
                horizon=horizon, monitored=monitored,
                glitch_threshold=glitch_threshold,
                active_masks=active_masks, timer=timer):
            data.add(fi, pi, fpr)
        if progress is not None:
            progress(pi + 1, total)
    return data
