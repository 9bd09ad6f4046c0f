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

Everything downstream reads one flat view of these ranges,
:class:`RangeTable` (:meth:`DetectionData.range_table`): the pieces as
float arrays, and the one kernel that builds ``I(φ)`` for every fault at
once, used by classification, discretization and step 2 of the schedule.

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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.atpg.patterns import TestSet
from repro.faults.models import SmallDelayFault
from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.parallel_sim import BitParallelSimulator
from repro.simulation.wave_sim import DEFAULT_INERTIAL_PS, WaveformSimulator
from repro.utils.cache import LruCache
from repro.utils.intervals import (
    EPS,
    IntervalAccumulator,
    IntervalSet,
    _interval_set_from_sorted,
    _interval_unchecked,
)
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


def _concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, b) for a, b in zip(starts, stops)])``."""
    n = stops - starts
    total = int(n.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return (np.arange(total, dtype=np.int64)
            + np.repeat(starts - (np.cumsum(n) - n), n))


@dataclass(frozen=True)
class FlatRanges:
    """One interval set per fault, as flat arrays.

    Piece ``k`` is ``[lo[k], hi[k]]`` of fault ``fault[k]``.  Pieces are
    sorted by (fault, lo) and every fault's pieces are canonical in the
    :class:`IntervalSet` sense: lengths and gaps both exceed ``EPS``.
    """

    fault: np.ndarray        # int64
    lo: np.ndarray           # float64
    hi: np.ndarray           # float64
    _sets: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def empty(cls) -> "FlatRanges":
        return cls(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))

    @property
    def is_empty(self) -> bool:
        return self.fault.size == 0

    @property
    def faults(self) -> np.ndarray:
        """Faults with at least one piece, ascending."""
        return np.unique(self.fault)

    def select(self, faults: Iterable[int]) -> "FlatRanges":
        """The pieces of the given faults only."""
        keep = np.isin(self.fault, np.fromiter(faults, dtype=np.int64))
        return FlatRanges(self.fault[keep], self.lo[keep], self.hi[keep])

    def contains(self, t: float, shift: float = 0.0) -> np.ndarray:
        """Per piece: ``t`` lies in the piece shifted by ``shift``, with
        :meth:`IntervalSet.contains`'s ``EPS`` tolerance."""
        return (self.lo + shift - EPS <= t) & (t <= self.hi + shift + EPS)

    def interval_set(self, fault: int) -> IntervalSet:
        """The fault's pieces as an :class:`IntervalSet` (memoized)."""
        out = self._sets.get(fault)
        if out is None:
            a = int(np.searchsorted(self.fault, fault, side="left"))
            b = int(np.searchsorted(self.fault, fault, side="right"))
            out = _interval_set_from_sorted(tuple(
                _interval_unchecked(lo, hi) for lo, hi in
                zip(self.lo[a:b].tolist(), self.hi[a:b].tolist())))
            self._sets[fault] = out
        return out


def merge_pieces(fault: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> FlatRanges:
    """Per-fault union of raw pieces, in :class:`IntervalSet`'s float
    operation order: drop pieces with ``hi - lo <= EPS``, sort by
    ``(lo, hi)``, and extend the running piece while
    ``lo <= running_hi + EPS``."""
    keep = (hi - lo) > EPS
    fault, lo, hi = fault[keep], lo[keep], hi[keep]
    if fault.size == 0:
        return FlatRanges.empty()
    order = np.lexsort((hi, lo, fault))
    fault, lo, hi = fault[order], lo[order], hi[order]
    # Running maximum of ``hi`` restarted at every fault, kept exact by
    # working on ranks: a later fault's keys all exceed an earlier one's.
    values, rank = np.unique(hi, return_inverse=True)
    base = fault.astype(np.int64) * values.size
    running = values[np.maximum.accumulate(base + rank) - base]
    start = np.ones(fault.size, dtype=bool)
    start[1:] = (fault[1:] != fault[:-1]) | (lo[1:] > running[:-1] + EPS)
    idx = np.flatnonzero(start)
    return FlatRanges(fault[idx], lo[idx], np.maximum.reduceat(hi, idx))


def clip_pieces(ranges: FlatRanges, t_min: float, t_nom: float) -> FlatRanges:
    """:meth:`IntervalSet.clipped` on every fault: intersect each piece
    with the window and keep it when ``hi - lo > EPS``."""
    if t_nom <= t_min or t_nom - t_min <= EPS:
        return FlatRanges.empty()
    lo = np.maximum(ranges.lo, t_min)
    hi = np.minimum(ranges.hi, t_nom)
    keep = (hi - lo) > EPS
    return FlatRanges(ranges.fault[keep], lo[keep], hi[keep])


#: Bound of a range table's per-(configs, window) kernel memo.
KERNEL_CACHE_SIZE = 8


class RangeTable:
    """Flat, read-only view of :attr:`DetectionData.ranges`.

    Entry ``e`` is the (fault, pattern) pair ``(entry_fault[e],
    entry_pattern[e])``; entries are sorted by fault, then pattern.  Every
    ``i_all`` piece is ``[all_lo[k], all_hi[k]]`` of entry ``all_entry[k]``
    and every ``i_mon`` piece likewise; pieces are sorted by entry.

    The table is also the one ``I(φ)`` kernel: :meth:`union_all`,
    :meth:`union_mon`, :meth:`combined` and :meth:`observable` build the
    per-fault unions for all faults at once, memoized per configuration
    set and window.
    """

    def __init__(self, faults: np.ndarray, entry_fault: np.ndarray,
                 entry_pattern: np.ndarray, all_entry: np.ndarray,
                 all_lo: np.ndarray, all_hi: np.ndarray,
                 mon_entry: np.ndarray, mon_lo: np.ndarray,
                 mon_hi: np.ndarray) -> None:
        #: Keys of ``ranges``, ascending: the activated faults.
        self.faults = faults
        self.entry_fault = entry_fault
        self.entry_pattern = entry_pattern
        self.all_entry, self.all_lo, self.all_hi = all_entry, all_lo, all_hi
        self.mon_entry, self.mon_lo, self.mon_hi = mon_entry, mon_lo, mon_hi
        self._union_all: FlatRanges | None = None
        self._union_mon: FlatRanges | None = None
        self._memo = LruCache(maxsize=KERNEL_CACHE_SIZE)

    @classmethod
    def from_ranges(cls, ranges: Mapping[int, Mapping[int, FaultPatternRange]]
                    ) -> "RangeTable":
        e_fault: list[int] = []
        e_pattern: list[int] = []
        a_e: list[int] = []
        a_lo: list[float] = []
        a_hi: list[float] = []
        m_e: list[int] = []
        m_lo: list[float] = []
        m_hi: list[float] = []
        faults = sorted(ranges)
        for fi in faults:
            per = ranges[fi]
            for pi in sorted(per):
                fpr = per[pi]
                e = len(e_fault)
                e_fault.append(fi)
                e_pattern.append(pi)
                for iv in fpr.i_all.intervals:
                    a_e.append(e)
                    a_lo.append(iv.lo)
                    a_hi.append(iv.hi)
                for iv in fpr.i_mon.intervals:
                    m_e.append(e)
                    m_lo.append(iv.lo)
                    m_hi.append(iv.hi)

        def ints(xs):
            return np.array(xs, dtype=np.int64)

        def floats(xs):
            return np.array(xs, dtype=np.float64)

        return cls(ints(faults), ints(e_fault), ints(e_pattern),
                   ints(a_e), floats(a_lo), floats(a_hi),
                   ints(m_e), floats(m_lo), floats(m_hi))

    def shifted(self, shifts: Mapping[int, float]) -> "RangeTable":
        """Copy whose pieces of fault ``f`` move by ``shifts[f]``."""
        if not any(shifts.values()):
            return self
        faults = np.fromiter(shifts.keys(), dtype=np.int64)
        values = np.fromiter(shifts.values(), dtype=np.float64)
        order = np.argsort(faults)
        faults, values = faults[order], values[order]
        pos = np.minimum(np.searchsorted(faults, self.entry_fault),
                         faults.size - 1)
        per_entry = np.where(faults[pos] == self.entry_fault, values[pos],
                             0.0)
        s_all = per_entry[self.all_entry]
        s_mon = per_entry[self.mon_entry]
        return RangeTable(self.faults, self.entry_fault, self.entry_pattern,
                          self.all_entry, self.all_lo + s_all,
                          self.all_hi + s_all, self.mon_entry,
                          self.mon_lo + s_mon, self.mon_hi + s_mon)

    # ------------------------------------------------------------------
    # The I(φ) kernel
    # ------------------------------------------------------------------
    def union_all(self) -> FlatRanges:
        """Per fault: ``i_all`` united over all patterns (``I_FF``)."""
        if self._union_all is None:
            self._union_all = merge_pieces(
                self.entry_fault[self.all_entry], self.all_lo, self.all_hi)
        return self._union_all

    def union_mon(self) -> FlatRanges:
        """Per fault: pre-shift ``i_mon`` united over all patterns."""
        if self._union_mon is None:
            self._union_mon = merge_pieces(
                self.entry_fault[self.mon_entry], self.mon_lo, self.mon_hi)
        return self._union_mon

    def combined(self, configs: Sequence[float]) -> FlatRanges:
        """Per fault, unclipped: ``I_FF ∪ ⋃_{d∈C} (I_mon + d)``, where the
        *merged* ``I_mon`` is shifted and the union merged once more."""
        configs = tuple(configs)
        if not configs:
            return self.union_all()
        key = ("combined", configs)
        out = self._memo.get(key)
        if out is None:
            ua, um = self.union_all(), self.union_mon()
            out = merge_pieces(
                np.concatenate([ua.fault] + [um.fault] * len(configs)),
                np.concatenate([ua.lo] + [um.lo + d for d in configs]),
                np.concatenate([ua.hi] + [um.hi + d for d in configs]))
            self._memo[key] = out
        return out

    def observable(self, configs: Sequence[float], t_min: float,
                   t_nom: float) -> FlatRanges:
        """Per fault: ``I(φ)`` clipped to ``[t_min, t_nom]`` (Sec. III-B)."""
        key = ("observable", tuple(configs), t_min, t_nom)
        out = self._memo.get(key)
        if out is None:
            out = clip_pieces(self.combined(configs), t_min, t_nom)
            self._memo[key] = out
        return out

    # ------------------------------------------------------------------
    # Step-2 hits
    # ------------------------------------------------------------------
    def hits_at(self, t: float, faults: np.ndarray,
                configs: Sequence[float]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Which entries of ``faults`` (ascending) detect at period ``t``.

        Returns ``(entries, ff, mon)``: ``ff[k]`` when an ``i_all`` piece
        of entry ``entries[k]`` contains ``t``; ``mon[k, c]`` when an
        ``i_mon`` piece shifted by ``configs[c]`` does, i.e.
        ``(lo + d) - EPS <= t <= (hi + d) + EPS``.
        """
        entries = _concat_ranges(
            np.searchsorted(self.entry_fault, faults, side="left"),
            np.searchsorted(self.entry_fault, faults, side="right"))
        n = entries.size
        ff = np.zeros(n, dtype=bool)
        owner, pieces = self._pieces_of(self.all_entry, entries)
        hit = ((self.all_lo[pieces] - EPS <= t)
               & (t <= self.all_hi[pieces] + EPS))
        ff[owner[hit]] = True
        mon = np.zeros((n, len(configs)), dtype=bool)
        if len(configs):
            owner, pieces = self._pieces_of(self.mon_entry, entries)
            d = np.asarray(configs, dtype=np.float64)[None, :]
            lo = self.mon_lo[pieces][:, None] + d
            hi = self.mon_hi[pieces][:, None] + d
            rows, cols = np.nonzero((lo - EPS <= t) & (t <= hi + EPS))
            mon[owner[rows], cols] = True
        return entries, ff, mon

    @staticmethod
    def _pieces_of(piece_entry: np.ndarray, entries: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """(position in ``entries``, piece index) of every piece of the
        given entries."""
        a = np.searchsorted(piece_entry, entries, side="left")
        b = np.searchsorted(piece_entry, entries, side="right")
        owner = np.repeat(np.arange(entries.size), b - a)
        return owner, _concat_ranges(a, b)


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
    #: Flat view of ``ranges`` and its ``I(φ)`` memo, built on first use
    #: (:meth:`range_table`), dropped by :meth:`add` and never pickled.
    _table: RangeTable | None = field(default=None, repr=False,
                                      compare=False)
    #: (targets, configs, window, policy) -> (ranges, CandidateSet); the
    #: schedule optimizer's discretization cache — the heuristic, proposed
    #: and relaxed-coverage schedules all share one candidate set.  Bounded:
    #: distinct candidate-set keys (different target sets, windows, prune
    #: policies) used to accumulate without limit; the LRU keeps the most
    #: recent ones and counts hits/misses for ``repro flow --verbose``.
    _sched_cache: LruCache = field(
        default_factory=lambda: LruCache(maxsize=SCHED_CACHE_SIZE),
        repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_table"] = None
        return state

    def add(self, fault_idx: int, pattern_idx: int,
            fpr: FaultPatternRange) -> None:
        self.ranges.setdefault(fault_idx, {})[pattern_idx] = fpr
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop everything derived from ``ranges``."""
        self._table = None
        self._sched_cache.clear()

    def range_table(self) -> RangeTable:
        """The flat range table (built once, after the last :meth:`add`)."""
        if self._table is None:
            self._table = RangeTable.from_ranges(self.ranges)
        return self._table

    def pairs_for_fault(self, fault_idx: int) -> list[tuple[int, FaultPatternRange]]:
        """All patterns with a non-empty range for the fault."""
        return sorted(self.ranges.get(fault_idx, {}).items())

    def union_all(self, fault_idx: int) -> IntervalSet:
        """Union of ``i_all`` over all patterns (FF detection range of φ)."""
        return self.range_table().union_all().interval_set(fault_idx)

    def union_mon(self, fault_idx: int) -> IntervalSet:
        """Union of pre-shift ``i_mon`` over all patterns."""
        return self.range_table().union_mon().interval_set(fault_idx)

    def detection_range(self, fault_idx: int, configs: Sequence[float],
                        t_min: float, t_nom: float) -> IntervalSet:
        """Observable detection range ``I(φ)`` with monitors (Sec. III-B):
        ``I_FF ∪ ⋃_{d∈C}(I_mon + d)`` clipped to ``[t_min, t_nom]``.

        One fault's slice of :meth:`RangeTable.observable`, which builds
        the range of every fault at once per (configuration set, window).
        """
        return self.range_table().observable(
            configs, t_min, t_nom).interval_set(fault_idx)

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
