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

The ranges have one representation, :class:`RangeTable`: every piece as
flat arrays.  It is what :class:`DetectionData` stores and pickles, and it
is the one kernel that builds ``I(φ)`` for every fault at once, used by
classification, discretization and step 2 of the schedule.  Both engines
hand their raw per-observation-point pieces to
:meth:`RangeTable.from_pieces`; :attr:`DetectionData.ranges` is a
read-only ``fault -> {pattern -> FaultPatternRange}`` view built on demand.

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
from collections import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.atpg.patterns import TestSet
from repro.faults.models import SmallDelayFault
from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.parallel_sim import BitParallelSimulator
from repro.simulation.wave_sim import DEFAULT_INERTIAL_PS, WaveformSimulator
from repro.utils.cache import LruCache
from repro.utils.intervals import (
    EPS,
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


#: Raw detection pieces ``(fault, pattern, lo, hi)``, one row per piece.
Pieces = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _interval_set_of(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     key: int) -> IntervalSet:
    """The canonical pieces of ``key`` (``keys`` ascending) as an
    :class:`IntervalSet`."""
    a = int(np.searchsorted(keys, key, side="left"))
    b = int(np.searchsorted(keys, key, side="right"))
    return _interval_set_from_sorted(tuple(
        _interval_unchecked(x, y)
        for x, y in zip(lo[a:b].tolist(), hi[a:b].tolist())))


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
            out = _interval_set_of(self.fault, self.lo, self.hi, fault)
            self._sets[fault] = out
        return out


def merge_pieces(fault: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> FlatRanges:
    """Per-key union of raw pieces (the key is a fault or a table entry),
    in :class:`IntervalSet`'s float operation order: drop pieces with
    ``hi - lo <= EPS``, sort by ``(lo, hi)``, and extend the running piece
    while ``lo <= running_hi + EPS``."""
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


def piece_arrays(rows: Sequence[tuple[int, int, float, float]]) -> Pieces:
    """:data:`Pieces` arrays of ``(fault, pattern, lo, hi)`` rows."""
    fault, pattern, lo, hi = zip(*rows) if rows else ((), (), (), ())
    return (np.array(fault, dtype=np.int64),
            np.array(pattern, dtype=np.int64),
            np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64))


#: Bound of a range table's per-(configs, window) kernel memo.
KERNEL_CACHE_SIZE = 8


class RangeTable:
    """Every (fault, pattern) detection range as flat arrays.

    Entry ``e`` is the (fault, pattern) pair ``(entry_fault[e],
    entry_pattern[e])``; entries are sorted by fault, then pattern.  Every
    ``i_all`` piece is ``[all_lo[k], all_hi[k]]`` of entry ``all_entry[k]``
    and every ``i_mon`` piece likewise; pieces are sorted by entry, then
    ``lo``, and each entry's pieces are canonical in the
    :class:`IntervalSet` sense.  Only entries with a piece exist.

    The table is also the one ``I(φ)`` kernel: :meth:`union_all`,
    :meth:`union_mon`, :meth:`combined` and :meth:`observable` build the
    per-fault unions for all faults at once, memoized per configuration
    set and window.  A pickled table holds the arrays alone; the unions
    and the memo are rebuilt on first use after a load.
    """

    def __init__(self, faults: np.ndarray, entry_fault: np.ndarray,
                 entry_pattern: np.ndarray, all_entry: np.ndarray,
                 all_lo: np.ndarray, all_hi: np.ndarray,
                 mon_entry: np.ndarray, mon_lo: np.ndarray,
                 mon_hi: np.ndarray) -> None:
        #: The faults with an entry, ascending: the activated faults.
        self.faults = faults
        self.entry_fault = entry_fault
        self.entry_pattern = entry_pattern
        self.all_entry, self.all_lo, self.all_hi = all_entry, all_lo, all_hi
        self.mon_entry, self.mon_lo, self.mon_hi = mon_entry, mon_lo, mon_hi
        self._union_all: FlatRanges | None = None
        self._union_mon: FlatRanges | None = None
        self._memo = LruCache(maxsize=KERNEL_CACHE_SIZE)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The constructor arguments: everything the table stores."""
        return (self.faults, self.entry_fault, self.entry_pattern,
                self.all_entry, self.all_lo, self.all_hi,
                self.mon_entry, self.mon_lo, self.mon_hi)

    def __reduce__(self) -> tuple:
        return (RangeTable, self.arrays())

    @classmethod
    def empty(cls) -> "RangeTable":
        return cls.from_ranges({})

    @classmethod
    def from_pieces(cls, all_pieces: Pieces, mon_pieces: Pieces
                    ) -> "RangeTable":
        """The table of raw detection pieces, in any order.

        An entry's ``i_all`` (``i_mon``) is the :class:`IntervalSet` union
        of its rows in ``all_pieces`` (``mon_pieces``), in the same float
        operations (:func:`merge_pieces`).  Rows with ``hi - lo <= EPS``
        are dropped, so an entry exists when either union is non-empty.
        """
        width = 1 + max((int(p.max()) for _, p, _, _ in
                         (all_pieces, mon_pieces) if p.size), default=0)
        keyed = []
        for fault, pattern, lo, hi in (all_pieces, mon_pieces):
            keep = (hi - lo) > EPS
            keyed.append((fault[keep] * width + pattern[keep],
                          lo[keep], hi[keep]))
        keys = np.unique(np.concatenate([k for k, _, _ in keyed]))
        a, m = (merge_pieces(np.searchsorted(keys, k), lo, hi)
                for k, lo, hi in keyed)
        entry_fault = keys // width
        return cls(np.unique(entry_fault), entry_fault, keys % width,
                   a.fault, a.lo, a.hi, m.fault, m.lo, m.hi)

    @classmethod
    def from_ranges(cls, ranges: Mapping[int, Mapping[int, FaultPatternRange]]
                    ) -> "RangeTable":
        """The table of a ``fault -> {pattern -> ranges}`` mapping."""
        rows: tuple[list, list] = ([], [])
        for fi, per in ranges.items():
            for pi, fpr in per.items():
                for out, rng in zip(rows, (fpr.i_all, fpr.i_mon)):
                    out.extend((fi, pi, iv.lo, iv.hi) for iv in rng)
        return cls.from_pieces(*map(piece_arrays, rows))

    def entry_range(self, e: int) -> FaultPatternRange:
        """Entry ``e``'s ranges as interval sets."""
        return FaultPatternRange(
            _interval_set_of(self.all_entry, self.all_lo, self.all_hi, e),
            _interval_set_of(self.mon_entry, self.mon_lo, self.mon_hi, e))

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


class _SortedView(abc.Mapping):
    """Read-only mapping over an ascending key array; ``item(i)`` builds
    the value of ``keys[i]`` on demand."""

    __slots__ = ("_keys", "_item")

    def __init__(self, keys: np.ndarray, item: Callable[[int], Any]) -> None:
        self._keys = keys
        self._item = item

    def __getitem__(self, key: int) -> Any:
        i = int(np.searchsorted(self._keys, key))
        if i == self._keys.size or self._keys[i] != key:
            raise KeyError(key)
        return self._item(i)

    def __iter__(self):
        return iter(self._keys.tolist())

    def __len__(self) -> int:
        return int(self._keys.size)


@dataclass
class DetectionData:
    """Sparse (fault, pattern) → detection-range table plus aggregates."""

    faults: list[SmallDelayFault]
    patterns: TestSet
    #: Every non-empty (fault, pattern) range: the stored form.
    table: RangeTable = field(default_factory=RangeTable.empty)
    #: (targets, configs, window, policy) -> (ranges, CandidateSet); the
    #: schedule optimizer's discretization cache — the heuristic, proposed
    #: and relaxed-coverage schedules all share one candidate set.  Bounded:
    #: distinct candidate-set keys (different target sets, windows, prune
    #: policies) used to accumulate without limit; the LRU keeps the most
    #: recent ones and counts hits/misses for ``repro flow --verbose``.
    #: Derived, so a pickled copy starts without it.
    _sched_cache: LruCache = field(
        default_factory=lambda: LruCache(maxsize=SCHED_CACHE_SIZE),
        repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_sched_cache"] = LruCache(maxsize=SCHED_CACHE_SIZE)
        return state

    @property
    def ranges(self) -> Mapping[int, Mapping[int, FaultPatternRange]]:
        """Read-only view: fault -> {pattern -> ranges}, non-empty entries
        only, built from the table on access."""
        t = self.table

        def patterns(i: int) -> Mapping[int, FaultPatternRange]:
            a = int(np.searchsorted(t.entry_fault, t.faults[i], side="left"))
            b = int(np.searchsorted(t.entry_fault, t.faults[i],
                                    side="right"))
            return _SortedView(t.entry_pattern[a:b],
                               lambda j: t.entry_range(a + j))

        return _SortedView(t.faults, patterns)

    def _invalidate(self) -> None:
        """Drop every memo derived from the table (to time a cold run)."""
        self.table = RangeTable(*self.table.arrays())
        self._sched_cache.clear()

    def pairs_for_fault(self, fault_idx: int) -> list[tuple[int, FaultPatternRange]]:
        """All patterns with a non-empty range for the fault."""
        return sorted(self.ranges.get(fault_idx, {}).items())

    def union_all(self, fault_idx: int) -> IntervalSet:
        """Union of ``i_all`` over all patterns (FF detection range of φ)."""
        return self.table.union_all().interval_set(fault_idx)

    def union_mon(self, fault_idx: int) -> IntervalSet:
        """Union of pre-shift ``i_mon`` over all patterns."""
        return self.table.union_mon().interval_set(fault_idx)

    def detection_range(self, fault_idx: int, configs: Sequence[float],
                        t_min: float, t_nom: float) -> IntervalSet:
        """Observable detection range ``I(φ)`` with monitors (Sec. III-B):
        ``I_FF ∪ ⋃_{d∈C}(I_mon + d)`` clipped to ``[t_min, t_nom]``.

        One fault's slice of :meth:`RangeTable.observable`, which builds
        the range of every fault at once per (configuration set, window).
        """
        return self.table.observable(
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
    all_rows: list,
    mon_rows: list,
    active_masks: Sequence[int] | None = None,
    timer: StageTimer | None = None,
) -> None:
    """Append the raw detection pieces ``(fault, pattern, lo, hi)`` of every
    activated fault under one pattern to ``all_rows``, and those seen at a
    monitored observation point to ``mon_rows`` too."""
    t0 = time.perf_counter() if timer is not None else 0.0
    base = sim.simulate(pattern.launch, pattern.capture)
    if timer is not None:
        timer.add("base_sim", time.perf_counter() - t0)
    base_waves = base.waveforms
    bit = 1 << pattern_idx
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
        faulty_waves = faulty.waveforms
        for og in reach[fi]:
            bw = base_waves[og]
            fw = faulty_waves[og]
            if fw is bw:
                continue  # shared object: untouched by the fault
            diff = bw.diff_intervals(fw, horizon)
            if diff.is_empty:
                continue
            rows = [(fi, pattern_idx, iv.lo, iv.hi)
                    for iv in diff.filter_glitches(glitch_threshold)]
            all_rows.extend(rows)
            if og in monitored:
                mon_rows.extend(rows)
        if timer is not None:
            timer.add("intervals", time.perf_counter() - t1)


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
    its envelope (don't-care patterns, fan-in above the kernel limit, or
    a degenerate inertial threshold).  ``timer``, when given, accumulates
    the per-stage wall-clock split (``pregrade`` / ``base_sim`` /
    ``site_inject`` / ``faulty_sim`` / ``intervals``).
    """
    if glitch_threshold is None:
        glitch_threshold = inertial
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    monitored = frozenset(monitored_gates)
    faults = list(faults)
    table = None
    if engine == "wordwave":
        from repro.simulation.word_wave import (run_wordwave,
                                                wordwave_fallback_reason)
        if wordwave_fallback_reason(circuit, patterns, inertial) is None:
            table = run_wordwave(
                circuit, faults, patterns, horizon=horizon,
                monitored=monitored, inertial=inertial,
                glitch_threshold=glitch_threshold, timer=timer)
        if table is not None and progress is not None:
            progress(len(patterns), len(patterns))
    if table is None:
        # The incremental engine, or a workload outside the array kernels'
        # envelope (don't-cares, wide gates, fault sites off combinational
        # gates, degenerate inertial): the identical table, just
        # event-driven.
        table = _run_incremental(
            circuit, faults, patterns, horizon=horizon, monitored=monitored,
            inertial=inertial, glitch_threshold=glitch_threshold,
            progress=progress, timer=timer)
    return DetectionData(faults=faults, patterns=patterns, table=table)


def _run_incremental(circuit: Circuit, faults: Sequence[SmallDelayFault],
                     patterns: TestSet, *, horizon: float,
                     monitored: frozenset[int], inertial: float,
                     glitch_threshold: float,
                     progress: Callable[[int, int], None] | None,
                     timer: StageTimer | None) -> RangeTable:
    """The range table by the event-driven engine, one pattern at a time."""
    # Per-fault reachable observation gates: only the event-driven engine
    # walks explicit cone lists (wordwave decides eligibility on its plan's
    # reachability bitmap instead).
    reach, site_signal = _prepare_reach(circuit, faults)

    active_masks: list[int] | None = None
    if faults:
        t0 = time.perf_counter() if timer is not None else 0.0
        active_masks = _pregrade_activation(circuit, patterns, site_signal)
        if timer is not None:
            timer.add("pregrade", time.perf_counter() - t0)

    sim = WaveformSimulator(circuit, inertial=inertial)
    all_rows: list[tuple[int, int, float, float]] = []
    mon_rows: list[tuple[int, int, float, float]] = []
    for pi, pattern in enumerate(patterns):
        _simulate_one_pattern(
            sim, faults, reach, site_signal, pattern, pi,
            horizon=horizon, monitored=monitored,
            glitch_threshold=glitch_threshold, all_rows=all_rows,
            mon_rows=mon_rows, active_masks=active_masks, timer=timer)
        if progress is not None:
            progress(pi + 1, len(patterns))
    t0 = time.perf_counter() if timer is not None else 0.0
    table = RangeTable.from_pieces(piece_arrays(all_rows),
                                   piece_arrays(mon_rows))
    if timer is not None:
        # Joins the per-instance interval time without counting an instance.
        timer.add("intervals", time.perf_counter() - t0, count=0)
    return table
