"""Observation-time discretization (Sec. IV-A, Fig. 5).

The boundaries of all fault detection intervals partition the observable
window ``[t_min, t_nom]`` into segments within which the set of detected
faults is constant.  One candidate test clock period is taken at the
*midpoint* of each useful segment — midpoints are robust against small
process variations, which is why the paper selects them.

Two pruning levels:

* adjacent segments with identical fault sets are always merged,
* with ``prune_dominated=True``, segments whose fault set is a subset of
  another candidate's are removed — this preserves set-cover optimality
  while shrinking the ILP (the paper's "representative intervals" keep only
  the locally richest segments; dominance pruning is the lossless version).

Implementation: a sweep over the sorted interval endpoints fills one packed
bit matrix (rows = segments, one bit per target fault, numpy ``uint64``
words).  Each detection interval covers a *contiguous* run of segment
midpoints, located with two ``searchsorted`` calls and OR-ed into the
matrix as a slice — no per-(fault, segment) membership tests.  Merging and
dominance pruning are word-wise vector operations on the same matrix.  The
seed per-segment ``frozenset`` construction is retained verbatim in
:mod:`repro.scheduling.reference` for golden-equivalence testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, MutableMapping

import numpy as np

from repro.utils.bitset import (
    dominated_rows,
    matrix_bits,
    matrix_to_masks,
    popcount,
    zeros,
)
from repro.utils.intervals import EPS, Interval, IntervalSet, segment_points


@dataclass(frozen=True)
class PeriodCandidate:
    """One candidate FAST clock period.

    ``time`` is the segment midpoint; ``faults`` the indices of target
    faults whose detection range covers the whole segment.
    """

    time: float
    segment: Interval
    faults: frozenset[Hashable]

    @property
    def fault_count(self) -> int:
        return len(self.faults)


@dataclass(frozen=True)
class CandidateSet:
    """Discretization output in both representations.

    ``candidates[r]`` materializes row ``r`` of ``matrix`` as a frozenset;
    ``fault_ids[b]`` is the fault carried by bit ``b``.  The matrix/mask
    views let the set-cover step consume the packed rows directly instead
    of re-hashing frozensets.
    """

    candidates: tuple[PeriodCandidate, ...]
    matrix: np.ndarray          # (n_candidates, n_words) uint64
    fault_ids: tuple[Hashable, ...]

    @property
    def masks(self) -> list[int]:
        """Python int bitmask per candidate (bit b = ``fault_ids[b]``)."""
        return matrix_to_masks(self.matrix)


def _pick_time(segment: Interval, point: str) -> float:
    """Observation time inside a segment according to the policy.

    ``"mid"`` is the paper's robust choice; ``"lo"``/``"hi"`` sit a sliver
    inside the segment edges and exist for the robustness ablation that
    demonstrates *why* midpoints are the right call under variation.
    """
    margin = min(1e-6, 0.01 * segment.length)
    if point == "mid":
        return segment.midpoint
    if point == "lo":
        return segment.lo + margin
    if point == "hi":
        return segment.hi - margin
    raise ValueError(f"unknown candidate point policy {point!r}")


@dataclass(frozen=True)
class SweepGrid:
    """Segment grid of one discretization sweep.

    ``pts`` are the sorted segment boundary points inside the observable
    window; ``lows``/``highs``/``mids`` the per-segment edges and
    midpoints; ``degenerate`` flags zero-length segments that must never
    become candidates.  The rescheduling engine caches the grid together
    with the raw occupancy matrix so a degradation delta can patch only
    the dirty faults' rows (see :mod:`repro.scheduling.resched`).
    """

    pts: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    mids: np.ndarray
    degenerate: np.ndarray

    @property
    def n_segments(self) -> int:
        return int(self.lows.shape[0])


def sweep_grid(boundaries: list[float], t_min: float,
               t_nom: float) -> SweepGrid:
    """Build the segment grid from all interval boundary points."""
    pts = np.asarray(segment_points(boundaries, t_min, t_nom))
    if pts.shape[0] < 2:
        empty = np.empty(0)
        return SweepGrid(pts=pts, lows=empty, highs=empty, mids=empty,
                         degenerate=np.empty(0, dtype=bool))
    lows = pts[:-1]
    highs = pts[1:]
    # Guard (robustness): duplicate interval endpoints can only produce
    # zero-length segments when the whole window degenerates (segment_points
    # guarantees > EPS gaps otherwise); such segments must never become
    # candidates, so they are masked out of the sweep explicitly rather
    # than relying on downstream filtering.
    return SweepGrid(pts=pts, lows=lows, highs=highs,
                     mids=0.5 * (lows + highs),
                     degenerate=(highs - lows) <= EPS)


def fill_fault_row(matrix: np.ndarray, grid: SweepGrid, b: int,
                   rng: IntervalSet) -> None:
    """OR fault bit ``b``'s occupancy into ``matrix`` (in place).

    Interval [lo, hi] covers exactly the segments whose midpoint lies in
    [lo - EPS, hi + EPS] — identical to the seed's
    ``IntervalSet.contains(mid)`` test — which is a contiguous slice of
    the sorted midpoint array.
    """
    word, bit = b >> 6, np.uint64(1 << (b & 63))
    for iv in rng:
        i0 = int(np.searchsorted(grid.mids, iv.lo - EPS, side="left"))
        i1 = int(np.searchsorted(grid.mids, iv.hi + EPS, side="right"))
        if i1 > i0:
            matrix[i0:i1, word] |= bit


def finalize_candidates(matrix: np.ndarray, grid: SweepGrid,
                        fault_ids: tuple[Hashable, ...], *,
                        prune_dominated: bool = True,
                        point: str = "mid",
                        faults_cache: "MutableMapping | None" = None,
                        candidate_cache: "MutableMapping | None" = None
                        ) -> CandidateSet:
    """Merge, prune and materialize candidates from a filled occupancy
    matrix (``matrix`` must already be restricted to non-degenerate
    segments — callers apply ``grid.degenerate``).  Shared tail of the
    cold sweep and the rescheduling engine's delta patch path.

    ``faults_cache`` (optional, e.g. an ``LruCache``) memoizes the
    per-row frozenset materialization keyed by the packed row bytes:
    across incremental re-solves most candidate rows recur unchanged, so
    their (immutable, safely shared) fault sets need not be rebuilt.
    ``candidate_cache`` memoizes whole :class:`PeriodCandidate` objects
    by ``(row bytes, segment lo, segment hi)`` — callers must keep one
    cache per ``point`` policy.
    """
    n_seg = grid.n_segments
    lows, highs = grid.lows, grid.highs
    nonempty = matrix.any(axis=1)
    if not nonempty.any():
        return CandidateSet((), zeros(0, len(fault_ids)), fault_ids)

    # Merge maximal runs of *adjacent* non-empty segments with identical
    # fault sets.  Segments are contiguous by construction, so a run breaks
    # exactly where the row changes or an empty segment intervenes — the
    # seed's "never merge across a gap" rule.
    same_as_prev = np.zeros(n_seg, dtype=bool)
    if n_seg > 1:
        same_as_prev[1:] = (np.all(matrix[1:] == matrix[:-1], axis=1)
                            & nonempty[1:] & nonempty[:-1])

    # A run starts at every non-empty segment not linked to its
    # predecessor and ends just before the next start (runs partition the
    # non-empty indices in order; empty gaps break the linkage above).
    idx = np.flatnonzero(nonempty)
    is_start = ~same_as_prev[idx]
    starts = idx[is_start]
    end_sel = np.roll(is_start, -1)
    end_sel[-1] = True
    ends = idx[end_sel]
    merged = matrix[starts]
    seg_lo = lows[starts]
    seg_hi = highs[ends]

    if prune_dominated:
        keep = np.array(_prune_dominated_rows(
            merged, 0.5 * (seg_lo + seg_hi)), dtype=np.int64)
        merged = merged[keep]
        seg_lo = seg_lo[keep]
        seg_hi = seg_hi[keep]
    if candidate_cache is not None:
        # Warm path: whole PeriodCandidate objects (frozen, safely shared
        # across CandidateSets) are memoized by row bytes + segment edges;
        # across incremental re-solves almost every candidate recurs.
        out = []
        los, his = seg_lo.tolist(), seg_hi.tolist()
        for r in range(merged.shape[0]):
            rb = merged[r].tobytes()
            key = (rb, los[r], his[r])
            cand = candidate_cache.get(key)
            if cand is None:
                fs = None
                if faults_cache is not None:
                    fs = faults_cache.get(rb)
                if fs is None:
                    fs = frozenset(
                        fault_ids[b]
                        for b in matrix_bits(merged[r:r + 1])[0])
                    if faults_cache is not None:
                        faults_cache[rb] = fs
                seg = Interval(los[r], his[r])
                cand = PeriodCandidate(time=_pick_time(seg, point),
                                       segment=seg, faults=fs)
                candidate_cache[key] = cand
            out.append(cand)
        return CandidateSet(tuple(out), merged, fault_ids)

    segments = [Interval(a, b)
                for a, b in zip(seg_lo.tolist(), seg_hi.tolist())]

    if faults_cache is None:
        bits_per_row = matrix_bits(merged)
        fault_sets = [frozenset(fault_ids[b] for b in bits)
                      for bits in bits_per_row]
    else:
        fault_sets = []
        for r in range(merged.shape[0]):
            key = merged[r].tobytes()
            fs = faults_cache.get(key)
            if fs is None:
                fs = frozenset(fault_ids[b]
                               for b in matrix_bits(merged[r:r + 1])[0])
                faults_cache[key] = fs
            fault_sets.append(fs)
    candidates = tuple(
        PeriodCandidate(time=_pick_time(seg, point), segment=seg, faults=fs)
        for seg, fs in zip(segments, fault_sets))
    return CandidateSet(candidates, merged, fault_ids)


def discretize_candidate_set(
    fault_ranges: Mapping[Hashable, IntervalSet],
    t_min: float,
    t_nom: float,
    *,
    prune_dominated: bool = True,
    point: str = "mid",
) -> CandidateSet:
    """Sweep-line discretization returning the packed candidate matrix.

    Semantics match :func:`discretize_observation_times` (which wraps this
    function) — same segments, same merge rule, same dominance pruning and
    tie-breaking — but the fault sets are built as bit-matrix rows.
    Composed from :func:`sweep_grid` / :func:`fill_fault_row` /
    :func:`finalize_candidates` so the rescheduling engine can rebuild only
    the stages a degradation delta invalidates.
    """
    fault_ids = tuple(sorted(fault_ranges, key=repr))
    boundaries: list[float] = []
    for rng in fault_ranges.values():
        boundaries.extend(rng.boundaries())
    grid = sweep_grid(boundaries, t_min, t_nom)
    if grid.n_segments == 0 or not fault_ids:
        return CandidateSet((), zeros(0, len(fault_ids)), fault_ids)

    matrix = zeros(grid.n_segments, len(fault_ids))
    for b, fid in enumerate(fault_ids):
        fill_fault_row(matrix, grid, b, fault_ranges[fid])
    if grid.degenerate.any():
        matrix[grid.degenerate] = 0
    return finalize_candidates(matrix, grid, fault_ids,
                               prune_dominated=prune_dominated, point=point)


def discretize_observation_times(
    fault_ranges: Mapping[Hashable, IntervalSet],
    t_min: float,
    t_nom: float,
    *,
    prune_dominated: bool = True,
    point: str = "mid",
) -> list[PeriodCandidate]:
    """Build candidate periods from per-fault observable detection ranges.

    ``fault_ranges`` maps fault index → detection range already clipped to
    the observable window.  ``point`` selects where inside each segment the
    candidate time sits (``"mid"``, the default and the paper's choice, or
    ``"lo"``/``"hi"`` for the robustness ablation).  Returns candidates
    sorted by ascending time.
    """
    return list(discretize_candidate_set(
        fault_ranges, t_min, t_nom, prune_dominated=prune_dominated,
        point=point).candidates)


def _prune_dominated_rows(matrix: np.ndarray,
                          times: np.ndarray) -> list[int]:
    """Row indices surviving dominance pruning, ascending.

    Seed tie-breaking preserved: rows are scanned by (-popcount, -time) —
    stable sort — and a row is dropped when its bits are a subset of an
    already-kept row's (duplicates included), keeping the later
    (slower-clock) candidate on ties so schedules prefer frequencies closer
    to nominal, which are cheaper to generate.
    """
    counts = popcount(matrix)
    # lexsort is stable with the last key primary — identical order to
    # sorted(key=lambda i: (-counts[i], -times[i])).
    order = np.lexsort((-np.asarray(times), -counts)).tolist()
    return sorted(dominated_rows(matrix, order))
