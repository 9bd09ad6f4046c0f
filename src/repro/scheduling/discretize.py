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
midpoints; the runs of all intervals are located with one vectorized
``searchsorted`` and written as prefix-XORed run-edge toggles
(:func:`occupancy`) — no per-(fault, segment) membership tests.  Merging
and dominance pruning are word-wise vector operations on the same
matrix, and candidates are materialized only for the rows a caller
reads.  ``tests/test_discretize.py`` checks the result against the
segment definition above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.utils.bitset import (
    RowSets,
    dominated_rows,
    num_words,
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

    ``candidates[r]`` materializes row ``r`` of ``matrix`` as a
    :class:`PeriodCandidate`; ``fault_ids[b]`` is the fault carried by bit
    ``b``.  The set-cover steps consume the packed rows directly, so a
    cold sweep's candidates are built only for the rows something reads
    (the chosen periods).
    """

    candidates: Sequence[PeriodCandidate]
    matrix: np.ndarray          # (n_candidates, n_words) uint64
    fault_ids: tuple[Hashable, ...]


class _RowCandidates(Sequence[PeriodCandidate]):
    """Candidates of a merged matrix, each built on first access."""

    def __init__(self, matrix: np.ndarray, fault_ids: tuple[Hashable, ...],
                 seg_lo: np.ndarray, seg_hi: np.ndarray, point: str) -> None:
        self._faults = RowSets(matrix, fault_ids)
        self._lo = seg_lo.tolist()
        self._hi = seg_hi.tolist()
        self._point = point
        self._built: dict[int, PeriodCandidate] = {}

    def __len__(self) -> int:
        return len(self._lo)

    def __getitem__(self, r):
        r = range(len(self))[r]
        cand = self._built.get(r)
        if cand is None:
            seg = Interval(self._lo[r], self._hi[r])
            cand = PeriodCandidate(time=_pick_time(seg, self._point),
                                   segment=seg, faults=self._faults[r])
            self._built[r] = cand
        return cand

    def __iter__(self):
        return (self[r] for r in range(len(self)))


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
    the changed faults' bit columns (see :mod:`repro.scheduling.resched`).
    """

    pts: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    mids: np.ndarray
    degenerate: np.ndarray

    @property
    def n_segments(self) -> int:
        return int(self.lows.shape[0])


def sweep_grid(boundaries: Sequence[float] | np.ndarray, t_min: float,
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


def occupancy(grid: SweepGrid, bit: np.ndarray, lo: np.ndarray,
              hi: np.ndarray, n_bits: int) -> np.ndarray:
    """Packed occupancy matrix of all pieces at once.

    Piece ``k`` is ``[lo[k], hi[k]]`` of bit ``bit[k]``; each bit's pieces
    must be contiguous and sorted.  A piece covers exactly the segments
    whose midpoint lies in ``[lo - EPS, hi + EPS]`` —
    ``IntervalSet.contains(mid)`` — which is a contiguous run of rows
    ``[i0, i1)``, found for every piece by one vectorized
    ``searchsorted``.  Clamping each run's start to the end of the bit's
    previous run makes one bit's runs disjoint, so the matrix is the
    prefix XOR of the run-edge toggles.
    """
    n_seg = grid.n_segments
    nw = num_words(n_bits)
    i0 = np.searchsorted(grid.mids, lo - EPS, side="left")
    i1 = np.searchsorted(grid.mids, hi + EPS, side="right")
    same_bit = np.zeros(bit.size, dtype=bool)
    same_bit[1:] = bit[1:] == bit[:-1]
    prev_end = np.zeros_like(i1)
    prev_end[1:] = i1[:-1]
    i0 = np.where(same_bit, np.maximum(i0, prev_end), i0)
    keep = i1 > i0
    bit, i0, i1 = bit[keep], i0[keep], i1[keep]
    word = bit >> 6
    val = np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64))
    toggles = np.zeros((n_seg + 1) * nw, dtype=np.uint64)
    np.bitwise_xor.at(toggles, i0 * nw + word, val)
    np.bitwise_xor.at(toggles, i1 * nw + word, val)
    return np.bitwise_xor.accumulate(
        toggles.reshape(n_seg + 1, nw), axis=0)[:n_seg]


def finalize_candidates(matrix: np.ndarray, grid: SweepGrid,
                        fault_ids: tuple[Hashable, ...], *,
                        prune_dominated: bool = True,
                        point: str = "mid") -> CandidateSet:
    """Merge, prune and wrap candidates from a filled occupancy matrix
    (``matrix`` must already be restricted to non-degenerate segments —
    callers apply ``grid.degenerate``).  Shared tail of the cold sweep
    and the rescheduling engine's delta patch path.  Candidates are
    built lazily, row by row, when read.
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
    return CandidateSet(
        _RowCandidates(merged, fault_ids, seg_lo, seg_hi, point),
        merged, fault_ids)


def flatten_ranges(ranges: Iterable[tuple[int, IntervalSet]]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(bit, lo, hi)`` piece arrays of ``(bit, range)`` pairs, in
    order — the input of :func:`occupancy` / :func:`discretize_pieces`."""
    bit: list[int] = []
    lo: list[float] = []
    hi: list[float] = []
    for b, rng in ranges:
        for iv in rng:
            bit.append(b)
            lo.append(iv.lo)
            hi.append(iv.hi)
    return (np.array(bit, dtype=np.int64), np.array(lo, dtype=np.float64),
            np.array(hi, dtype=np.float64))


def discretize_pieces(
    fault_ids: tuple[Hashable, ...],
    bit: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    t_min: float,
    t_nom: float,
    *,
    prune_dominated: bool = True,
    point: str = "mid",
) -> CandidateSet:
    """Sweep-line discretization of flat detection pieces.

    Piece ``k`` is ``[lo[k], hi[k]]`` of fault ``fault_ids[bit[k]]``;
    each fault's pieces are contiguous, sorted and canonical.  Composed
    from :func:`sweep_grid` / :func:`occupancy` /
    :func:`finalize_candidates`; the rescheduling engine reuses the
    stages a degradation delta leaves valid.
    """
    grid = sweep_grid(np.concatenate((lo, hi)), t_min, t_nom)
    if grid.n_segments == 0 or not fault_ids:
        return CandidateSet((), zeros(0, len(fault_ids)), fault_ids)
    matrix = occupancy(grid, bit, lo, hi, len(fault_ids))
    if grid.degenerate.any():
        matrix[grid.degenerate] = 0
    return finalize_candidates(matrix, grid, fault_ids,
                               prune_dominated=prune_dominated, point=point)


def discretize_candidate_set(
    fault_ranges: Mapping[Hashable, IntervalSet],
    t_min: float,
    t_nom: float,
    *,
    prune_dominated: bool = True,
    point: str = "mid",
) -> CandidateSet:
    """:func:`discretize_pieces` over a mapping fault → detection range.

    Semantics match :func:`discretize_observation_times` (which wraps this
    function) — same segments, same merge rule, same dominance pruning and
    tie-breaking — but the fault sets are built as bit-matrix rows, one
    bit per fault in ``repr`` order.
    """
    fault_ids = tuple(sorted(fault_ranges, key=repr))
    bit, lo, hi = flatten_ranges(
        (b, fault_ranges[fid]) for b, fid in enumerate(fault_ids))
    return discretize_pieces(fault_ids, bit, lo, hi, t_min, t_nom,
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
