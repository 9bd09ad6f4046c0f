"""Interval algebra for fault detection ranges.

Detection ranges of small delay faults (Sec. II-A of the paper) are unions of
disjoint time intervals on the observation-time axis.  This module provides an
immutable :class:`IntervalSet` with the operations the test flow needs:

* union / intersection / difference,
* shifting along the time axis (monitor delay elements, Sec. III-B),
* clipping to the observable FAST window ``(t_min, t_nom)``,
* pessimistic pulse filtering (glitches shorter than a threshold are dropped,
  the surviving neighbours are *not* merged, cf. Fig. 1).

All interval endpoints are floats in the circuit's native time unit
(picoseconds throughout this code base).  Intervals are treated as closed
``[lo, hi]`` with a configurable comparison tolerance ``EPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Absolute tolerance used when comparing interval endpoints (picoseconds).
EPS = 1e-9


@dataclass(frozen=True, order=True)
class Interval:
    """A closed time interval ``[lo, hi]`` with ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.hi < self.lo - EPS:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        """Width of the interval (0 for a degenerate point interval)."""
        return max(0.0, self.hi - self.lo)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, t: float, *, tol: float = EPS) -> bool:
        """Return True if time ``t`` lies inside the interval (within tol)."""
        return self.lo - tol <= t <= self.hi + tol

    def overlaps(self, other: "Interval", *, tol: float = EPS) -> bool:
        """Return True if the two intervals intersect (within tol)."""
        return self.lo <= other.hi + tol and other.lo <= self.hi + tol

    def shifted(self, d: float) -> "Interval":
        """Interval translated by ``d`` time units (monitor delay shift)."""
        return Interval(self.lo + d, self.hi + d)

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection with ``other``, or None when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi < lo - EPS:
            return None
        return Interval(lo, min(hi, max(lo, hi)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.lo:g}, {self.hi:g}]"


class IntervalSet:
    """An immutable union of disjoint, sorted closed intervals.

    The constructor normalises its input: overlapping or touching intervals
    (within ``EPS``) are merged and zero-length fragments below ``EPS`` are
    kept as degenerate points only if explicitly allowed via ``keep_points``.
    """

    __slots__ = ("_ivals",)

    def __init__(self, intervals: Iterable[Interval | tuple[float, float]] = (),
                 *, keep_points: bool = False) -> None:
        items: list[Interval] = []
        for iv in intervals:
            if not isinstance(iv, Interval):
                iv = Interval(float(iv[0]), float(iv[1]))
            if iv.length <= EPS and not keep_points:
                continue
            items.append(iv)
        items.sort()
        merged: list[Interval] = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi + EPS:
                last = merged.pop()
                merged.append(Interval(last.lo, max(last.hi, iv.hi)))
            else:
                merged.append(iv)
        object.__setattr__(self, "_ivals", tuple(merged))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    @classmethod
    def single(cls, lo: float, hi: float) -> "IntervalSet":
        return cls([Interval(lo, hi)])

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "IntervalSet":
        return cls(Interval(a, b) for a, b in pairs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._ivals

    @property
    def is_empty(self) -> bool:
        return not self._ivals

    @property
    def measure(self) -> float:
        """Total length of all intervals."""
        return sum(iv.length for iv in self._ivals)

    @property
    def span(self) -> Interval | None:
        """Smallest interval containing the whole set, or None if empty."""
        if not self._ivals:
            return None
        return Interval(self._ivals[0].lo, self._ivals[-1].hi)

    def boundaries(self) -> list[float]:
        """All interval endpoints in ascending order (with duplicates kept)."""
        out: list[float] = []
        for iv in self._ivals:
            out.append(iv.lo)
            out.append(iv.hi)
        return out

    def contains(self, t: float, *, tol: float = EPS) -> bool:
        """Membership test for a single observation time."""
        # Binary search over the sorted disjoint intervals.
        lo, hi = 0, len(self._ivals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self._ivals[mid]
            if t < iv.lo - tol:
                hi = mid - 1
            elif t > iv.hi + tol:
                lo = mid + 1
            else:
                return True
        return False

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivals)

    def __len__(self) -> int:
        return len(self._ivals)

    def __bool__(self) -> bool:
        return bool(self._ivals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        if len(self._ivals) != len(other._ivals):
            return False
        return all(
            abs(a.lo - b.lo) <= EPS and abs(a.hi - b.hi) <= EPS
            for a, b in zip(self._ivals, other._ivals)
        )

    def __hash__(self) -> int:
        return hash(tuple((round(iv.lo, 6), round(iv.hi, 6)) for iv in self._ivals))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " ∪ ".join(repr(iv) for iv in self._ivals) or "∅"
        return f"IntervalSet({inner})"

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return IntervalSet([*self._ivals, *other._ivals])

    __or__ = union

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        i = j = 0
        a, b = self._ivals, other._ivals
        while i < len(a) and j < len(b):
            iv = a[i].intersect(b[j])
            if iv is not None and iv.length > EPS:
                out.append(iv)
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    __and__ = intersection

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self \\ other``."""
        out: list[Interval] = []
        for iv in self._ivals:
            pieces = [iv]
            for cut in other._ivals:
                if cut.lo > iv.hi:
                    break
                next_pieces: list[Interval] = []
                for p in pieces:
                    if not p.overlaps(cut):
                        next_pieces.append(p)
                        continue
                    if cut.lo - p.lo > EPS:
                        next_pieces.append(Interval(p.lo, cut.lo))
                    if p.hi - cut.hi > EPS:
                        next_pieces.append(Interval(cut.hi, p.hi))
                pieces = next_pieces
            out.extend(pieces)
        return IntervalSet(out)

    __sub__ = difference

    # ------------------------------------------------------------------
    # FAST-specific transformations
    # ------------------------------------------------------------------
    def shifted(self, d: float) -> "IntervalSet":
        """Translate every interval by ``d`` (Sec. III-B, ``I_SR = I_FF + d``).

        Translation preserves ordering, disjointness and lengths, so the
        canonical form survives and the constructor's sort-and-merge pass
        is skipped — this sits on the hot path of detection-range unions
        and of the rescheduling engine's per-pattern overlays.
        """
        if d == 0.0 or self.is_empty:
            return self
        out = object.__new__(IntervalSet)
        object.__setattr__(out, "_ivals",
                           tuple(iv.shifted(d) for iv in self._ivals))
        return out

    def clipped(self, lo: float, hi: float) -> "IntervalSet":
        """Restrict the set to the observable window ``[lo, hi]``."""
        if hi <= lo:
            return _EMPTY
        return self.intersection(IntervalSet.single(lo, hi))

    def filter_glitches(self, threshold: float) -> "IntervalSet":
        """Drop intervals shorter than ``threshold`` (pessimistic, Fig. 1).

        Intervals separated by a filtered glitch are kept disjoint; no merging
        across removed pieces happens, matching the paper's pessimism.
        Because the constructor already merged touching intervals, filtering
        here can only remove whole intervals.
        """
        if threshold <= 0:
            return self
        kept = [iv for iv in self._ivals if iv.length + EPS >= threshold]
        if len(kept) == len(self._ivals):
            return self
        return IntervalSet(kept)

    def midpoints(self) -> list[float]:
        """Midpoint of every interval (robust observation-time candidates)."""
        return [iv.midpoint for iv in self._ivals]


class IntervalAccumulator:
    """Mutable union builder for :class:`IntervalSet`.

    Repeatedly calling ``a = a.union(b)`` re-normalizes (sorts + merges) the
    accumulated set on every step — O(n²) over a long reduction.  The
    accumulator just collects raw intervals and normalizes once in
    :meth:`build`, which yields the identical canonical ``IntervalSet``
    (union is associative and the constructor performs the same merge).
    """

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[Interval] = []

    def add(self, intervals: "IntervalSet | Iterable[Interval]") -> None:
        """Accumulate all intervals of an :class:`IntervalSet` (or iterable)."""
        if isinstance(intervals, IntervalSet):
            self._parts.extend(intervals.intervals)
        else:
            self._parts.extend(intervals)

    def add_interval(self, lo: float, hi: float) -> None:
        self._parts.append(Interval(lo, hi))

    @property
    def is_empty(self) -> bool:
        """True when nothing was accumulated (build() would be empty too —
        the constructor can only drop degenerate pieces, never add)."""
        return not self._parts

    def build(self) -> IntervalSet:
        """Normalize the accumulated intervals into one IntervalSet."""
        if not self._parts:
            return _EMPTY
        return IntervalSet(self._parts)


_EMPTY = IntervalSet()


def _interval_unchecked(lo: float, hi: float) -> Interval:
    """:class:`Interval` without ``__post_init__`` validation.

    For callers that construct intervals from already-validated numeric
    arrays (the word-parallel simulation engine materializes thousands of
    detection pieces per run); the dataclass machinery dominates otherwise.
    """
    iv = Interval.__new__(Interval)
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    return iv


def _interval_set_from_sorted(ivals: tuple[Interval, ...]) -> IntervalSet:
    """:class:`IntervalSet` from already-canonical intervals.

    Callers must guarantee the constructor's invariants: sorted, pairwise
    disjoint with gaps ``> EPS`` and no piece of length ``<= EPS``.
    """
    s = IntervalSet.__new__(IntervalSet)
    object.__setattr__(s, "_ivals", ivals)
    return s


def segment_points(boundaries: Sequence[float] | np.ndarray, lo: float,
                   hi: float) -> list[float]:
    """Deduplicated cut points partitioning ``[lo, hi]`` at ``boundaries``.

    The sorted point list always starts at ``lo`` and ends at ``hi``;
    consecutive points differ by more than ``EPS`` (duplicate interval
    endpoints collapse), so every implied segment has positive length.
    Boundaries outside ``[lo, hi]`` are ignored.  Returns ``[]`` when the
    window itself is empty.  This is the sweep-line skeleton of the
    observation-time discretization (Sec. IV-A,
    :func:`repro.scheduling.discretize.sweep_grid`): the boundaries of all
    fault detection intervals cut the time axis into segments within
    which the detected fault set is constant.
    """
    if hi <= lo:
        return []
    b = np.asarray(boundaries, dtype=np.float64)
    pts = np.unique(np.concatenate(([lo, hi], b[(b > lo) & (b < hi)])))
    dedup: list[float] = []
    for p in pts.tolist():
        if not dedup or p - dedup[-1] > EPS:
            dedup.append(p)
    if len(dedup) < 2:
        return [lo, hi]
    return dedup
