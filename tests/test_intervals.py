"""Unit and property tests for the interval algebra."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.utils.intervals import EPS, Interval, IntervalSet, segment_points


def iset(*pairs: tuple[float, float]) -> IntervalSet:
    return IntervalSet.from_pairs(pairs)


# ----------------------------------------------------------------------
# Interval basics
# ----------------------------------------------------------------------
class TestInterval:
    def test_length_and_midpoint(self):
        iv = Interval(2.0, 6.0)
        assert iv.length == 4.0
        assert iv.midpoint == 4.0

    def test_degenerate_interval_allowed(self):
        assert Interval(3.0, 3.0).length == 0.0

    def test_inverted_raises(self):
        with pytest.raises(ValueError):
            Interval(5.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_contains_with_tolerance(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0)
        assert iv.contains(2.0)
        assert not iv.contains(2.1)

    def test_overlaps(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert Interval(0, 2).overlaps(Interval(2, 3))  # touching counts
        assert not Interval(0, 1).overlaps(Interval(2, 3))

    def test_shifted(self):
        assert Interval(1, 2).shifted(0.5) == Interval(1.5, 2.5)

    def test_intersect_disjoint_is_none(self):
        assert Interval(0, 1).intersect(Interval(2, 3)) is None


# ----------------------------------------------------------------------
# IntervalSet construction and queries
# ----------------------------------------------------------------------
class TestIntervalSetBasics:
    def test_empty(self):
        s = IntervalSet.empty()
        assert s.is_empty
        assert s.measure == 0.0
        assert not s.contains(1.0)
        assert len(s) == 0

    def test_merges_overlapping(self):
        s = iset((0, 2), (1, 3))
        assert len(s) == 1
        assert s.intervals[0] == Interval(0, 3)

    def test_merges_touching(self):
        s = iset((0, 1), (1, 2))
        assert len(s) == 1

    def test_keeps_disjoint(self):
        s = iset((0, 1), (2, 3))
        assert len(s) == 2

    def test_drops_zero_length_by_default(self):
        assert iset((1, 1)).is_empty

    def test_measure(self):
        assert iset((0, 1), (2, 4)).measure == pytest.approx(3.0)

    def test_span(self):
        assert iset((0, 1), (5, 6)).span == Interval(0, 6)
        assert IntervalSet.empty().span is None

    def test_contains_binary_search(self):
        s = iset(*((float(i), float(i) + 0.5) for i in range(0, 40, 2)))
        assert s.contains(10.2)
        assert not s.contains(11.0)

    def test_boundaries_sorted(self):
        assert iset((2, 3), (0, 1)).boundaries() == [0, 1, 2, 3]

    def test_equality_with_tolerance(self):
        assert iset((0, 1)) == iset((0, 1 + EPS / 2))
        assert iset((0, 1)) != iset((0, 2))

    def test_midpoints(self):
        assert iset((0, 2), (4, 6)).midpoints() == [1.0, 5.0]


# ----------------------------------------------------------------------
# Set algebra
# ----------------------------------------------------------------------
class TestAlgebra:
    def test_union(self):
        assert iset((0, 1)) | iset((2, 3)) == iset((0, 1), (2, 3))

    def test_union_with_empty(self):
        s = iset((1, 2))
        assert s | IntervalSet.empty() == s
        assert IntervalSet.empty() | s == s

    def test_intersection(self):
        a = iset((0, 5), (10, 15))
        b = iset((3, 12))
        assert (a & b) == iset((3, 5), (10, 12))

    def test_intersection_disjoint(self):
        assert (iset((0, 1)) & iset((2, 3))).is_empty

    def test_difference(self):
        a = iset((0, 10))
        b = iset((2, 3), (5, 6))
        assert a - b == iset((0, 2), (3, 5), (6, 10))

    def test_difference_total(self):
        assert (iset((1, 2)) - iset((0, 3))).is_empty

    def test_shift(self):
        assert iset((1, 2), (4, 5)).shifted(10) == iset((11, 12), (14, 15))

    def test_shift_zero_is_identity(self):
        s = iset((1, 2))
        assert s.shifted(0.0) is s

    def test_clip(self):
        assert iset((0, 10)).clipped(3, 7) == iset((3, 7))
        assert iset((0, 1)).clipped(5, 6).is_empty
        assert iset((0, 10)).clipped(7, 3).is_empty


# ----------------------------------------------------------------------
# Pulse filtering (Fig. 1 semantics)
# ----------------------------------------------------------------------
class TestGlitchFilter:
    def test_drops_short_intervals(self):
        s = iset((0, 0.5), (2, 8))
        assert s.filter_glitches(1.0) == iset((2, 8))

    def test_does_not_merge_across_removed_glitch(self):
        # Pessimism: survivors stay disjoint.
        s = iset((0, 5), (5.5, 5.8), (6.5, 10))
        out = s.filter_glitches(1.0)
        assert out == iset((0, 5), (6.5, 10))
        assert len(out) == 2

    def test_zero_threshold_keeps_everything(self):
        s = iset((0, 0.1))
        assert s.filter_glitches(0.0) is s

    def test_exact_threshold_survives(self):
        assert not iset((0, 1.0)).filter_glitches(1.0).is_empty


# ----------------------------------------------------------------------
# Axis segmentation (Fig. 5 discretization support)
# ----------------------------------------------------------------------
class TestSegmentAxis:
    """:func:`segment_points` cuts the window into segments."""

    def test_basic(self):
        assert segment_points([2, 4], 0, 6) == [0, 2, 4, 6]

    def test_out_of_range_boundaries_ignored(self):
        assert segment_points([-5, 100], 0, 6) == [0, 6]

    def test_duplicates_collapsed(self):
        pts = segment_points([3, 3.0, 3], 0, 6)
        assert pts == [0, 3, 6]
        assert len(pts) - 1 == 2        # two segments

    def test_empty_window(self):
        assert segment_points([1], 5, 5) == []


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------
finite = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                   allow_infinity=False)


@st.composite
def interval_sets(draw):
    pairs = draw(st.lists(st.tuples(finite, finite), max_size=8))
    return IntervalSet.from_pairs(
        (min(a, b), max(a, b)) for a, b in pairs)


@given(interval_sets(), interval_sets())
def test_union_commutes(a, b):
    assert a | b == b | a


@given(interval_sets(), interval_sets())
def test_intersection_commutes(a, b):
    assert (a & b) == (b & a)


@given(interval_sets(), interval_sets(), interval_sets())
def test_union_associates(a, b, c):
    assert (a | b) | c == a | (b | c)


@given(interval_sets(), interval_sets())
def test_demorgan_measures(a, b):
    # |A| + |B| = |A ∪ B| + |A ∩ B| (inclusion-exclusion on measures).
    lhs = a.measure + b.measure
    rhs = (a | b).measure + (a & b).measure
    assert lhs == pytest.approx(rhs, abs=1e-6)


@given(interval_sets(), interval_sets())
def test_difference_disjoint_from_subtrahend(a, b):
    assert ((a - b) & b).measure == pytest.approx(0.0, abs=1e-6)


@given(interval_sets(), interval_sets())
def test_difference_union_restores(a, b):
    assert ((a - b) | (a & b)) == a or (
        # Tolerate boundary-point differences from EPS merging.
        abs(((a - b) | (a & b)).measure - a.measure) < 1e-6)


@given(interval_sets(), finite)
def test_shift_preserves_measure(s, d):
    assert s.shifted(d).measure == pytest.approx(s.measure, rel=1e-9, abs=1e-9)


@given(interval_sets(), finite, finite)
def test_clip_is_subset(s, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    clipped = s.clipped(lo, hi)
    assert clipped.measure <= s.measure + 1e-9
    for iv in clipped:
        assert iv.lo >= lo - EPS and iv.hi <= hi + EPS


@given(interval_sets(), st.floats(min_value=0.01, max_value=100))
def test_glitch_filter_only_removes(s, threshold):
    out = s.filter_glitches(threshold)
    assert out.measure <= s.measure + 1e-9
    for iv in out:
        assert iv.length + EPS >= threshold


@given(interval_sets())
def test_normal_form_disjoint_sorted(s):
    ivs = s.intervals
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi < b.lo - EPS or b.lo - a.hi > EPS

# ----------------------------------------------------------------------
# IntervalAccumulator
# ----------------------------------------------------------------------
class TestIntervalAccumulator:
    def test_build_equals_repeated_union(self):
        from repro.utils.intervals import IntervalAccumulator

        sets = [iset((0, 2), (5, 7)), iset((1, 3)), iset((6, 9), (10, 11))]
        acc = IntervalAccumulator()
        expected = IntervalSet()
        for s in sets:
            acc.add(s)
            expected = expected.union(s)
        assert acc.build() == expected

    def test_empty_build_is_canonical_empty(self):
        from repro.utils.intervals import IntervalAccumulator

        acc = IntervalAccumulator()
        assert acc.is_empty
        built = acc.build()
        assert built.is_empty
        # Empty accumulators share the module-level empty set.
        assert built is IntervalAccumulator().build()

    def test_add_interval_and_iterables(self):
        from repro.utils.intervals import IntervalAccumulator

        acc = IntervalAccumulator()
        acc.add_interval(0.0, 1.0)
        acc.add([Interval(0.5, 2.0)])
        assert not acc.is_empty
        assert acc.build() == iset((0, 2))

    @given(st.lists(st.lists(
        st.tuples(st.floats(0, 50), st.floats(0, 50)), max_size=4),
        max_size=5))
    def test_property_matches_union(self, groups):
        from repro.utils.intervals import IntervalAccumulator

        sets = [IntervalSet.from_pairs(
            [(min(a, b), max(a, b)) for a, b in g]) for g in groups]
        acc = IntervalAccumulator()
        expected = IntervalSet()
        for s in sets:
            acc.add(s)
            expected = expected.union(s)
        assert acc.build() == expected
