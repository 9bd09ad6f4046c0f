"""Tests for observation-time discretization (Sec. IV-A, Fig. 5)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.scheduling.discretize import (
    discretize_candidate_set,
    discretize_observation_times,
)
from repro.utils.bitset import row_bits
from repro.utils.intervals import EPS, IntervalSet


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


class TestFig5Example:
    """The three-fault example of Fig. 5."""

    @pytest.fixture()
    def ranges(self):
        # φ1 detectable in [1, 4], φ2 in [3, 7], φ3 in [6, 9]; window [0, 10].
        return {
            1: iset((1.0, 4.0)),
            2: iset((3.0, 7.0)),
            3: iset((6.0, 9.0)),
        }

    def test_segments_and_counts(self, ranges):
        cands = discretize_observation_times(ranges, 0.0, 10.0,
                                             prune_dominated=False)
        by_faults = {tuple(sorted(c.faults)): c for c in cands}
        # Overlap segments detect two faults each (the paper's T0 and T1).
        assert (1, 2) in by_faults
        assert (2, 3) in by_faults
        assert by_faults[(1, 2)].time == pytest.approx(3.5)
        assert by_faults[(2, 3)].time == pytest.approx(6.5)

    def test_dominated_pruning_keeps_cover(self, ranges):
        cands = discretize_observation_times(ranges, 0.0, 10.0,
                                             prune_dominated=True)
        # Single-fault segments are dominated by the two-fault overlaps.
        fault_sets = {tuple(sorted(c.faults)) for c in cands}
        assert fault_sets == {(1, 2), (2, 3)}
        covered = set().union(*(c.faults for c in cands))
        assert covered == {1, 2, 3}

    def test_midpoints_inside_segments(self, ranges):
        for c in discretize_observation_times(ranges, 0.0, 10.0):
            assert c.segment.lo < c.time < c.segment.hi


class TestEdgeCases:
    def test_empty_input(self):
        assert discretize_observation_times({}, 0.0, 10.0) == []

    def test_fault_outside_window_ignored(self):
        cands = discretize_observation_times({1: iset((20.0, 30.0))}, 0.0, 10.0)
        assert cands == []

    def test_adjacent_identical_segments_merged(self):
        # One fault: boundaries from another fault's range split its segment,
        # but the second fault is out of window -> identical sets merge back.
        ranges = {1: iset((1.0, 9.0))}
        cands = discretize_observation_times(ranges, 0.0, 10.0,
                                             prune_dominated=False)
        assert len(cands) == 1
        assert cands[0].faults == frozenset({1})

    def test_disjoint_detection_intervals(self):
        ranges = {1: iset((1.0, 2.0), (8.0, 9.0))}
        cands = discretize_observation_times(ranges, 0.0, 10.0,
                                             prune_dominated=True)
        assert len(cands) == 1  # both segments identical set -> one pruned

    def test_candidates_sorted_by_time(self):
        ranges = {i: iset((float(i), float(i) + 2.0)) for i in range(1, 6)}
        cands = discretize_observation_times(ranges, 0.0, 10.0)
        times = [c.time for c in cands]
        assert times == sorted(times)

    def test_degenerate_window_yields_no_candidates(self):
        # Zero-length observation window: every segment is degenerate and
        # must be masked out rather than becoming a zero-length candidate.
        ranges = {1: iset((1.0, 9.0))}
        assert discretize_observation_times(ranges, 5.0, 5.0) == []
        cs = discretize_candidate_set(ranges, 5.0, 5.0)
        assert cs.candidates == ()
        assert cs.matrix.shape[0] == 0

    def test_candidate_segments_have_positive_length(self):
        ranges = {1: iset((1.0, 4.0)), 2: iset((4.0, 4.0 + 1e-12)),
                  3: iset((6.0, 9.0))}
        for c in discretize_observation_times(ranges, 0.0, 10.0,
                                              prune_dominated=False):
            assert c.segment.length > 0.0


class TestPackedView:
    def test_matrix_rows_match_candidate_sets(self):
        ranges = {1: iset((1.0, 4.0)), 2: iset((3.0, 7.0)),
                  3: iset((6.0, 9.0))}
        cs = discretize_candidate_set(ranges, 0.0, 10.0,
                                      prune_dominated=False)
        assert cs.matrix.shape[0] == len(cs.candidates)
        for cand, bits in zip(cs.candidates, map(row_bits, cs.matrix)):
            assert frozenset(cs.fault_ids[b] for b in bits) == cand.faults

    def test_times_are_native_floats(self):
        # numpy scalars leaking out of the sweep broke schedule export once;
        # candidate times and segment bounds must be plain floats.
        ranges = {1: iset((1.0, 4.0)), 2: iset((3.0, 7.0))}
        for c in discretize_observation_times(ranges, 0.0, 10.0):
            assert type(c.time) is float
            assert type(c.segment.lo) is float
            assert type(c.segment.hi) is float


finite = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def fault_ranges(draw):
    n = draw(st.integers(1, 6))
    out = {}
    for i in range(n):
        pairs = draw(st.lists(st.tuples(finite, finite), min_size=1,
                              max_size=3))
        out[i] = IntervalSet.from_pairs(
            (min(a, b), max(a, b)) for a, b in pairs)
    return {k: v for k, v in out.items() if not v.is_empty}


@given(fault_ranges())
def test_property_candidates_detect_their_faults(ranges):
    cands = discretize_observation_times(ranges, 0.0, 100.0)
    for c in cands:
        for fi in c.faults:
            assert ranges[fi].contains(c.time)


@given(fault_ranges())
def test_property_pruning_preserves_coverable_universe(ranges):
    full = discretize_observation_times(ranges, 0.0, 100.0,
                                        prune_dominated=False)
    pruned = discretize_observation_times(ranges, 0.0, 100.0,
                                          prune_dominated=True)
    cover_full = set().union(*(c.faults for c in full)) if full else set()
    cover_pruned = set().union(*(c.faults for c in pruned)) if pruned else set()
    assert cover_full == cover_pruned
    assert len(pruned) <= len(full)


@given(fault_ranges())
def test_property_no_candidate_dominated_after_pruning(ranges):
    pruned = discretize_observation_times(ranges, 0.0, 100.0,
                                          prune_dominated=True)
    for i, a in enumerate(pruned):
        for j, b in enumerate(pruned):
            if i != j:
                assert not (a.faults < b.faults)


def _detected_at(ranges, t) -> frozenset:
    return frozenset(fi for fi, rng in ranges.items() if rng.contains(t))


@given(fault_ranges(), st.booleans())
def test_property_matches_definition(ranges, prune):
    """Sec. IV-A from first principles: segments are disjoint and sorted,
    each candidate time lies strictly inside its segment and detects
    exactly the faults whose range contains it; without pruning every
    detecting time of the window falls in a candidate with its fault set;
    pruning keeps the union and drops only rows another kept row contains.
    """
    full = discretize_observation_times(ranges, 0.0, 100.0,
                                        prune_dominated=False)
    cands = discretize_observation_times(ranges, 0.0, 100.0,
                                         prune_dominated=prune)
    for c in cands:
        assert c.segment.lo < c.time < c.segment.hi
        assert c.faults == _detected_at(ranges, c.time)
    for a, b in zip(cands, cands[1:]):
        assert a.segment.hi <= b.segment.lo + EPS
    cuts = sorted({0.0, 100.0, *(b for rng in ranges.values()
                                 for b in rng.boundaries()
                                 if 0.0 < b < 100.0)})
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo < 1e-6:
            continue            # the EPS tolerance decides, not the rule
        t = 0.5 * (lo + hi)
        want = _detected_at(ranges, t)
        home = [c for c in full if c.segment.lo <= t <= c.segment.hi]
        assert [c.faults for c in home] == ([want] if want else []), t
    kept = {(c.time, c.faults) for c in cands}
    assert kept <= {(c.time, c.faults) for c in full}
    assert (set().union(*(c.faults for c in cands))
            == set().union(*(c.faults for c in full)))
    for c in full:
        if (c.time, c.faults) not in kept:
            assert any(c.faults <= k.faults for k in cands), c
