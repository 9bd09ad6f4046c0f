"""The flat range table and its ``I(φ)`` kernel against the one-fault
:class:`IntervalSet` definitions (Sec. III-B, Sec. IV-B).

Classification, target ranges, discretization and step 2 all read
:class:`~repro.faults.detection.RangeTable`.  Here random (fault, pattern)
ranges — with pieces that touch within ``EPS``, windows whose edges land
on piece ends and monitor delays whose shifts round — are pushed through
the kernel and through the interval-set definitions, and the results must
agree to the last bit:

* ``union_all`` / ``union_mon``: the accumulator union of every pattern's
  ``i_all`` / ``i_mon``;
* ``I(φ)``: :func:`repro.monitors.shifting.observable_range`;
* the five classes of :func:`classify_faults`, from the definitions in
  its docstring;
* the step-2 rows ``Φ_(m,n)``: ``t ∈ i_all ∪ (i_mon + d_n)`` per entry.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.classify import classify_faults
from repro.faults.detection import DetectionData, FaultPatternRange
from repro.monitors.monitor import MonitorConfigSet
from repro.monitors.shifting import observable_range
from repro.scheduling.resched import _combined_unclipped
from repro.scheduling.schedule import (
    FF_ONLY_CONFIG,
    ScheduleEntry,
    _solve_period,
    pattern_config_rows,
)
from repro.timing.clock import ClockSpec
from repro.utils.bitset import matrix_bits
from repro.utils.intervals import EPS, IntervalAccumulator, IntervalSet

#: Monitor delays whose sums with the piece ends round in binary.
DELAYS = (0.1, 0.3, 1 / 3, 7.7, 12.345678901, 33.3)

#: Piece ends: a coarse grid plus offsets of fractions of ``EPS``, so
#: pieces touch, overlap or miss each other by less than the tolerance.
points = st.builds(
    lambda base, nudge: base + nudge * EPS,
    st.integers(0, 60).map(lambda k: k * 2.5),
    st.sampled_from((-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)))


@st.composite
def interval_sets(draw):
    pairs = draw(st.lists(st.tuples(points, points), max_size=4))
    return IntervalSet.from_pairs((min(a, b), max(a, b)) for a, b in pairs)


@st.composite
def detection_data(draw):
    n_faults = draw(st.integers(1, 6))
    data = DetectionData(circuit=None, faults=[None] * n_faults,
                         patterns=None, horizon=150.0,
                         monitored_gates=frozenset())
    for fi in range(n_faults):
        for pi in draw(st.sets(st.integers(0, 3), max_size=3)):
            data.add(fi, pi, FaultPatternRange(draw(interval_sets()),
                                               draw(interval_sets())))
    return data


configs_st = st.lists(st.sampled_from(DELAYS), min_size=1, max_size=3,
                      unique=True).map(lambda ds: tuple(sorted(ds)))
windows = st.tuples(points, points).filter(lambda w: w[1] > 0.0)


def exact(rng: IntervalSet) -> tuple:
    return tuple((iv.lo, iv.hi) for iv in rng)


def reference_union(data: DetectionData, fi: int, attr: str) -> IntervalSet:
    acc = IntervalAccumulator()
    for fpr in data.ranges.get(fi, {}).values():
        acc.add(getattr(fpr, attr))
    return acc.build()


@settings(max_examples=150, deadline=None)
@given(detection_data(), configs_st, windows)
def test_kernel_matches_interval_set_definition(data, configs, window):
    t_min, t_nom = min(window), max(window)
    table = data.range_table()
    observable = table.observable(configs, t_min, t_nom)
    for fi in range(len(data.faults)):
        ua = reference_union(data, fi, "i_all")
        um = reference_union(data, fi, "i_mon")
        assert exact(table.union_all().interval_set(fi)) == exact(ua)
        assert exact(table.union_mon().interval_set(fi)) == exact(um)
        assert exact(table.combined(configs).interval_set(fi)) \
            == exact(_combined_unclipped(data, fi, configs))
        want = observable_range(ua, um, configs, t_min, t_nom)
        assert exact(observable.interval_set(fi)) == exact(want)
        assert exact(data.detection_range(fi, configs, t_min, t_nom)) \
            == exact(want)


@settings(max_examples=150, deadline=None)
@given(detection_data(), configs_st,
       st.tuples(points, points).filter(lambda w: min(w) > 0.0))
def test_classes_match_definitions(data, configs, window):
    t_nom = max(window)
    clock = ClockSpec(t_nom=t_nom, fast_ratio=t_nom / min(window))
    t_min = clock.t_min
    cfg = MonitorConfigSet(delays=configs)
    got = classify_faults(data, clock, cfg)
    want = {k: set() for k in ("conv", "prop", "at_speed", "mas",
                               "redundant", "target", "not_activated")}
    for fi in range(len(data.faults)):
        if fi not in data.ranges:
            want["not_activated"].add(fi)
            continue
        ua = reference_union(data, fi, "i_all")
        um = reference_union(data, fi, "i_mon")
        if observable_range(ua, um, configs, t_min, t_nom).is_empty:
            want["redundant"].add(fi)
            continue
        want["prop"].add(fi)
        if not ua.clipped(t_min, t_nom).is_empty:
            want["conv"].add(fi)
        if ua.contains(t_nom):
            want["at_speed"].add(fi)
        elif any(um.shifted(d).contains(t_nom) for d in configs):
            want["mas"].add(fi)
        else:
            want["target"].add(fi)
    assert got.conv_detected == want["conv"]
    assert got.prop_detected == want["prop"]
    assert got.at_speed == want["at_speed"]
    assert got.monitor_at_speed == want["mas"]
    assert got.timing_redundant == want["redundant"]
    assert got.target == want["target"]
    assert got.not_activated == want["not_activated"]


def reference_rows(ranges, fault_set, period, configs) -> dict:
    rows: dict = {}
    for fi in fault_set:
        for pi, fpr in ranges.get(fi, {}).items():
            ff_hit = fpr.i_all.contains(period)
            if configs is None:
                if ff_hit:
                    rows.setdefault((pi, FF_ONLY_CONFIG), set()).add(fi)
                continue
            for ci, d in enumerate(configs):
                if ff_hit or fpr.i_mon.shifted(d).contains(period):
                    rows.setdefault((pi, ci), set()).add(fi)
    return rows


def rows_as_sets(keys, matrix, elements) -> dict:
    return {k: {elements[b] for b in bits}
            for k, bits in zip(keys, matrix_bits(matrix))}


def edge_periods(data, shift, configs) -> list[float]:
    """Periods exactly on the tolerance edge of some shifted piece."""
    out = []
    for d in (0.0, *(configs or ())):
        for per in data.ranges.values():
            for fpr in per.values():
                for iv in (*fpr.i_all, *fpr.i_mon):
                    out.append(((iv.lo + shift) + d) - EPS)
                    out.append(((iv.hi + shift) + d) + EPS)
    return out


@settings(max_examples=200, deadline=None)
@given(detection_data(), st.one_of(st.none(), configs_st), st.data())
def test_step2_rows_match_detection_rule(data, configs, draw):
    fault_set = frozenset(draw.draw(st.sets(
        st.integers(0, len(data.faults) - 1), min_size=1)))
    shift = draw.draw(st.sampled_from((0.0, 0.25, 1 / 3, -2.2)))
    edges = edge_periods(data, shift, configs)
    period = draw.draw(st.sampled_from(edges) if edges and draw.draw(
        st.booleans()) else points)
    keys, matrix, elements = pattern_config_rows(
        data.range_table().shifted({f: shift for f in fault_set}),
        fault_set, period, configs)
    assert keys == sorted(keys)
    assert list(elements) == sorted(fault_set, key=repr)
    shifted = {f: {pi: FaultPatternRange(fpr.i_all.shifted(shift),
                                         fpr.i_mon.shifted(shift))
                   for pi, fpr in per.items()}
               for f, per in data.ranges.items() if f in fault_set}
    assert rows_as_sets(keys, matrix, elements) == reference_rows(
        shifted, fault_set, period, configs)


def test_table_is_rebuilt_after_add_and_never_pickled():
    data = DetectionData(circuit=None, faults=[None, None], patterns=None,
                         horizon=10.0, monitored_gates=frozenset())
    a = IntervalSet.single(1.0, 2.0)
    data.add(0, 0, FaultPatternRange(a, IntervalSet.empty()))
    first = data.range_table()
    assert data.range_table() is first
    data.add(1, 0, FaultPatternRange(a, a))
    assert data.range_table() is not first
    assert data.range_table().faults.tolist() == [0, 1]
    clone = pickle.loads(pickle.dumps(data))
    assert clone._table is None
    assert exact(clone.union_mon(1)) == exact(a)


def test_step2_rejects_a_fault_no_row_detects():
    data = DetectionData(circuit=None, faults=[None, None], patterns=None,
                         horizon=10.0, monitored_gates=frozenset())
    data.add(0, 0, FaultPatternRange(IntervalSet.single(1.0, 2.0),
                                     IntervalSet.empty()))
    data.add(1, 0, FaultPatternRange(IntervalSet.single(5.0, 6.0),
                                     IntervalSet.empty()))
    for solver in ("ilp", "greedy"):
        with pytest.raises(ValueError,
                           match=r"1 universe elements not coverable: \[1\]"):
            _solve_period(data.range_table(), 1.5, frozenset({0, 1}), None,
                          solver, 10.0)
    assert _solve_period(data.range_table(), 1.5, frozenset({0}), None,
                         "ilp", 10.0) == [
        ScheduleEntry(period=1.5, pattern=0, config=FF_ONLY_CONFIG)]
