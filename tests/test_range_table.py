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
* ``I(φ)``: :func:`observable_range`, its one-fault definition below;
* the five classes of :func:`classify_faults`, from the definitions in
  its docstring;
* the step-2 rows ``Φ_(m,n)``: ``t ∈ i_all ∪ (i_mon + d_n)`` per entry.

The table is also the stored form of :class:`DetectionData`: a round trip
through the stage store keeps the arrays and no interval-set object.
"""

from __future__ import annotations

import pickletools
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.classify import classify_faults
from repro.faults.detection import (
    DetectionData,
    FaultPatternRange,
    RangeTable,
)
from repro.monitors.monitor import MonitorConfigSet
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


def observable_range(i_all: IntervalSet, i_mon: IntervalSet,
                     configs: Iterable[float],
                     t_min: float, t_nom: float) -> IntervalSet:
    """One fault's ``I(φ) = I_FF ∪ ⋃_d (I_mon + d)`` clipped to the FAST
    window (Definition 2 extended by Sec. III-B), in the kernel's float
    operation order: the shifted copies of ``i_mon`` and ``i_all`` are
    merged once, then clipped."""
    acc = IntervalAccumulator()
    acc.add(i_all)
    for d in configs:
        acc.add(i_mon.shifted(d))
    return acc.build().clipped(t_min, t_nom)


def data_of(ranges: dict, n_faults: int) -> DetectionData:
    return DetectionData(circuit=None, faults=[None] * n_faults,
                         patterns=None, horizon=150.0,
                         monitored_gates=frozenset(),
                         table=RangeTable.from_ranges(ranges))


@st.composite
def detection_data(draw):
    n_faults = draw(st.integers(1, 6))
    ranges: dict = {}
    for fi in range(n_faults):
        for pi in draw(st.sets(st.integers(0, 3), max_size=3)):
            fpr = FaultPatternRange(draw(interval_sets()),
                                    draw(interval_sets()))
            if not fpr.is_empty:
                ranges.setdefault(fi, {})[pi] = fpr
    return data_of(ranges, n_faults)


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
    table = data.table
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
        data.table.shifted({f: shift for f in fault_set}),
        fault_set, period, configs)
    assert keys == sorted(keys)
    assert list(elements) == sorted(fault_set, key=repr)
    shifted = {f: {pi: FaultPatternRange(fpr.i_all.shifted(shift),
                                         fpr.i_mon.shifted(shift))
                   for pi, fpr in per.items()}
               for f, per in data.ranges.items() if f in fault_set}
    assert rows_as_sets(keys, matrix, elements) == reference_rows(
        shifted, fault_set, period, configs)


def test_ranges_view_round_trips_through_the_table():
    a, b = IntervalSet.single(1.0, 2.0), IntervalSet.single(5.0, 6.0)
    ranges = {0: {0: FaultPatternRange(a, IntervalSet.empty()),
                  3: FaultPatternRange(b, a)},
              2: {1: FaultPatternRange(IntervalSet.empty(), b)}}
    data = data_of(ranges, 3)
    assert data.ranges == ranges
    assert list(data.ranges) == [0, 2]
    assert list(data.ranges[0]) == [0, 3]
    assert 1 not in data.ranges and 1 not in data.ranges[0]
    assert data.ranges.get(1) is None and data.ranges[0].get(1) is None
    assert data.pairs_for_fault(0) == sorted(ranges[0].items())


def _global_names(payload: bytes) -> set[str]:
    """Every string a pickle stream names, GLOBAL module/name pairs split."""
    names: set[str] = set()
    for _op, arg, _pos in pickletools.genops(payload):
        if isinstance(arg, str):
            names.update(arg.split())
    return names


def test_stored_form_is_the_table(tmp_path, flow_result_small):
    import copy
    import pickle

    from repro.core.stages import DetectionArtifact
    from repro.experiments.artifact_cache import StageCache
    from repro.scheduling.schedule import optimize_schedule

    res = flow_result_small
    data = copy.deepcopy(res.data)
    data._invalidate()
    before = dict(data.ranges)
    # Fill every memo the stored form must leave behind.
    optimize_schedule(data, res.classification.target, res.clock,
                      res.configs)
    assert len(data.table._memo) and len(data._sched_cache)

    store = StageCache(tmp_path)
    store.store("k" * 64, DetectionArtifact(data=data))
    payload = next(tmp_path.rglob("*.pkl")).read_bytes()
    assert not _global_names(payload) & {"IntervalSet", "Interval",
                                         "FaultPatternRange"}
    assert "RangeTable" in _global_names(payload)
    assert pickle.loads(payload).data.table.faults.size

    loaded = store.load("k" * 64).data
    for got, want in zip(loaded.table.arrays(), data.table.arrays()):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert len(loaded.table._memo) == 0
    assert loaded.table._union_all is None and loaded.table._union_mon is None
    assert len(loaded._sched_cache) == 0
    assert loaded.ranges == before
    with pytest.raises(TypeError):
        loaded.ranges[0] = {}
    fi = next(iter(loaded.ranges))
    with pytest.raises(TypeError):
        loaded.ranges[fi][0] = FaultPatternRange(IntervalSet.empty(),
                                                 IntervalSet.empty())


def test_step2_rejects_a_fault_no_row_detects():
    data = data_of({0: {0: FaultPatternRange(IntervalSet.single(1.0, 2.0),
                                             IntervalSet.empty())},
                    1: {0: FaultPatternRange(IntervalSet.single(5.0, 6.0),
                                             IntervalSet.empty())}}, 2)
    for solver in ("ilp", "greedy"):
        with pytest.raises(ValueError,
                           match=r"1 universe elements not coverable: \[1\]"):
            _solve_period(data.table, 1.5, frozenset({0, 1}), None,
                          solver, 10.0)
    assert _solve_period(data.table, 1.5, frozenset({0}), None,
                         "ilp", 10.0) == [
        ScheduleEntry(period=1.5, pattern=0, config=FF_ONLY_CONFIG)]
