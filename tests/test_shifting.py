"""Tests for detection-range shifting math (Sec. III-B).

A monitor delay ``d`` shifts the range its shadow register observes:
``I_SR = I_FF + d``.  These checks run on the production kernel,
:class:`~repro.faults.detection.RangeTable`, over hand-built one-fault
tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.faults.detection import FaultPatternRange, RangeTable
from repro.monitors.monitor import MonitorConfigSet
from repro.utils.intervals import IntervalSet


T_NOM = 300.0
T_MIN = 100.0
CONFIGS = MonitorConfigSet.paper_default(T_NOM)
EMPTY = IntervalSet.empty()


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


def table(i_all=EMPTY, i_mon=EMPTY) -> RangeTable:
    """Fault 0 with one pattern carrying the given ranges."""
    return RangeTable.from_ranges({0: {0: FaultPatternRange(i_all, i_mon)}})


def shifted_union(i_mon, configs) -> IntervalSet:
    """``⋃_{d∈C}(I_mon + d)``: the combined range without an FF range."""
    return table(i_mon=i_mon).combined(tuple(configs)).interval_set(0)


def observable(i_all, i_mon, configs, t_min=T_MIN, t_nom=T_NOM):
    """``I(φ) = I_FF ∪ ⋃_d (I_mon + d)`` clipped to the FAST window."""
    return table(i_all, i_mon).observable(
        tuple(configs), t_min, t_nom).interval_set(0)


class TestShiftedUnion:
    def test_single_config(self):
        out = shifted_union(iset((50, 70)), [100.0])
        assert out == iset((150, 170))

    def test_multiple_configs_union(self):
        out = shifted_union(iset((50, 70)), [10.0, 100.0])
        assert out == iset((60, 80), (150, 170))

    def test_empty_configs(self):
        assert shifted_union(iset((50, 70)), []).is_empty


class TestObservableRange:
    def test_recovers_subwindow_effects(self):
        """The paper's headline mechanism: effects in (0, t_nom/3) shifted
        into the window by d = t_nom/3."""
        i_mon = iset((50, 70))  # far below t_min = 100
        i_all = i_mon  # same observation point only
        no_mon = observable(i_all, EMPTY, CONFIGS)
        assert no_mon.is_empty
        with_mon = observable(i_all, i_mon, CONFIGS)
        assert not with_mon.is_empty
        # d = 45 lands partially in the window ([95,115] → [100,115]) and
        # d = 100 fully recovers the effect as [150, 170].
        assert with_mon == iset((100, 115), (150, 170))

    def test_ff_range_always_included(self):
        i_all = iset((150, 200))
        assert observable(i_all, EMPTY, CONFIGS) == i_all

    def test_clipping(self):
        assert observable(iset((50, 400)), EMPTY, ()) == iset((T_MIN, T_NOM))

    def test_range_for_single_config(self):
        out = observable(EMPTY, iset((80, 95)), (15.0,))
        assert out == iset((100, 110))


class TestDetectingConfigs:
    def test_selects_matching_delays(self):
        # period 120: need shift d with 120 in [80+d, 95+d] → d in [25, 40].
        entries, ff, mon = table(i_mon=iset((80, 95))).hits_at(
            120.0, np.array([0]), CONFIGS.delays)
        assert entries.tolist() == [0] and not ff[0]
        assert np.flatnonzero(mon[0]).tolist() == [1]  # 0.1 * 300 = 30

    def test_period_outside_window_empty(self):
        # d = 30 moves [280, 295] onto period 310: a step-2 row hit, yet
        # beyond t_nom, so I(φ) does not contain it.
        t = table(i_mon=iset((280, 295)))
        _entries, _ff, mon = t.hits_at(310.0, np.array([0]), CONFIGS.delays)
        assert mon[0, 1]
        assert not observable(EMPTY, iset((280, 295)), CONFIGS).contains(310.0)


class TestRecoverable:
    def test_full_recovery_with_third_delay(self):
        # Everything in (0, t_min) is recoverable with d = t_nom/3 when the
        # shifted copy lands inside the window.
        hidden = iset((20, 90))
        out = observable(EMPTY, hidden, CONFIGS)
        assert (hidden.shifted(T_NOM / 3) - out).measure == pytest.approx(0.0)
        assert observable(EMPTY, hidden, (T_NOM / 3,)).measure \
            == pytest.approx(hidden.measure)

    def test_nothing_to_recover(self):
        # Shifts only move ranges later: a range inside the window puts
        # nothing of I(φ) below t_min.
        inside = iset((150, 200))
        assert observable(inside, inside, CONFIGS, 0.0, T_MIN).is_empty


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
pairs = st.tuples(st.floats(0, 280, allow_nan=False),
                  st.floats(0, 280, allow_nan=False))


@st.composite
def ranges(draw):
    ps = draw(st.lists(pairs, max_size=5))
    return IntervalSet.from_pairs((min(a, b), max(a, b)) for a, b in ps)


@given(ranges(), ranges())
def test_observable_range_monotone_in_ff_range(extra, mon):
    base = observable(EMPTY, mon, CONFIGS)
    more = observable(extra, mon, CONFIGS)
    assert (base - more).measure == pytest.approx(0.0, abs=1e-6)


@given(ranges())
def test_more_configs_never_shrink(mon):
    few = observable(EMPTY, mon, CONFIGS.delays[:1])
    many = observable(EMPTY, mon, CONFIGS.delays)
    assert (few - many).measure == pytest.approx(0.0, abs=1e-6)


@given(ranges())
def test_result_always_within_window(mon):
    for iv in observable(mon, mon, CONFIGS):
        assert iv.lo >= T_MIN - 1e-9
        assert iv.hi <= T_NOM + 1e-9


@given(ranges(), st.sampled_from(CONFIGS.delays))
def test_monitor_range_is_ff_range_shifted(mon, d):
    """``I_SR = I_FF + d``: one configuration's unclipped combined range
    is the monitored range moved right by ``d``."""
    assert shifted_union(mon, (d,)) == mon.shifted(d)
