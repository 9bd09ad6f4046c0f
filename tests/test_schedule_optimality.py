"""Brute-force optimality checks for the two-step schedule optimization.

Small synthetic detection-data instances are built directly (no circuit or
simulation involved), the ILP schedule is computed, and exhaustive
enumeration confirms that no schedule with fewer frequencies exists —
i.e. step 1 really solves the covering problem optimally (Sec. IV-C).
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.patterns import PatternPair, TestSet
from repro.faults.detection import DetectionData, FaultPatternRange, RangeTable
from repro.faults.models import FaultSite, SmallDelayFault
from repro.monitors.monitor import MonitorConfigSet
from repro.netlist.circuit import Circuit, GateKind
from repro.scheduling.schedule import optimize_schedule
from repro.timing.clock import ClockSpec
from repro.utils.intervals import IntervalSet


T_NOM = 300.0
CLOCK = ClockSpec(T_NOM)
CONFIGS = MonitorConfigSet.paper_default(T_NOM)


def _dummy_circuit() -> Circuit:
    c = Circuit("dummy")
    a = c.add_input("a")
    g = c.add_gate("g", GateKind.NOT, [a])
    c.mark_output(g)
    return c.finalize()


def make_data(fault_ranges: list[list[tuple[float, float]]],
              n_patterns: int = 3, seed: int = 0) -> DetectionData:
    """Synthetic DetectionData: fault i has the given raw FF intervals,
    split randomly across patterns; no monitor ranges."""
    rng = random.Random(seed)
    circuit = _dummy_circuit()
    width = len(circuit.sources())
    patterns = TestSet(circuit, [
        PatternPair((0,) * width, (1,) * width) for _ in range(n_patterns)])
    faults = [SmallDelayFault(FaultSite(1), True, float(i + 1))
              for i in range(len(fault_ranges))]
    ranges: dict = {}
    for fi, intervals in enumerate(fault_ranges):
        for iv in intervals:
            pi = rng.randrange(n_patterns)
            ranges.setdefault(fi, {})[pi] = FaultPatternRange(
                i_all=IntervalSet.from_pairs([iv]),
                i_mon=IntervalSet.empty())
    return with_ranges(circuit, faults, patterns, ranges)


def with_ranges(circuit, faults, patterns, ranges) -> DetectionData:
    return DetectionData(circuit=circuit, faults=faults, patterns=patterns,
                         horizon=T_NOM, monitored_gates=frozenset(),
                         table=RangeTable.from_ranges(ranges))


def brute_force_min_frequencies(data: DetectionData,
                                targets: set[int]) -> int:
    """Smallest number of periods covering all targets, by enumeration over
    the candidate midpoints of the union ranges."""
    ranges = {fi: data.union_all(fi).clipped(CLOCK.t_min, T_NOM)
              for fi in targets}
    ranges = {fi: r for fi, r in ranges.items() if not r.is_empty}
    boundaries = sorted({b for r in ranges.values() for b in r.boundaries()})
    candidates = sorted({(a + b) / 2 for a, b in zip(boundaries,
                                                     boundaries[1:])}
                        | set(boundaries))
    covers = {
        t: frozenset(fi for fi, r in ranges.items() if r.contains(t))
        for t in candidates
    }
    universe = frozenset(ranges)
    for k in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            got = frozenset().union(*(covers[t] for t in combo))
            if got >= universe:
                return k
    return 0


intervals_strategy = st.lists(
    st.tuples(st.floats(min_value=T_NOM / 3, max_value=T_NOM - 1,
                        allow_nan=False),
              st.floats(min_value=2.0, max_value=60.0, allow_nan=False)),
    min_size=1, max_size=2)


@st.composite
def instances(draw):
    n_faults = draw(st.integers(2, 6))
    fault_ranges = []
    for _ in range(n_faults):
        ivs = draw(intervals_strategy)
        fault_ranges.append([(lo, min(T_NOM, lo + width))
                             for lo, width in ivs])
    return fault_ranges


@settings(max_examples=25, deadline=None)
@given(instances())
def test_ilp_frequency_count_is_optimal(fault_ranges):
    data = make_data(fault_ranges)
    targets = set(range(len(fault_ranges)))
    sched = optimize_schedule(data, targets, CLOCK, configs=None,
                              solver="ilp")
    optimal = brute_force_min_frequencies(data, targets)
    assert sched.num_frequencies == optimal
    assert sched.covered == frozenset(targets)


@settings(max_examples=15, deadline=None)
@given(instances())
def test_greedy_never_beats_ilp(fault_ranges):
    data = make_data(fault_ranges)
    targets = set(range(len(fault_ranges)))
    ilp = optimize_schedule(data, targets, CLOCK, configs=None, solver="ilp")
    greedy = optimize_schedule(data, targets, CLOCK, configs=None,
                               solver="greedy")
    assert ilp.num_frequencies <= greedy.num_frequencies


def test_step2_single_pattern_suffices_when_shared():
    """Faults detectable by one pattern at one period need one entry."""
    data = make_data([[(150.0, 200.0)], [(150.0, 200.0)]],
                     n_patterns=1)
    sched = optimize_schedule(data, {0, 1}, CLOCK, configs=None)
    assert sched.num_frequencies == 1
    assert sched.num_entries == 1


def test_step2_distinct_patterns_need_two_entries():
    data = make_data([[(150.0, 200.0)], [(150.0, 200.0)]],
                     n_patterns=2, seed=3)
    # Force the two faults onto different patterns.
    data = with_ranges(data.circuit, data.faults, data.patterns, {
        0: {0: data.ranges[0][list(data.ranges[0])[0]]},
        1: {1: data.ranges[1][list(data.ranges[1])[0]]}})
    sched = optimize_schedule(data, {0, 1}, CLOCK, configs=None)
    assert sched.num_frequencies == 1
    assert sched.num_entries == 2
