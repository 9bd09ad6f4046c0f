"""Seed (pre-bitset) scheduling pipeline, retained verbatim.

This module preserves the PR-1-era scheduler — per-segment ``frozenset``
discretization, frozenset dominance pruning, set-based greedy covering and
the unreduced ILP — exactly as it shipped, for golden equivalence:
``tests/test_schedule_golden.py`` asserts the bitset pipeline
(:mod:`repro.scheduling.discretize`, :mod:`repro.scheduling.schedule`)
selects identical period sets and entry counts on s27 / c17 / synthetic
circuits.

Do not optimize this module; it is the measurement yardstick.
"""

from __future__ import annotations

from typing import Mapping

from repro.faults.detection import DetectionData
from repro.monitors.monitor import MonitorConfigSet
from repro.monitors.shifting import observable_range
from repro.scheduling.discretize import PeriodCandidate, _pick_time
from repro.scheduling.schedule import (
    FF_ONLY_CONFIG,
    ScheduleEntry,
    ScheduleResult,
    Solver,
    _pattern_config_subsets,
)
from repro.scheduling.setcover import (
    DEFAULT_TIME_LIMIT_S,
    CoverProblem,
    ilp_cover,
)
from repro.timing.clock import ClockSpec
from repro.utils.intervals import Interval, IntervalSet, segment_axis


def discretize_observation_times_reference(
    fault_ranges: Mapping[int, IntervalSet],
    t_min: float,
    t_nom: float,
    *,
    prune_dominated: bool = True,
    point: str = "mid",
) -> list[PeriodCandidate]:
    """Seed discretization: one frozenset membership pass per segment."""
    boundaries: list[float] = []
    for rng in fault_ranges.values():
        boundaries.extend(rng.boundaries())
    segments = segment_axis(boundaries, t_min, t_nom)

    candidates: list[PeriodCandidate] = []
    for seg in segments:
        mid = seg.midpoint
        detected = frozenset(
            fi for fi, rng in fault_ranges.items() if rng.contains(mid))
        if not detected:
            continue
        if (candidates and candidates[-1].faults == detected
                and abs(candidates[-1].segment.hi - seg.lo) <= 1e-9):
            # Merge *contiguous* segments detecting the identical fault set
            # (never across a gap whose own fault set was empty).
            prev = candidates.pop()
            merged = Interval(prev.segment.lo, seg.hi)
            candidates.append(PeriodCandidate(
                time=_pick_time(merged, point), segment=merged,
                faults=detected))
        else:
            candidates.append(PeriodCandidate(
                time=_pick_time(seg, point), segment=seg, faults=detected))

    if prune_dominated:
        candidates = _prune_dominated_reference(candidates)
    return candidates


def _prune_dominated_reference(
        candidates: list[PeriodCandidate]) -> list[PeriodCandidate]:
    """Seed dominance pruning: pairwise frozenset subset tests."""
    by_size = sorted(enumerate(candidates),
                     key=lambda iv: (-iv[1].fault_count, -iv[1].time))
    kept_sets: list[frozenset[int]] = []
    kept_idx: list[int] = []
    for idx, cand in by_size:
        if any(cand.faults <= s for s in kept_sets):
            continue
        kept_sets.append(cand.faults)
        kept_idx.append(idx)
    kept_idx.sort()
    return [candidates[i] for i in kept_idx]


def greedy_cover_reference(problem: CoverProblem, *,
                           coverage: float = 1.0) -> list[int]:
    """Seed greedy heuristic on Python sets (the [17]-style baseline)."""
    need = problem.required_count(coverage)
    uncovered = set(problem.universe)
    chosen: list[int] = []
    remaining = [(j, set(s) & uncovered)
                 for j, s in enumerate(problem.subsets)]
    covered_count = 0
    while covered_count < need:
        j_best, gain_best = -1, 0
        for j, s in remaining:
            gain = len(s)
            if gain > gain_best:
                j_best, gain_best = j, gain
        if j_best < 0:
            raise RuntimeError("greedy cover stalled before reaching coverage")
        chosen.append(j_best)
        newly = [s for j, s in remaining if j == j_best][0]
        covered_count += len(newly)
        uncovered -= newly
        remaining = [(j, s & uncovered) for j, s in remaining
                     if j != j_best and s & uncovered]
    chosen.sort()
    return chosen


def _solve_reference(problem: CoverProblem, solver: Solver, coverage: float,
                     time_limit: float) -> list[int]:
    if solver == "ilp":
        return ilp_cover(problem, coverage=coverage, time_limit=time_limit,
                         presolve=False)
    if solver == "greedy":
        return greedy_cover_reference(problem, coverage=coverage)
    raise ValueError(f"unknown solver {solver!r}")


def target_ranges_reference(data: DetectionData,
                            targets: frozenset[int] | set[int],
                            clock: ClockSpec,
                            configs: MonitorConfigSet | None
                            ) -> dict[int, IntervalSet]:
    """Seed observable-range construction (no memoization)."""
    config_delays = tuple(configs) if configs is not None else ()
    out: dict[int, IntervalSet] = {}
    for fi in targets:
        rng = observable_range(data.union_all(fi), data.union_mon(fi),
                               config_delays, clock.t_min, clock.t_nom)
        if not rng.is_empty:
            out[fi] = rng
    return out


def order_periods_fault_dropping_reference(
    chosen: list[PeriodCandidate],
    covered: frozenset[int],
) -> list[tuple[PeriodCandidate, frozenset[int]]]:
    """Seed fault dropping: re-intersects every pool candidate per round."""
    remaining = set(covered)
    pool = list(chosen)
    ordered: list[tuple[PeriodCandidate, frozenset[int]]] = []
    while pool and remaining:
        best = max(pool, key=lambda c: (len(c.faults & remaining), c.time))
        take = frozenset(best.faults & remaining)
        pool.remove(best)
        if not take:
            continue
        ordered.append((best, take))
        remaining -= take
    return ordered


def optimize_schedule_reference(
    data: DetectionData,
    targets: set[int] | frozenset[int],
    clock: ClockSpec,
    configs: MonitorConfigSet | None,
    *,
    coverage: float = 1.0,
    solver: Solver = "ilp",
    time_limit: float = DEFAULT_TIME_LIMIT_S,
    prune_dominated: bool = True,
    candidate_point: str = "mid",
) -> ScheduleResult:
    """Seed two-step optimization (Sec. IV-B/C), frozensets end to end."""
    targets = frozenset(targets)
    ranges = target_ranges_reference(data, targets, clock, configs)
    if not ranges:
        return ScheduleResult(periods=[], entries=[], targets=targets,
                              covered=frozenset(), method=solver,
                              num_candidates=0)

    candidates = discretize_observation_times_reference(
        ranges, clock.t_min, clock.t_nom, prune_dominated=prune_dominated,
        point=candidate_point)

    # Step 1: minimal frequency selection.
    problem = CoverProblem(subsets=[c.faults for c in candidates])
    chosen_idx = _solve_reference(problem, solver, coverage, time_limit)
    chosen = [candidates[j] for j in chosen_idx]
    covered = (frozenset().union(*(c.faults for c in chosen))
               if chosen else frozenset())

    # Step 2: per-frequency pattern/config selection.
    entries: list[ScheduleEntry] = []
    per_period: dict[float, frozenset[int]] = {}
    for cand, fault_set in order_periods_fault_dropping_reference(
            chosen, covered):
        per_period[cand.time] = fault_set
        combos = _pattern_config_subsets(data, fault_set, cand.time, configs)
        keys = sorted(combos)
        sub_problem = CoverProblem(
            subsets=[frozenset(combos[k]) for k in keys],
            universe=fault_set)
        picked = _solve_reference(sub_problem, solver, 1.0, time_limit)
        entries.extend(
            ScheduleEntry(period=cand.time, pattern=keys[j][0],
                          config=keys[j][1])
            for j in picked)

    return ScheduleResult(
        periods=sorted(per_period),
        entries=sorted(entries),
        targets=targets,
        covered=covered,
        method=solver,
        num_candidates=len(candidates),
        per_period_faults=per_period,
    )
