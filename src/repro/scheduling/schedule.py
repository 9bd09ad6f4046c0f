"""Two-step FAST test-schedule optimization (Sec. IV-B/C).

Step 1 minimizes the number of test frequencies — PLL re-locking dominates
test time, so frequencies are more expensive than patterns (Sec. IV-B).
Step 2 walks the selected periods with a fault-dropping heuristic (richest
period first) and, per period, minimizes the number of
(pattern, monitor-configuration) combinations covering the period's faults.

Both steps are set-covering problems; ``solver`` chooses between the exact
0-1 ILP (``"ilp"``, the paper's approach) and the greedy heuristic
(``"greedy"``, the [17] baseline).

A schedule is a set of triples ``(frequency, pattern, configuration)``
(Sec. III-A: ``S ⊆ F × P × C``).

Performance structure (the bitset pipeline):

* per-fault observable ranges come from the memoized
  :meth:`DetectionData.detection_range` instead of rebuilding the shifted
  union per call,
* discretization + dominance pruning run once per
  ``(targets, configs, window, policy)`` tuple and are cached on the
  :class:`DetectionData` (the heuristic, proposed and relaxed-coverage
  schedules all share one candidate set),
* fault dropping accumulates coverage incrementally on int bitmasks
  instead of re-intersecting every pool candidate per round.

``timer`` collects the per-stage wall-clock split (``target_ranges`` /
``discretize`` / ``step1`` / ``step2``, plus ``presolve`` nested inside
``step1``) that ``bench/run.py`` reports as per-layer times.  The
schedules are pinned by ``tests/test_schedule_golden.py`` and
``tests/test_schedule_golden_scale.py``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Literal, Mapping

from repro.faults.detection import DetectionData, FaultPatternRange
from repro.monitors.monitor import MonitorConfigSet
from repro.scheduling.discretize import (
    CandidateSet,
    PeriodCandidate,
    discretize_candidate_set,
)
from repro.scheduling.setcover import (
    DEFAULT_TIME_LIMIT_S,
    CoverProblem,
    greedy_cover,
    ilp_cover,
)
from repro.timing.clock import ClockSpec
from repro.utils.bitset import mask_bits
from repro.utils.intervals import IntervalSet
from repro.utils.profiling import StageTimer

Solver = Literal["ilp", "greedy"]

#: Config index used when a fault is captured by the standard flip-flops and
#: the monitor configuration is irrelevant for the entry.
FF_ONLY_CONFIG = -1


@dataclass(frozen=True, order=True)
class ScheduleEntry:
    """One scheduled application: pattern ``pattern`` at clock period
    ``period`` under monitor configuration ``config``."""

    period: float
    pattern: int
    config: int


@dataclass
class ScheduleResult:
    """Outcome of the two-step optimization."""

    periods: list[float]
    entries: list[ScheduleEntry]
    targets: frozenset[int]
    covered: frozenset[int]
    method: str
    num_candidates: int
    per_period_faults: dict[float, frozenset[int]] = field(default_factory=dict)

    @property
    def num_frequencies(self) -> int:
        return len(self.periods)

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    @property
    def coverage(self) -> float:
        if not self.targets:
            return 1.0
        return len(self.covered) / len(self.targets)

    def naive_size(self, num_patterns: int, num_configs: int) -> int:
        """|P × C × F| of the naïve schedule: every pattern under every
        configuration (including monitors-off) at every selected frequency."""
        return num_patterns * (num_configs + 1) * self.num_frequencies

    def reduction_percent(self, num_patterns: int, num_configs: int) -> float:
        """Δ%|PC| = (1 - |S| / |P×C×F|) · 100 (Table II/III)."""
        naive = self.naive_size(num_patterns, num_configs)
        if naive == 0:
            return 0.0
        return (1.0 - self.num_entries / naive) * 100.0

    def entries_at(self, period: float) -> list[ScheduleEntry]:
        return [e for e in self.entries if abs(e.period - period) < 1e-9]


def _solve(problem: CoverProblem, solver: Solver, coverage: float,
           time_limit: float, timer: StageTimer | None = None) -> list[int]:
    if solver == "ilp":
        return ilp_cover(problem, coverage=coverage, time_limit=time_limit,
                         timer=timer)
    if solver == "greedy":
        return greedy_cover(problem, coverage=coverage)
    raise ValueError(f"unknown solver {solver!r}")


def target_ranges(data: DetectionData, targets: frozenset[int] | set[int],
                  clock: ClockSpec, configs: MonitorConfigSet | None
                  ) -> dict[int, IntervalSet]:
    """Observable detection range per target fault (monitors optional).

    Delegates to the memoized :meth:`DetectionData.detection_range`, so the
    shifted union of each fault is built at most once per (configuration
    set, window) across all schedules computed from the same data.
    """
    config_delays = tuple(configs) if configs is not None else ()
    out: dict[int, IntervalSet] = {}
    for fi in targets:
        rng = data.detection_range(fi, config_delays, clock.t_min,
                                   clock.t_nom)
        if not rng.is_empty:
            out[fi] = rng
    return out


def order_periods_fault_dropping(
    chosen: list[PeriodCandidate],
    covered: frozenset[int],
) -> list[tuple[PeriodCandidate, frozenset[int]]]:
    """Assign every covered fault to exactly one selected period.

    Implements the paper's "heuristic selection that uses fault dropping":
    periods are ranked by how many still-unassigned faults they detect; each
    iteration takes the richest period and drops its faults.  Coverage is
    accumulated incrementally on int bitmasks — one AND + popcount per pool
    candidate per round — rather than re-intersecting frozensets; selection
    order and tie-breaking (highest gain, then latest period, first
    candidate wins) are unchanged from the seed.
    """
    ids = tuple(sorted(covered, key=repr))
    index = {f: b for b, f in enumerate(ids)}
    masks = [sum(1 << index[f] for f in c.faults if f in index)
             for c in chosen]
    remaining = (1 << len(ids)) - 1
    pool = list(range(len(chosen)))
    ordered: list[tuple[PeriodCandidate, frozenset[int]]] = []
    while pool and remaining:
        best_pos = max(
            range(len(pool)),
            key=lambda p: ((masks[pool[p]] & remaining).bit_count(),
                           chosen[pool[p]].time))
        j = pool.pop(best_pos)
        take = masks[j] & remaining
        if not take:
            continue
        ordered.append((chosen[j],
                        frozenset(ids[b] for b in mask_bits(take))))
        remaining &= ~take
    return ordered


def _pattern_config_subsets_from_ranges(
    ranges: Mapping[int, Mapping[int, FaultPatternRange]],
    fault_set: frozenset[int],
    period: float,
    configs: MonitorConfigSet | None,
) -> dict[tuple[int, int], set[int]]:
    """Fault sets ``Φ_(m,n)`` detected by pattern m under config n at the
    given period (Sec. IV-B).  Without monitors the config index is
    :data:`FF_ONLY_CONFIG`."""
    combos: dict[tuple[int, int], set[int]] = {}
    for fi in fault_set:
        for pi, fpr in ranges.get(fi, {}).items():
            ff_hit = fpr.i_all.contains(period)
            if configs is None:
                if ff_hit:
                    combos.setdefault((pi, FF_ONLY_CONFIG), set()).add(fi)
                continue
            for ci, d in enumerate(configs):
                if ff_hit or fpr.i_mon.shifted(d).contains(period):
                    combos.setdefault((pi, ci), set()).add(fi)
    return combos


def _pattern_config_subsets(
    data: DetectionData,
    fault_set: frozenset[int],
    period: float,
    configs: MonitorConfigSet | None,
) -> dict[tuple[int, int], set[int]]:
    return _pattern_config_subsets_from_ranges(
        data.ranges, fault_set, period, configs)


def _candidate_set_cached(
    data: DetectionData,
    targets: frozenset[int],
    clock: ClockSpec,
    configs: MonitorConfigSet | None,
    prune_dominated: bool,
    candidate_point: str,
    timer: StageTimer | None,
) -> tuple[dict[int, IntervalSet], CandidateSet]:
    """Observable ranges + discretized candidates, cached on the data.

    The heuristic, proposed and every relaxed-coverage schedule query the
    identical (targets, configs, window) tuple; discretization and
    dominance pruning therefore run once, like ``detection_range``.
    """
    config_delays = tuple(configs) if configs is not None else ()
    key = (targets, config_delays, clock.t_min, clock.t_nom,
           prune_dominated, candidate_point)
    cached = data._sched_cache.get(key)
    if cached is not None:
        return cached
    if timer is not None:
        with timer.stage("target_ranges"):
            ranges = target_ranges(data, targets, clock, configs)
        with timer.stage("discretize"):
            cand_set = discretize_candidate_set(
                ranges, clock.t_min, clock.t_nom,
                prune_dominated=prune_dominated, point=candidate_point)
    else:
        ranges = target_ranges(data, targets, clock, configs)
        cand_set = discretize_candidate_set(
            ranges, clock.t_min, clock.t_nom,
            prune_dominated=prune_dominated, point=candidate_point)
    data._sched_cache[key] = (ranges, cand_set)
    return ranges, cand_set


def _solve_period(
    ranges: Mapping[int, Mapping[int, FaultPatternRange]],
    period: float,
    fault_set: frozenset[int],
    configs: MonitorConfigSet | None,
    solver: Solver,
    time_limit: float,
) -> list[ScheduleEntry]:
    """Step-2 covering for one selected period."""
    combos = _pattern_config_subsets_from_ranges(
        ranges, fault_set, period, configs)
    keys = sorted(combos)
    sub_problem = CoverProblem(
        subsets=[frozenset(combos[k]) for k in keys],
        universe=fault_set)
    picked = _solve(sub_problem, solver, 1.0, time_limit)
    return [ScheduleEntry(period=period, pattern=keys[j][0],
                          config=keys[j][1])
            for j in picked]


def optimize_schedule(
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
    timer: StageTimer | None = None,
) -> ScheduleResult:
    """Run both optimization steps and return the complete test schedule.

    ``configs`` may be None to schedule *without* monitors (the conventional
    FAST baseline).  ``coverage`` relaxes step 1 to partial covering
    (Table III); step 2 always fully covers the faults the selected
    frequencies can reach.  ``candidate_point`` chooses where inside each
    discretization segment the test period sits (``"mid"`` per the paper).
    ``timer`` accumulates the per-stage wall-clock split.
    """
    targets = frozenset(targets)
    ranges, cand_set = _candidate_set_cached(
        data, targets, clock, configs, prune_dominated, candidate_point,
        timer)
    if not ranges:
        return ScheduleResult(periods=[], entries=[], targets=targets,
                              covered=frozenset(), method=solver,
                              num_candidates=0)
    return optimize_from_candidates(
        data.ranges, cand_set, targets, configs, coverage=coverage,
        solver=solver, time_limit=time_limit, timer=timer)


def optimize_from_candidates(
    pattern_ranges: Mapping[int, Mapping[int, FaultPatternRange]],
    cand_set: CandidateSet,
    targets: frozenset[int],
    configs: MonitorConfigSet | None,
    *,
    coverage: float = 1.0,
    solver: Solver = "ilp",
    time_limit: float = DEFAULT_TIME_LIMIT_S,
    timer: StageTimer | None = None,
) -> ScheduleResult:
    """Step 1 + step 2 from an explicit candidate set and pattern ranges.

    Extracted core of :func:`optimize_schedule` so the rescheduling engine
    can inject delta-patched candidates/ranges instead of the cached
    artifacts derived from a :class:`DetectionData`; behaviour is
    bit-identical to the inline code it replaces.
    """
    candidates = list(cand_set.candidates)

    # ------------------------------------------------------------------
    # Step 1: minimal frequency selection, on the packed candidate rows.
    # ------------------------------------------------------------------
    with (timer.stage("step1") if timer is not None else nullcontext()):
        problem = CoverProblem.from_matrix(
            cand_set.matrix, cand_set.fault_ids,
            [c.faults for c in candidates])
        chosen_idx = _solve(problem, solver, coverage, time_limit, timer)
    chosen = [candidates[j] for j in chosen_idx]
    covered_acc: set[int] = set()
    for c in chosen:
        covered_acc |= c.faults
    covered = frozenset(covered_acc)

    # ------------------------------------------------------------------
    # Step 2: per-frequency pattern/config selection.
    # ------------------------------------------------------------------
    entries: list[ScheduleEntry] = []
    with (timer.stage("step2") if timer is not None else nullcontext()):
        dropping = order_periods_fault_dropping(chosen, covered)
        per_period: dict[float, frozenset[int]] = {
            cand.time: fault_set for cand, fault_set in dropping}
        for cand, fault_set in dropping:
            entries.extend(_solve_period(
                pattern_ranges, cand.time, fault_set, configs, solver,
                time_limit))

    return ScheduleResult(
        periods=sorted(per_period),
        entries=sorted(entries),
        targets=targets,
        covered=covered,
        method=solver,
        num_candidates=len(candidates),
        per_period_faults=per_period,
    )
