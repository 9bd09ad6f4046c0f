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

* the observable ranges of all target faults come from the data's
  :class:`~repro.faults.detection.RangeTable` kernel as flat arrays,
  built once per (configuration set, window) and shared with
  classification,
* discretization fills its packed occupancy matrix from those arrays;
  candidate fault sets are materialized only for the chosen periods,
* step 2 tests each period's (fault, pattern) entries against the
  table's pieces as array comparisons and hands the packed rows to
  :meth:`CoverProblem.from_matrix`,
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
from typing import Literal

import numpy as np

from repro.faults.detection import DetectionData, FlatRanges, RangeTable
from repro.monitors.monitor import MonitorConfigSet
from repro.scheduling.discretize import (
    CandidateSet,
    PeriodCandidate,
    discretize_pieces,
)
from repro.scheduling.setcover import (
    DEFAULT_TIME_LIMIT_S,
    CoverProblem,
    check_coverable,
    greedy_cover,
    ilp_cover,
)
from repro.timing.clock import ClockSpec
from repro.utils.bitset import mask_bits, pack_bits
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


def _target_pieces(data: DetectionData,
                   targets: frozenset[int] | set[int], clock: ClockSpec,
                   configs: MonitorConfigSet | None) -> FlatRanges:
    """The targets' slice of :meth:`RangeTable.observable`."""
    delays = tuple(configs) if configs is not None else ()
    return data.table.observable(
        delays, clock.t_min, clock.t_nom).select(targets)


def target_ranges(data: DetectionData, targets: frozenset[int] | set[int],
                  clock: ClockSpec, configs: MonitorConfigSet | None
                  ) -> dict[int, IntervalSet]:
    """Observable detection range per target fault (monitors optional).

    Faults whose range is empty are left out.  A view of the range
    table's memoized ``I(φ)`` arrays, which the scheduler reads directly.
    """
    pieces = _target_pieces(data, targets, clock, configs)
    return {f: pieces.interval_set(f) for f in pieces.faults.tolist()}


def _discretize_targets(pieces: FlatRanges, clock: ClockSpec,
                        prune_dominated: bool,
                        candidate_point: str) -> CandidateSet:
    """Discretize target pieces, one bit per fault in ``repr`` order."""
    faults = pieces.faults
    fault_ids = tuple(sorted(faults.tolist(), key=repr))
    bit_of = {f: b for b, f in enumerate(fault_ids)}
    bits = np.array([bit_of[f] for f in faults.tolist()], dtype=np.int64)
    return discretize_pieces(
        fault_ids, bits[np.searchsorted(faults, pieces.fault)], pieces.lo,
        pieces.hi, clock.t_min, clock.t_nom,
        prune_dominated=prune_dominated, point=candidate_point)


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


def pattern_config_rows(
    table: RangeTable,
    fault_set: frozenset[int],
    period: float,
    configs: MonitorConfigSet | None,
) -> tuple[list[tuple[int, int]], np.ndarray, tuple[int, ...]]:
    """Fault sets ``Φ_(m,n)`` detected by pattern m under config n at the
    given period (Sec. IV-B), as packed rows.

    Returns ``(keys, matrix, elements)``: row ``r`` of ``matrix`` is the
    set of key ``keys[r] = (pattern, config)``, keys ascending, bit ``b``
    is fault ``elements[b]`` with ``elements`` in ``repr`` order.  Fault
    φ is in ``Φ_(m,n)`` when ``t ∈ i_all ∪ (i_mon + d_n)`` for its entry
    with pattern m.  Without monitors the config index is
    :data:`FF_ONLY_CONFIG` and only ``i_all`` counts.
    """
    elements = tuple(sorted(fault_set, key=repr))
    faults = np.array(sorted(fault_set), dtype=np.int64)
    col_of = {f: b for b, f in enumerate(elements)}
    cols = np.array([col_of[f] for f in faults.tolist()], dtype=np.int64)
    delays = tuple(configs) if configs is not None else ()
    entries, ff, mon = table.hits_at(period, faults, delays)
    entry_col = cols[np.searchsorted(faults, table.entry_fault[entries])]
    entry_pattern = table.entry_pattern[entries]
    if configs is None:
        rows = np.flatnonzero(ff)
        code = entry_pattern[rows]
    else:
        rows, config = np.nonzero(ff[:, None] | mon)
        code = entry_pattern[rows] * len(delays) + config
    codes, row_of = np.unique(code, return_inverse=True)
    incidence = np.zeros((codes.size, len(elements)), dtype=bool)
    incidence[row_of, entry_col[rows]] = True
    if configs is None:
        keys = [(c, FF_ONLY_CONFIG) for c in codes.tolist()]
    else:
        keys = [divmod(c, len(delays)) for c in codes.tolist()]
    return keys, pack_bits(incidence), elements


def _candidate_set_cached(
    data: DetectionData,
    targets: frozenset[int],
    clock: ClockSpec,
    configs: MonitorConfigSet | None,
    prune_dominated: bool,
    candidate_point: str,
    timer: StageTimer | None,
) -> tuple[FlatRanges, CandidateSet]:
    """Observable target pieces + discretized candidates, cached on the
    data.

    The heuristic, proposed and every relaxed-coverage schedule query the
    identical (targets, configs, window) tuple; discretization and
    dominance pruning therefore run once.
    """
    config_delays = tuple(configs) if configs is not None else ()
    key = (targets, config_delays, clock.t_min, clock.t_nom,
           prune_dominated, candidate_point)
    cached = data._sched_cache.get(key)
    if cached is not None:
        return cached
    with (timer.stage("target_ranges") if timer is not None
          else nullcontext()):
        pieces = _target_pieces(data, targets, clock, configs)
    with (timer.stage("discretize") if timer is not None
          else nullcontext()):
        cand_set = _discretize_targets(pieces, clock, prune_dominated,
                                       candidate_point)
    data._sched_cache[key] = (pieces, cand_set)
    return pieces, cand_set


def _solve_period(
    table: RangeTable,
    period: float,
    fault_set: frozenset[int],
    configs: MonitorConfigSet | None,
    solver: Solver,
    time_limit: float,
) -> list[ScheduleEntry]:
    """Step-2 covering for one selected period.

    Raises ``ValueError`` naming every fault of ``fault_set`` that no
    (pattern, config) row detects at ``period``.
    """
    keys, matrix, elements = pattern_config_rows(table, fault_set, period,
                                                 configs)
    problem = CoverProblem.from_matrix(matrix, elements)
    check_coverable(fault_set, problem.universe)
    picked = _solve(problem, solver, 1.0, time_limit)
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
    pieces, cand_set = _candidate_set_cached(
        data, targets, clock, configs, prune_dominated, candidate_point,
        timer)
    if pieces.is_empty:
        return ScheduleResult(periods=[], entries=[], targets=targets,
                              covered=frozenset(), method=solver,
                              num_candidates=0)
    return optimize_from_candidates(
        data.table, cand_set, targets, configs, coverage=coverage,
        solver=solver, time_limit=time_limit, timer=timer)


def optimize_from_candidates(
    table: RangeTable,
    cand_set: CandidateSet,
    targets: frozenset[int],
    configs: MonitorConfigSet | None,
    *,
    coverage: float = 1.0,
    solver: Solver = "ilp",
    time_limit: float = DEFAULT_TIME_LIMIT_S,
    timer: StageTimer | None = None,
) -> ScheduleResult:
    """Step 1 + step 2 from an explicit candidate set and range table.

    Extracted core of :func:`optimize_schedule` so the rescheduling engine
    can inject delta-patched candidates and a shifted table instead of the
    cached artifacts derived from a :class:`DetectionData`.  Only the
    chosen candidates are materialized.
    """
    candidates = cand_set.candidates

    # ------------------------------------------------------------------
    # Step 1: minimal frequency selection, on the packed candidate rows.
    # ------------------------------------------------------------------
    with (timer.stage("step1") if timer is not None else nullcontext()):
        problem = CoverProblem.from_matrix(cand_set.matrix,
                                           cand_set.fault_ids)
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
                table, cand.time, fault_set, configs, solver,
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
