"""Adaptive in-field rescheduling: warm-started incremental re-solve.

The paper's Sec. II-B closed loop feeds monitor alerts back into the test
schedule: a degradation update shifts the affected faults' detection
ranges, and the FAST schedule must adapt.  Re-running the full cold
pipeline (target ranges → discretize → presolve → step-1 ILP → per-period
step-2 covers) for every alert is the latency bottleneck; this module
recomputes only what a delta actually invalidates.

Pipeline of one incremental re-solve (:func:`apply_alert`):

1. **Delta semantics** — an :class:`AlertDelta` carries per-gate delay
   shifts (ps).  A fault is *dirty* when its site's signal gate received a
   shift; all of its detection intervals (per-pattern ``i_all``/``i_mon``
   and therefore the observable union) translate by the gate's cumulative
   shift.  Shifting commutes with the union over patterns and monitor
   configurations, so the state caches one *unclipped* combined range per
   fault (``base_combined``) and a dirty fault's new observable range is
   ``base_combined.shifted(s).clipped(t_min, t_nom)`` — no per-pattern
   re-union.
2. **Delta discretization** — the sweep grid is rebuilt from cached
   per-fault boundaries (only dirty faults' entries change).  When the
   grid is unchanged, the occupancy matrix is patched in place: dirty
   bit columns are cleared and refilled.  When the grid moved, clean
   rows are *remapped*: every new segment copies the old segment
   containing its midpoint.  This is exact — both grids contain every
   clean fault's interval boundaries, so no clean boundary lies strictly
   inside a new segment and membership is constant across it (see
   ALGORITHMS.md §16 for the argument).
3. **Warm presolve** — :func:`~repro.scheduling.setcover.presolve_cover_warm`
   replays the previous reduction's dominance witnesses (mask values,
   re-verified O(1) against the new columns — unconditionally lossless)
   before running the normal fixpoint.
4. **Warm step 1** — when the merged candidate matrix is bit-identical to
   the previous solve (a *structure hit*: the delta moved segment times
   but not fault sets), the previous chosen rows are reused outright.
   Otherwise the reduced components are solved with lossless cuts: a
   greedy incumbent bounds the ILP (``Σx ≤ ub``) and components whose
   incumbent matches the covering lower bound skip the ILP entirely.
5. **Step-2 memo** — per-period covers are cached by
   ``(period, fault set, per-fault shifts)``; periods a delta did not
   touch replay their previous optimum without building the cover
   problem.

Every reuse rule above is lossless, so the incremental schedule is
cost-equal to a cold re-solve (asserted by the randomized suite in
``tests/test_resched.py``).  The ``cold`` engine
(:func:`apply_alert_cold`) performs the honest full recompute and doubles
as the equivalence yardstick and the bench baseline.  Rescheduling is
restricted to full-coverage schedules — the partial-coverage reductions
are not lossless, so there is nothing exact to warm-start.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.faults.detection import DetectionData, RangeTable
from repro.monitors.monitor import MonitorConfigSet
from repro.netlist.circuit import Circuit
from repro.scheduling.discretize import (
    CandidateSet,
    SweepGrid,
    finalize_candidates,
    flatten_ranges,
    occupancy,
    sweep_grid,
)
from repro.scheduling.schedule import (
    ScheduleEntry,
    ScheduleResult,
    Solver,
    _solve_period,
    optimize_from_candidates,
    order_periods_fault_dropping,
    pattern_config_rows,
)
from repro.scheduling.setcover import (
    DEFAULT_TIME_LIMIT_S,
    CoverProblem,
    PresolveReduction,
    greedy_cover,
    greedy_cover_masks,
    ilp_cover,
    independent_rows_bound_masks,
    independent_rows_bound_matrix,
    presolve_cover,
    presolve_cover_warm,
    solve_reduction,
)
from repro.timing.clock import ClockSpec
from repro.utils.bitset import matrix_to_masks, zeros
from repro.utils.cache import LruCache
from repro.utils.intervals import IntervalAccumulator, IntervalSet

#: Bound of the per-state step-2 solution memo: alert bursts revisit the
#: same (period, fault set, shifts) subproblems across re-solves.
STEP2_CACHE_SIZE = 512

_WORD_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


# ----------------------------------------------------------------------
# Alert deltas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlertDelta:
    """One monitor-alert event: per-gate delay shifts in picoseconds.

    ``shifts`` is a sorted tuple of ``(gate, shift_ps)`` pairs with every
    zero entry dropped, so equality and hashing are canonical.
    """

    shifts: tuple[tuple[int, float], ...]

    @classmethod
    def from_mapping(cls, shifts: Mapping[int, float]) -> "AlertDelta":
        return cls(tuple(sorted(
            (int(g), float(s)) for g, s in shifts.items() if s != 0.0)))

    @property
    def is_empty(self) -> bool:
        return not self.shifts

    @property
    def gates(self) -> frozenset[int]:
        return frozenset(g for g, _ in self.shifts)


def load_alert_stream(path: str | Path) -> list[AlertDelta]:
    """Parse a JSON alert stream into :class:`AlertDelta` events.

    The file holds a list of events.  Each event is either one alert
    object ``{"gate": 12, "shift_ps": 4.0}``, a burst (list of alert
    objects applied atomically, shifts on the same gate summing), or a
    compact map form ``{"shifts": {"12": 4.0, "7": 1.5}}``.  Raises
    ``ValueError`` for a malformed entry or a non-finite shift.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, list):
        raise ValueError("alert stream must be a JSON list of events")
    out: list[AlertDelta] = []
    for event in raw:
        shifts: dict[int, float] = {}
        entries = event if isinstance(event, list) else [event]
        for entry in entries:
            try:
                pairs = (entry["shifts"].items() if "shifts" in entry
                         else [(entry["gate"], entry["shift_ps"])])
                for g, s in pairs:
                    g = int(g)
                    shifts[g] = shifts.get(g, 0.0) + float(s)
            except (AttributeError, KeyError, TypeError, ValueError):
                raise ValueError(
                    f"malformed alert entry: {entry!r}") from None
        for g, s in shifts.items():
            if not math.isfinite(s):
                raise ValueError(f"alert shift {s!r} on gate {g} is not "
                                 f"finite")
        out.append(AlertDelta.from_mapping(shifts))
    return out


def scenario_alert_stream(circuit, spec, *,
                          checkpoints: Sequence[float] | None = None,
                          threshold_ps: float = 0.5,
                          max_gates: int = 4,
                          gates: Iterable[int] | None = None,
                          include_empty: bool = False) -> list[AlertDelta]:
    """Synthetic alert generator driven by a ``ScenarioSpec``.

    Walks the scenario's lifetime checkpoints; at each one, the per-gate
    delay shift since the previous checkpoint is
    ``(factor(t_k) - factor(t_{k-1})) · max_delay(gate)``.  Gates whose
    shift reaches ``threshold_ps`` raise an alert, capped at the
    ``max_gates`` largest shifts (ties to the lowest gate index) — the
    plausible granularity of an in-field monitor readout.  ``gates``
    restricts the candidate set (e.g. to the gates actually carrying
    target faults, so a bench replay exercises real re-solves instead of
    no-op alerts).  Deterministic: everything derives from the spec's
    seeds.
    """
    if max_gates < 1:
        raise ValueError("max_gates must be >= 1")
    scen = spec.aging_scenario()
    times = list(checkpoints if checkpoints is not None
                 else spec.checkpoints)
    pool = (sorted(set(gates)) if gates is not None
            else list(range(len(circuit.gates))))
    base_delay = np.array([g.max_delay() for g in circuit.gates])
    prev = scen.delay_factors(circuit, 0.0) if times else None
    out: list[AlertDelta] = []
    for t in times:
        cur = scen.delay_factors(circuit, t)
        shift = (cur - prev) * base_delay
        prev = cur
        over = [(float(shift[g]), g) for g in pool
                if shift[g] >= threshold_ps]
        over.sort(key=lambda sg: (-sg[0], sg[1]))
        delta = AlertDelta.from_mapping(
            {g: s for s, g in over[:max_gates]})
        if include_empty or not delta.is_empty:
            out.append(delta)
    return out


# ----------------------------------------------------------------------
# Schedule state
# ----------------------------------------------------------------------
@dataclass
class ReschedOutcome:
    """Result of one re-solve: the schedule plus reuse accounting."""

    schedule: ScheduleResult
    seconds: float
    fast_path: str | None
    stats: dict

    @property
    def cost(self) -> tuple[int, int]:
        """Comparable schedule cost: (frequencies, covered faults)."""
        return (self.schedule.num_frequencies, len(self.schedule.covered))


@dataclass
class ScheduleState:
    """Everything a warm re-solve reuses between alerts.

    Built once by :func:`prepare_state`; mutated in place by
    :func:`apply_alert` (incremental) and :func:`apply_alert_cold` (full
    recompute that still refreshes the caches so the two engines can be
    interleaved).  The underlying :class:`DetectionData` is never
    mutated — all shifted views live here.
    """

    circuit: Circuit
    data: DetectionData
    targets: frozenset[int]
    clock: ClockSpec
    configs: MonitorConfigSet | None
    solver: Solver
    time_limit: float
    prune_dominated: bool
    point: str
    #: Fault universe of the candidate bit matrix: every target fault with
    #: a non-empty *unclipped* combined range.  Fixed across deltas so bit
    #: positions are stable (faults whose shifted range clips away keep
    #: their bit and simply contribute no segments).
    fault_ids: tuple[int, ...] = ()
    fault_bit: dict[int, int] = field(default_factory=dict)
    fault_gate: dict[int, int] = field(default_factory=dict)
    gate_faults: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: Cumulative per-gate shifts applied so far.
    shifts: dict[int, float] = field(default_factory=dict)
    #: fault -> unclipped I_FF ∪ ⋃(I_mon + d) at zero shift.
    base_combined: dict[int, IntervalSet] = field(default_factory=dict)
    #: fault -> current shifted+clipped observable range.
    fault_ranges: dict[int, IntervalSet] = field(default_factory=dict)
    #: fault -> boundaries of the current range (grid rebuild input).
    fault_boundaries: dict[int, list[float]] = field(default_factory=dict)
    grid: SweepGrid | None = None
    matrix_raw: np.ndarray | None = None       # occupancy pre-degenerate
    cand_set: CandidateSet | None = None
    reduction: PresolveReduction | None = None
    fingerprint: bytes | None = None           # merged-matrix structure
    chosen_idx: list[int] = field(default_factory=list)
    #: Mask values of the last step-1 optimum — the repair candidate the
    #: warm solve promotes when the lower bound certifies it.
    prev_chosen_masks: tuple[int, ...] = ()
    step2_cache: LruCache = field(
        default_factory=lambda: LruCache(maxsize=STEP2_CACHE_SIZE))
    #: period -> (pattern, config) keys of the last step-2 optimum there,
    #: shift-agnostic: the repair candidate the warm step 2 re-validates
    #: against the current rows before certifying it optimal.
    period_prev: dict[float, tuple[tuple[int, int], ...]] = \
        field(default_factory=dict)
    schedule: ScheduleResult | None = None
    #: Monotonic re-solve counter (prepare counts as solve 0).
    revision: int = 0

    @property
    def config_delays(self) -> tuple[float, ...]:
        return tuple(self.configs) if self.configs is not None else ()


def _combined_unclipped(data: DetectionData, fault: int,
                        config_delays: tuple[float, ...]) -> IntervalSet:
    """``I_FF ∪ ⋃_d (I_mon + d)`` without the window clip (shift-stable).

    One fault's slice of :meth:`RangeTable.combined`, rebuilt from the
    per-fault unions: the work :func:`apply_alert_cold` times as its
    honest cold cost.
    """
    acc = IntervalAccumulator()
    acc.add(data.union_all(fault))
    mon = data.union_mon(fault)
    for d in config_delays:
        acc.add(mon.shifted(d))
    return acc.build()


def prepare_state(
    circuit: Circuit,
    data: DetectionData,
    targets: frozenset[int] | set[int],
    clock: ClockSpec,
    configs: MonitorConfigSet | None,
    *,
    solver: Solver = "ilp",
    time_limit: float = DEFAULT_TIME_LIMIT_S,
    prune_dominated: bool = True,
    point: str = "mid",
) -> ScheduleState:
    """Build the re-schedulable state and solve the initial schedule."""
    state = ScheduleState(
        circuit=circuit, data=data, targets=frozenset(targets),
        clock=clock, configs=configs, solver=solver, time_limit=time_limit,
        prune_dominated=prune_dominated, point=point)
    combined = data.table.combined(state.config_delays)
    ids = []
    for f in sorted(state.targets, key=repr):
        base = combined.interval_set(f)
        if base.is_empty:
            continue
        ids.append(f)
        state.base_combined[f] = base
        rng = base.clipped(clock.t_min, clock.t_nom)
        state.fault_ranges[f] = rng
        state.fault_boundaries[f] = rng.boundaries()
    state.fault_ids = tuple(ids)
    state.fault_bit = {f: b for b, f in enumerate(state.fault_ids)}
    for f in state.fault_ids:
        g = data.faults[f].site.signal_gate(circuit)
        state.fault_gate[f] = g
    by_gate: dict[int, list[int]] = {}
    for f, g in state.fault_gate.items():
        by_gate.setdefault(g, []).append(f)
    state.gate_faults = {g: tuple(sorted(fs)) for g, fs in by_gate.items()}

    _rebuild_candidates(state)
    state.schedule = _solve_two_step(state, warm=False)
    return state


# ----------------------------------------------------------------------
# Candidate (re)construction
# ----------------------------------------------------------------------
def _all_boundaries(state: ScheduleState) -> list[float]:
    out: list[float] = []
    for f in state.fault_ids:
        out.extend(state.fault_boundaries[f])
    return out


def _empty_candidates(state: ScheduleState) -> None:
    state.matrix_raw = zeros(0, len(state.fault_ids))
    state.cand_set = CandidateSet((), zeros(0, len(state.fault_ids)),
                                  state.fault_ids)


def _finalize_state(state: ScheduleState, *,
                    prune: bool | None = None) -> None:
    """Apply the degenerate mask and run merge/prune on ``matrix_raw``.

    ``prune=False`` skips dominance pruning: the pruning is lossless (the
    cover optimum is unchanged), exists only to shrink the ILP, and the
    warm path certifies its solutions without an ILP almost always — so
    the patch path trades a slightly wider candidate matrix for skipping
    the most expensive discretization stage.
    """
    grid, matrix = state.grid, state.matrix_raw
    if grid.degenerate.any():
        matrix = matrix.copy()
        matrix[grid.degenerate] = 0
    state.cand_set = finalize_candidates(
        matrix, grid, state.fault_ids,
        prune_dominated=(state.prune_dominated if prune is None
                         else prune),
        point=state.point)


def _occupancy(state: ScheduleState, grid: SweepGrid,
               faults: Sequence[int]) -> np.ndarray:
    """Occupancy matrix of the given faults' current ranges only."""
    bit, lo, hi = flatten_ranges(
        (state.fault_bit[f], state.fault_ranges[f]) for f in faults)
    return occupancy(grid, bit, lo, hi, len(state.fault_ids))


def _rebuild_candidates(state: ScheduleState) -> None:
    """Cold sweep: full grid + occupancy fill from the current ranges."""
    state.grid = sweep_grid(_all_boundaries(state), state.clock.t_min,
                            state.clock.t_nom)
    if state.grid.n_segments == 0 or not state.fault_ids:
        _empty_candidates(state)
        return
    state.matrix_raw = _occupancy(state, state.grid, state.fault_ids)
    _finalize_state(state)


def _patch_candidates(state: ScheduleState,
                      dirty: Sequence[int]) -> str:
    """Delta discretization: patch or remap instead of resweeping.

    Returns the path taken (``"patched"`` — grid unchanged, rows edited
    in place; ``"remapped"`` — clean rows gathered from the old grid by
    midpoint lookup).  Exactness of the remap: both grids contain every
    clean fault's boundaries, so a clean fault's membership is constant
    across each new segment and equals its membership at the midpoint of
    the old segment containing it (ALGORITHMS.md §16).
    """
    old_grid, old_matrix = state.grid, state.matrix_raw
    new_grid = sweep_grid(_all_boundaries(state), state.clock.t_min,
                          state.clock.t_nom)
    state.grid = new_grid
    if new_grid.n_segments == 0 or not state.fault_ids:
        _empty_candidates(state)
        return "emptied"
    if (old_grid is not None and old_matrix is not None
            and old_grid.n_segments > 0
            and np.array_equal(new_grid.pts, old_grid.pts)):
        matrix = old_matrix          # replaced below; safe to edit in place
        path = "patched"
    else:
        if old_grid is None or old_matrix is None \
                or old_grid.n_segments == 0:
            _rebuild_candidates(state)
            return "rebuilt"
        idx = np.searchsorted(old_grid.pts, new_grid.mids,
                              side="right") - 1
        np.clip(idx, 0, old_grid.n_segments - 1, out=idx)
        matrix = old_matrix[idx]
        path = "remapped"
    for f in dirty:
        b = state.fault_bit[f]
        matrix[:, b >> 6] &= _WORD_MASK ^ np.uint64(1 << (b & 63))
    matrix |= _occupancy(state, new_grid, dirty)
    state.matrix_raw = matrix
    _finalize_state(state, prune=False)
    return path


# ----------------------------------------------------------------------
# Two-step solve (shared by cold refresh and warm re-solve)
# ----------------------------------------------------------------------
def _repair_previous(prev_masks: tuple[int, ...], masks: list[int],
                     full: int) -> list[int] | None:
    """Map the previous step-1 optimum into the new candidate set.

    Each previously chosen mask value is matched to a new column — by
    identical value, else any superset, else the largest overlap (a delta
    typically nudges one chosen candidate's composition).  If the mapped
    picks leave elements uncovered, two cheap completions are tried while
    staying within the previous cardinality: fill unused slots greedily,
    then a single-column swap.  Returns column picks covering the
    universe with at most ``len(prev_masks)`` columns — a feasible warm
    upper bound the caller checks against the lower bound — or None.
    """
    if not prev_masks or not masks:
        return None
    budget = len(prev_masks)
    by_value: dict[int, int] = {}
    for j, m in enumerate(masks):
        by_value.setdefault(m, j)
    picks: set[int] = set()
    for pm in prev_masks:
        j = by_value.get(pm)
        if j is None:
            j = next((k for k, m in enumerate(masks)
                      if pm & ~m == 0), None)
        if j is None:
            j = max(range(len(masks)),
                    key=lambda k: ((masks[k] & pm).bit_count(), -k))
        picks.add(j)
    union = 0
    for j in picks:
        union |= masks[j]
    # Greedy completion into slots freed by deduplication.
    while union & full != full and len(picks) < budget:
        uncovered = full & ~union
        j = max(range(len(masks)),
                key=lambda k: ((masks[k] & uncovered).bit_count(), -k))
        if not masks[j] & uncovered:
            return None
        picks.add(j)
        union |= masks[j]
    if union & full == full:
        return sorted(picks)
    # One-column swap: replace a single pick so the union closes.
    uncovered = full & ~union
    ordered = sorted(picks)
    for j_new in range(len(masks)):
        if not masks[j_new] & uncovered:
            continue
        for p in ordered:
            u = masks[j_new]
            for q in ordered:
                if q != p:
                    u |= masks[q]
            if u & full == full:
                out = [j for j in ordered if j != p] + [j_new]
                return sorted(set(out))
    return None


def _step1_warm(state: ScheduleState, masks: list[int], full: int,
                stats: dict) -> list[int]:
    """Warm minimal frequency selection — cost-equal to ``ilp_cover``.

    Certificate ladder, cheapest first:

    1. repair the previous optimum into the new columns; if it meets the
       independent-elements lower bound it *is* a new optimum — no
       presolve, no ILP;
    2. same test for the greedy cover;
    3. otherwise the exact path.  When the previous reduction recorded
       dominance witnesses (unpruned candidate sets), replay them through
       the witness-warmed presolve and solve the components with the
       lossless incumbent cut; with pre-pruned candidates rule 1 provably
       cannot fire, so presolve is skipped and one direct HiGHS ILP runs
       with the best known upper bound as a cardinality cut.
    """
    if not masks or not full:
        return []
    lb = independent_rows_bound_matrix(state.cand_set.matrix)
    stats["step1_lb"] = lb
    repaired = _repair_previous(state.prev_chosen_masks, masks, full)
    if repaired is not None and len(repaired) <= lb:
        stats["step1_path"] = "repair"
        return repaired
    greedy = greedy_cover_masks(masks, full)
    if len(greedy) <= lb:
        stats["step1_path"] = "greedy-certified"
        return greedy
    # Exact fallback.  The patch path skips dominance pruning, so the
    # presolve's dominated-column rule has real work to do here; replay
    # the previous reduction's witnesses when one exists.
    problem = _step1_problem(state)
    if state.reduction is not None and state.reduction.dominators:
        stats["step1_path"] = "warm-presolve-ilp"
        red = presolve_cover_warm(problem, state.reduction)
        stats["warm_dropped_columns"] = red.stats.get(
            "warm_dropped_columns", 0)
    else:
        stats["step1_path"] = "presolve-ilp"
        red = presolve_cover(problem)
    state.reduction = red
    chosen = solve_reduction(red, state.time_limit, cuts=True)
    stats["early_exit_components"] = red.stats.get(
        "early_exit_components", 0)
    if chosen is None:       # ILP timeout: greedy fallback like ilp_cover
        return greedy
    return sorted(chosen)


def _step1_problem(state: ScheduleState) -> CoverProblem:
    """Step-1 cover problem over the packed candidate rows (no frozenset
    hashing; bit order is the repr-sorted universe, as the cold path's)."""
    cand_set = state.cand_set
    return CoverProblem.from_matrix(cand_set.matrix, cand_set.fault_ids)


def _step1_cold(state: ScheduleState, stats: dict) -> list[int]:
    """Cold minimal frequency selection — the seed ``ilp_cover`` path."""
    problem = _step1_problem(state)
    if problem.num_subsets == 0 or not problem.universe:
        return []
    red = presolve_cover(problem)
    state.reduction = red
    chosen = solve_reduction(red, state.time_limit)
    if chosen is None:       # ILP timeout: greedy fallback like ilp_cover
        return greedy_cover(problem)
    return sorted(chosen)


def _step2_key(state: ScheduleState, period: float,
               fault_set: frozenset[int]) -> tuple:
    shifts = tuple(sorted(
        (f, state.shifts.get(state.fault_gate[f], 0.0))
        for f in fault_set))
    return (period, fault_set, shifts)


def _solve_period_warm(state: ScheduleState, table: RangeTable,
                       period: float, fault_set: frozenset[int],
                       stats: dict) -> list[ScheduleEntry]:
    """Step-2 covering with the same certificate ladder as step 1.

    The rows are cold step 2's (:func:`pattern_config_rows` on the shifted
    table), and the entry *count* per period is the optimal cover
    cardinality either way, so replacing the ILP with a certified greedy
    cover keeps the schedule cost identical to the cold path.
    """
    keys, matrix, elements = pattern_config_rows(table, fault_set, period,
                                                 state.configs)
    masks = matrix_to_masks(matrix)
    full = (1 << len(elements)) - 1
    lb = (independent_rows_bound_masks(masks, len(elements)) if full else 0)
    prev = state.period_prev.get(period)
    if prev is not None and full and len(prev) <= lb:
        masks_by_key = dict(zip(keys, masks))
        union = 0
        for k in prev:
            union |= masks_by_key.get(k, 0)
        if union == full:
            # The previous optimum here still covers under the new shifts
            # and matches the lower bound: certified, no cover solve.
            stats["step2_prev"] = stats.get("step2_prev", 0) + 1
            return [ScheduleEntry(period=period, pattern=p, config=c)
                    for p, c in prev]
    greedy = greedy_cover_masks(masks, full) if full else []
    if full and len(greedy) > lb:
        stats["step2_ilp"] = stats.get("step2_ilp", 0) + 1
        greedy = ilp_cover(CoverProblem.from_matrix(matrix, elements),
                           time_limit=state.time_limit)
    picked = [keys[j] for j in greedy]
    state.period_prev[period] = tuple(picked)
    return [ScheduleEntry(period=period, pattern=p, config=c)
            for p, c in picked]


def _step2_table(state: ScheduleState) -> RangeTable:
    """The data's range table with every fault moved by its gate's
    cumulative shift: the per-pattern ranges step 2 tests."""
    return state.data.table.shifted({
        f: state.shifts.get(g, 0.0) for f, g in state.fault_gate.items()})


def _solve_two_step(state: ScheduleState, *, warm: bool,
                    stats: dict | None = None) -> ScheduleResult:
    stats = stats if stats is not None else {}
    candidates = state.cand_set.candidates
    masks = state.cand_set.masks
    full = 0
    for m in masks:
        full |= m
    fingerprint = state.cand_set.matrix.tobytes()

    if (warm and fingerprint == state.fingerprint
            and state.chosen_idx is not None
            and all(j < len(candidates) for j in state.chosen_idx)):
        # Structure hit: the delta moved segment times but left every
        # candidate's fault set unchanged, so the previous step-1 optimum
        # solves the identical cover problem.
        chosen_idx = list(state.chosen_idx)
        stats["structure_hit"] = True
        stats["step1_path"] = "structure"
    else:
        stats["structure_hit"] = False
        if state.solver == "greedy":
            chosen_idx = (greedy_cover_masks(masks, full) if masks and full
                          else [])
            stats["step1_path"] = "greedy"
        elif warm:
            chosen_idx = _step1_warm(state, masks, full, stats)
        else:
            chosen_idx = _step1_cold(state, stats)
            stats["step1_path"] = "cold-ilp"
    state.fingerprint = fingerprint
    state.chosen_idx = list(chosen_idx)
    state.prev_chosen_masks = tuple(masks[j] for j in chosen_idx)

    chosen = [candidates[j] for j in chosen_idx]
    covered_acc: set[int] = set()
    for c in chosen:
        covered_acc |= c.faults
    covered = frozenset(covered_acc)

    dropping = order_periods_fault_dropping(chosen, covered)
    per_period = {cand.time: fs for cand, fs in dropping}
    entries = []
    hits = misses = 0
    table = None
    for cand, fault_set in dropping:
        if warm:
            key = _step2_key(state, cand.time, fault_set)
            picked = state.step2_cache.get(key)
            if picked is not None:
                hits += 1
                state.period_prev[cand.time] = tuple(
                    (e.pattern, e.config) for e in picked)
                entries.extend(picked)
                continue
            misses += 1
        if table is None:
            table = _step2_table(state)
        if warm and state.solver == "ilp":
            picked = tuple(_solve_period_warm(
                state, table, cand.time, fault_set, stats))
        else:
            picked = tuple(_solve_period(
                table, cand.time, fault_set, state.configs,
                state.solver, state.time_limit))
        if warm:
            state.step2_cache[key] = picked
        entries.extend(picked)
    stats["step2_hits"] = hits
    stats["step2_misses"] = misses

    state.revision += 1
    return ScheduleResult(
        periods=sorted(per_period),
        entries=sorted(entries),
        targets=state.targets,
        covered=covered,
        method=state.solver,
        num_candidates=len(candidates),
        per_period_faults=per_period,
    )


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
def _check_gates(state: ScheduleState, delta: AlertDelta) -> None:
    """Reject an alert on a gate the circuit does not have (before any
    state changes)."""
    n = len(state.circuit.gates)
    for g, _ in delta.shifts:
        if not 0 <= g < n:
            raise ValueError(
                f"alert on gate {g}, but circuit "
                f"{state.circuit.name!r} has {n} gates (0..{n - 1})")


def _accumulate(state: ScheduleState, delta: AlertDelta) -> list[int]:
    """Fold the delta into the cumulative shifts; return dirty faults."""
    dirty: set[int] = set()
    for g, s in delta.shifts:
        state.shifts[g] = state.shifts.get(g, 0.0) + s
        dirty.update(state.gate_faults.get(g, ()))
    return sorted(dirty)


def _update_fault(state: ScheduleState, f: int) -> bool:
    """Refresh one dirty fault's clipped combined range.

    Returns True when it changed, i.e. the candidate matrix needs a patch.
    Step 2 reads the per-pattern ranges from the table shifted by
    ``state.shifts`` at solve time, so they move even when the window
    clip masks the translation here.
    """
    s = state.shifts.get(state.fault_gate[f], 0.0)
    new_rng = state.base_combined[f].shifted(s).clipped(
        state.clock.t_min, state.clock.t_nom)
    if new_rng == state.fault_ranges[f]:
        return False
    state.fault_ranges[f] = new_rng
    state.fault_boundaries[f] = new_rng.boundaries()
    return True


def apply_alert(state: ScheduleState, delta: AlertDelta) -> ReschedOutcome:
    """Incremental re-solve: recompute only what the delta invalidates.

    Raises ``ValueError`` for an alert on a gate outside the circuit.
    """
    t0 = time.perf_counter()
    stats: dict = {"dirty_gates": len(delta.gates), "dirty_faults": 0}

    def _fast(reason: str) -> ReschedOutcome:
        stats["grid"] = None
        return ReschedOutcome(state.schedule, time.perf_counter() - t0,
                              reason, stats)

    if delta.is_empty:
        return _fast("empty-delta")
    _check_gates(state, delta)
    dirty = _accumulate(state, delta)
    stats["dirty_faults"] = len(dirty)
    if not dirty:
        return _fast("no-dirty-faults")
    changed = [f for f in dirty if _update_fault(state, f)]
    stats["changed_faults"] = len(changed)
    if changed:
        stats["grid"] = _patch_candidates(state, changed)
    else:
        # Shifts swallowed by the window clip: the candidate matrix is
        # still exact and step 1 replays via the structure fingerprint,
        # but the per-pattern ranges moved, so step 2 must re-solve the
        # dirty periods (the shift-aware cache keys force the misses).
        stats["grid"] = "unchanged"
    schedule = _solve_two_step(state, warm=True, stats=stats)
    state.schedule = schedule
    return ReschedOutcome(schedule, time.perf_counter() - t0, None, stats)


def apply_alert_cold(state: ScheduleState,
                     delta: AlertDelta) -> ReschedOutcome:
    """Full cold re-solve (the honest baseline the increments race).

    Applies the delta, then recomputes the entire pipeline from the
    detection data: per-fault observable unions (rebuilt, not memoized —
    the memo key does not know about shifts), full sweep discretization,
    cold presolve and uncut ILPs, fresh per-period step-2 covers.  State
    caches are refreshed afterwards so incremental calls may follow.
    """
    t0 = time.perf_counter()
    stats: dict = {"dirty_gates": len(delta.gates)}
    _check_gates(state, delta)
    dirty = _accumulate(state, delta)
    stats["dirty_faults"] = len(dirty)
    # Honest cold cost: rebuild every fault's observable union from the
    # per-pattern data, the work detection_range would redo in the field.
    delays = state.config_delays
    for f in state.fault_ids:
        s = state.shifts.get(state.fault_gate[f], 0.0)
        base = _combined_unclipped(state.data, f, delays)
        rng = base.shifted(s).clipped(state.clock.t_min, state.clock.t_nom)
        state.fault_ranges[f] = rng
        state.fault_boundaries[f] = rng.boundaries()
    _rebuild_candidates(state)
    schedule = _solve_two_step(state, warm=False, stats=stats)
    state.schedule = schedule
    stats["grid"] = "rebuilt"
    return ReschedOutcome(schedule, time.perf_counter() - t0, None, stats)


def prepare_state_for_result(result, *, solver: Solver = "ilp",
                             time_limit: float = DEFAULT_TIME_LIMIT_S
                             ) -> ScheduleState:
    """State over a :class:`FlowResult`'s proposed-schedule inputs."""
    return prepare_state(result.circuit, result.data,
                         result.classification.target,
                         result.clock, result.configs, solver=solver,
                         time_limit=time_limit)


def cold_schedule_result(state: ScheduleState) -> ScheduleResult:
    """Cold reference schedule for the state's *current* shifts.

    Recomputes via the stock :func:`optimize_from_candidates` path on a
    throwaway copy of the ranges — used by equivalence tests to compare
    against a solve that shares no warm-start machinery with the state.
    """
    from repro.scheduling.discretize import discretize_candidate_set

    ranges = {f: rng for f, rng in state.fault_ranges.items()
              if not rng.is_empty}
    cand_set = discretize_candidate_set(
        ranges, state.clock.t_min, state.clock.t_nom,
        prune_dominated=state.prune_dominated, point=state.point)
    return optimize_from_candidates(
        _step2_table(state), cand_set, state.targets, state.configs,
        solver=state.solver, time_limit=state.time_limit)


__all__ = [
    "AlertDelta",
    "ReschedOutcome",
    "ScheduleState",
    "apply_alert",
    "apply_alert_cold",
    "cold_schedule_result",
    "load_alert_stream",
    "prepare_state",
    "prepare_state_for_result",
    "scenario_alert_stream",
]
