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
   configurations, so the state keeps the targets' *unclipped* combined
   ranges as one :class:`FlatRanges` (``base``, at zero shift) and the
   current ranges as another (``cur``), both keyed by candidate-matrix
   bit: a dirty fault's new pieces are its ``base`` pieces moved by its
   shift and clipped to ``[t_min, t_nom]`` (:func:`clip_pieces`) — no
   per-pattern re-union.  A fault whose new pieces equal its old ones
   within ``EPS`` keeps the old ones.
2. **Delta discretization** — the sweep grid is rebuilt from the
   endpoints of ``cur``.  When the grid is unchanged, the occupancy
   matrix is patched in place: changed bit columns are cleared and
   refilled.  When the grid moved, clean rows are *remapped*: every new
   segment copies the old segment containing its midpoint.  This is
   exact — both grids contain every clean fault's interval boundaries, so
   no clean boundary lies strictly inside a new segment and membership is
   constant across it (see ALGORITHMS.md §16 for the argument).
3. **Warm presolve** — :func:`~repro.scheduling.setcover.presolve_cover_warm`
   replays the previous reduction's dominance witnesses (row values,
   each re-verified against the new rows — unconditionally lossless)
   before running the normal fixpoint, and passes the ones that held on
   to the next alert beside the fixpoint's own.
4. **Warm step 1** — when the merged candidate matrix is bit-identical to
   the previous solve (a *structure hit*: the delta moved segment times
   but not fault sets), the previous chosen rows are reused outright.
   Otherwise one certificate ladder (:func:`_certified_cover`, shared
   with step 2) accepts the repaired previous optimum or the greedy
   cover when it meets :func:`independent_rows_bound_matrix`, and else
   solves the reduced components with lossless cuts: a greedy incumbent
   bounds the ILP (``Σx ≤ ub``), the ILP keeps one constraint per
   minimal element (an element whose covering columns contain another
   element's is implied), and components whose incumbent matches the
   covering lower bound skip the ILP entirely.
5. **Step-2 memo** — per-period covers are cached by
   ``(period, fault set, per-fault shifts)``; on a miss the same ladder
   runs with the period's previous optimum as its first rung and
   ``ilp_cover`` as its exact rung.

Fault dropping, step 2's order and the result are the flow's own
(:func:`~repro.scheduling.schedule.schedule_from_chosen`); the warm path
passes its memoized step 2 and the cold one the flow's.  Every reuse
rule above is lossless, so the incremental schedule is cost-equal to a
cold re-solve (asserted by the randomized suite in
``tests/test_resched.py``; ``tests/test_resched_golden.py`` pins every
path and schedule alert by alert, also with cold and warm re-solves
interleaved).  The ``cold`` engine (:func:`apply_alert_cold`) performs
the honest full recompute — the flow's ``ilp_cover`` step 1 and
per-period ILPs on the rebuilt candidates — and doubles as the
equivalence yardstick and the bench baseline.  Rescheduling is
restricted to full-coverage, ILP-optimal schedules with dominance-pruned
midpoint candidates — the partial-coverage reductions are not lossless,
so there is nothing exact to warm-start.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.faults.detection import (
    DetectionData,
    FlatRanges,
    RangeTable,
    _concat_ranges,
    clip_pieces,
)
from repro.monitors.monitor import MonitorConfigSet
from repro.netlist.circuit import Circuit
from repro.scheduling.discretize import (
    CandidateSet,
    SweepGrid,
    discretize_pieces,
    finalize_candidates,
    flatten_ranges,
    occupancy,
    sweep_grid,
)
from repro.scheduling.schedule import (
    ScheduleEntry,
    ScheduleResult,
    _step2_solver,
    optimize_from_candidates,
    pattern_config_rows,
    schedule_from_chosen,
)
from repro.scheduling.setcover import (
    CoverProblem,
    PresolveReduction,
    greedy_cover_rows,
    ilp_cover,
    independent_rows_bound_matrix,
    presolve_cover,
    presolve_cover_warm,
    solve_reduction,
)
from repro.timing.clock import ClockSpec
from repro.utils.bitset import popcount, union_row, zeros
from repro.utils.cache import LruCache
from repro.utils.intervals import EPS, IntervalAccumulator, IntervalSet

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

    Built once by :func:`prepare_state_for_result`; mutated in place by
    :func:`apply_alert` (incremental) and :func:`apply_alert_cold` (full
    recompute that still refreshes the caches so the two engines can be
    interleaved).  The underlying :class:`DetectionData` is never
    mutated — all shifted ranges live here.
    """

    circuit: Circuit
    data: DetectionData
    targets: frozenset[int]
    clock: ClockSpec
    configs: MonitorConfigSet | None
    #: Fault universe of the candidate bit matrix: every target fault with
    #: a non-empty *unclipped* combined range, in ``repr`` order.  Fixed
    #: across deltas so bit positions are stable (faults whose shifted
    #: range clips away keep their bit and simply contribute no segments).
    fault_ids: tuple[int, ...] = ()
    fault_bit: dict[int, int] = field(default_factory=dict)
    fault_gate: dict[int, int] = field(default_factory=dict)
    gate_faults: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: Cumulative per-gate shifts applied so far.
    shifts: dict[int, float] = field(default_factory=dict)
    #: Per bit ``b`` (the key of every piece), the unclipped
    #: ``I_FF ∪ ⋃(I_mon + d)`` of ``fault_ids[b]`` at zero shift.
    base: FlatRanges = field(default_factory=FlatRanges.empty)
    #: Per bit: ``base`` moved by the fault's cumulative gate shift and
    #: clipped to ``[t_min, t_nom]`` — the current observable range.
    cur: FlatRanges = field(default_factory=FlatRanges.empty)
    grid: SweepGrid | None = None
    matrix_raw: np.ndarray | None = None       # occupancy pre-degenerate
    cand_set: CandidateSet | None = None
    #: Last warm exact step 1's presolve (its dominance witnesses are
    #: replayed); a cold solve leaves None.
    reduction: PresolveReduction | None = None
    fingerprint: bytes | None = None           # merged-matrix structure
    chosen_idx: list[int] = field(default_factory=list)
    #: Rows of the last step-1 optimum — the repair candidate the warm
    #: solve promotes when the lower bound certifies it.
    prev_chosen_rows: np.ndarray = field(default_factory=lambda: zeros(0, 0))
    step2_cache: LruCache = field(
        default_factory=lambda: LruCache(maxsize=STEP2_CACHE_SIZE))
    #: period -> (pattern, config) keys of the last step-2 optimum there,
    #: shift-agnostic: the repair candidate the warm step 2 re-validates
    #: against the current rows before certifying it optimal.  Bounded
    #: like ``step2_cache``: every new step-2 period adds a key.
    period_prev: LruCache = field(
        default_factory=lambda: LruCache(maxsize=STEP2_CACHE_SIZE))
    schedule: ScheduleResult | None = None
    #: Monotonic re-solve counter (prepare counts as solve 0).
    revision: int = 0

    @property
    def config_delays(self) -> tuple[float, ...]:
        return tuple(self.configs) if self.configs is not None else ()

    @property
    def fault_ranges(self) -> Mapping[int, IntervalSet]:
        """Read-only view: each fault of ``fault_ids`` -> its current
        range (``cur``), possibly empty.  ``bench/workloads.py`` checks
        schedule coverage against it."""
        cur = self.cur
        return MappingProxyType(
            {f: cur.interval_set(b) for b, f in enumerate(self.fault_ids)})


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


def prepare_state_for_result(result) -> ScheduleState:
    """Build the re-schedulable state over a :class:`FlowResult`'s
    proposed-schedule inputs and solve the initial schedule."""
    circuit, data, clock = result.circuit, result.data, result.clock
    state = ScheduleState(
        circuit=circuit, data=data,
        targets=frozenset(result.classification.target), clock=clock,
        configs=result.configs)
    combined = data.table.combined(state.config_delays).select(state.targets)
    faults = combined.faults
    state.fault_ids = tuple(sorted(faults.tolist(), key=repr))
    state.fault_bit = {f: b for b, f in enumerate(state.fault_ids)}
    bit = np.array([state.fault_bit[f] for f in faults.tolist()],
                   dtype=np.int64)[np.searchsorted(faults, combined.fault)]
    order = np.argsort(bit, kind="stable")
    state.base = FlatRanges(bit[order], combined.lo[order],
                            combined.hi[order])
    state.cur = clip_pieces(state.base, clock.t_min, clock.t_nom)
    for f in state.fault_ids:
        state.fault_gate[f] = data.faults[f].site.signal_gate(circuit)
    by_gate: dict[int, list[int]] = {}
    for f, g in state.fault_gate.items():
        by_gate.setdefault(g, []).append(f)
    state.gate_faults = {g: tuple(sorted(fs)) for g, fs in by_gate.items()}

    _rebuild_candidates(state)
    state.schedule = _solve_cold(state, {})
    return state


# ----------------------------------------------------------------------
# Candidate (re)construction
# ----------------------------------------------------------------------
def _sweep_grid(state: ScheduleState) -> SweepGrid:
    cur = state.cur
    return sweep_grid(np.concatenate((cur.lo, cur.hi)), state.clock.t_min,
                      state.clock.t_nom)


def _finalize_state(state: ScheduleState, *, prune: bool = True) -> None:
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
    state.cand_set = finalize_candidates(matrix, grid, state.fault_ids,
                                         prune_dominated=prune)


def _occupancy(state: ScheduleState, grid: SweepGrid,
               pieces: FlatRanges) -> np.ndarray:
    return occupancy(grid, pieces.fault, pieces.lo, pieces.hi,
                     len(state.fault_ids))


def _rebuild_candidates(state: ScheduleState) -> None:
    """Cold sweep: full grid + occupancy fill from the current ranges."""
    state.grid = _sweep_grid(state)
    if state.grid.n_segments == 0 or not state.fault_ids:
        n = len(state.fault_ids)
        state.matrix_raw = zeros(0, n)
        state.cand_set = CandidateSet((), zeros(0, n), state.fault_ids)
        return
    state.matrix_raw = _occupancy(state, state.grid, state.cur)
    _finalize_state(state)


def _patch_candidates(state: ScheduleState, changed: np.ndarray,
                      pieces: FlatRanges) -> str:
    """Delta discretization: patch or remap instead of resweeping.

    ``changed`` are the bits whose ranges moved and ``pieces`` their new
    pieces.  Only a fault with pieces inside the window can change, so
    the window has segments here.  Returns the path taken
    (``"patched"`` — grid unchanged, rows edited in place;
    ``"remapped"`` — clean rows gathered from the old grid by midpoint
    lookup).  Exactness of the remap: both grids contain every clean
    fault's boundaries, so a clean fault's membership is constant across
    each new segment and equals its membership at the midpoint of the
    old segment containing it (ALGORITHMS.md §16).
    """
    old_grid, old_matrix = state.grid, state.matrix_raw
    new_grid = _sweep_grid(state)
    state.grid = new_grid
    if np.array_equal(new_grid.pts, old_grid.pts):
        matrix = old_matrix          # replaced below; safe to edit in place
        path = "patched"
    else:
        idx = np.searchsorted(old_grid.pts, new_grid.mids,
                              side="right") - 1
        np.clip(idx, 0, old_grid.n_segments - 1, out=idx)
        matrix = old_matrix[idx]
        path = "remapped"
    for b in changed.tolist():
        matrix[:, b >> 6] &= _WORD_MASK ^ np.uint64(1 << (b & 63))
    matrix |= _occupancy(state, new_grid, pieces)
    state.matrix_raw = matrix
    _finalize_state(state, prune=False)
    return path


# ----------------------------------------------------------------------
# Step 1 and step 2 of the cold refresh and the warm re-solve
# ----------------------------------------------------------------------
def _repair_previous(prev: np.ndarray, rows: np.ndarray
                     ) -> list[int] | None:
    """Map the previous step-1 optimum into the new candidate rows.

    Each previously chosen row is matched to a new row — the first equal
    one, else the first superset, else the largest overlap, lowest index
    on ties (a delta typically nudges one chosen candidate's
    composition).  If the mapped picks leave elements of the union of
    ``rows`` uncovered, two cheap completions are tried while staying
    within the previous cardinality: fill unused slots greedily, then a
    single-row swap.  Returns row picks covering the union with at most
    ``len(prev)`` rows — a feasible warm upper bound the caller checks
    against the lower bound — or None.
    """
    if not prev.shape[0] or not rows.shape[0]:
        return None
    budget = prev.shape[0]
    full = union_row(rows)
    superset = ~(prev[:, None, :] & ~rows[None, :, :]).any(axis=2)
    equal = superset & (popcount(rows) == popcount(prev)[:, None])
    picks: set[int] = set()
    for eq, sup, row in zip(equal, superset, prev):
        match = eq if eq.any() else sup if sup.any() else popcount(rows & row)
        picks.add(int(match.argmax()))
    union = union_row(rows[sorted(picks)])
    # Greedy completion into slots freed by deduplication.
    while (full & ~union).any() and len(picks) < budget:
        gains = popcount(rows & ~union)
        if not gains.any():
            return None
        j = int(gains.argmax())
        picks.add(j)
        union |= rows[j]
    ordered = sorted(picks)
    if not (full & ~union).any():
        return ordered
    # One-row swap: closes[p, j] when row j with every pick but
    # ordered[p] covers the union; the lowest j wins, then the lowest p.
    closes = np.array([
        ~(full & ~union_row(rows[[q for q in ordered if q != p]])
          & ~rows).any(axis=1) for p in ordered])
    hits = np.argwhere(closes.T)
    if not hits.size:
        return None
    j_new, p = hits[0]
    return sorted({q for q in ordered if q != ordered[p]} | {int(j_new)})


def _certified_cover(rows: np.ndarray, need: int, lb: int,
                     prev: list[int] | None,
                     exact: Callable[[list[int]], list[int]]
                     ) -> tuple[list[int], int]:
    """Certificate ladder of the warm steps 1 and 2 over ``rows``, which
    must cover ``need`` elements; returns the picks and the rung that
    produced them.

    0. ``prev`` — the previous optimum mapped into the new rows — when it
       still covers ``need`` elements and meets the lower bound ``lb``;
    1. the deterministic greedy cover when it meets ``lb``;
    2. otherwise ``exact(greedy)``, the caller's exact solve.

    Rungs 0 and 1 accept only a cover whose size meets a lower bound, so
    each is a proven optimum and the ladder never changes the cost.
    """
    if (prev is not None and len(prev) <= lb
            and popcount(union_row(rows[prev])) == need):
        return prev, 0
    greedy = greedy_cover_rows(rows, need)
    if len(greedy) <= lb:
        return greedy, 1
    return exact(greedy), 2


def _step1_problem(state: ScheduleState) -> CoverProblem:
    """Step-1 cover problem over the packed candidate rows (bit order is
    the repr-sorted universe, as the flow's)."""
    cand_set = state.cand_set
    return CoverProblem.from_matrix(cand_set.matrix, cand_set.fault_ids)


def _step1_warm(state: ScheduleState, stats: dict) -> list[int]:
    """Warm minimal frequency selection — cost-equal to ``ilp_cover``.

    The ladder of :func:`_certified_cover` with the previous optimum
    repaired into the new rows (:func:`_repair_previous`).  Its exact rung
    is presolve — replaying the previous reduction's dominance witnesses
    when it holds any (the patch path skips dominance pruning, so rule
    1 has real work) — and the component ILPs over the minimal elements
    with the lossless incumbent cut (``solve_reduction(cuts=True)``).
    """
    matrix = state.cand_set.matrix
    if not matrix.any():
        return []

    def exact(greedy: list[int]) -> list[int]:
        problem = _step1_problem(state)
        if state.reduction is not None and state.reduction.witnesses:
            stats["step1_path"] = "warm-presolve-ilp"
            red = presolve_cover_warm(problem, state.reduction)
            stats["warm_dropped_columns"] = red.stats.get(
                "warm_dropped_columns", 0)
        else:
            stats["step1_path"] = "presolve-ilp"
            red = presolve_cover(problem)
        state.reduction = red
        chosen = solve_reduction(red, cuts=True)
        stats["early_exit_components"] = red.stats.get(
            "early_exit_components", 0)
        if chosen is None:   # ILP timeout: greedy fallback like ilp_cover
            return greedy
        return sorted(chosen)

    lb = independent_rows_bound_matrix(matrix)
    stats["step1_lb"] = lb
    repaired = _repair_previous(state.prev_chosen_rows, matrix)
    chosen, rung = _certified_cover(matrix, int(popcount(union_row(matrix))),
                                    lb, repaired, exact)
    if rung < 2:
        stats["step1_path"] = ("repair", "greedy-certified")[rung]
    return chosen


def _step2_key(state: ScheduleState, period: float,
               fault_set: frozenset[int]) -> tuple:
    shifts = tuple(sorted(
        (f, state.shifts.get(state.fault_gate[f], 0.0))
        for f in fault_set))
    return (period, fault_set, shifts)


def _solve_period_warm(state: ScheduleState, table: RangeTable,
                       period: float, fault_set: frozenset[int],
                       stats: dict) -> list[ScheduleEntry]:
    """Step-2 covering through the ladder of :func:`_certified_cover`.

    The rows are cold step 2's (:func:`pattern_config_rows` on the shifted
    table), the previous optimum here (``period_prev``) is rung 0 when all
    of its keys are still rows, and ``ilp_cover`` is the exact rung, so
    the entry count per period is the optimal cover cardinality either
    way.
    """
    keys, matrix, elements = pattern_config_rows(table, fault_set, period,
                                                 state.configs)
    prev = None
    if period in state.period_prev:
        row_of = {k: j for j, k in enumerate(keys)}
        prev = [row_of.get(k) for k in state.period_prev[period]]
        if None in prev:
            prev = None
    picked, rung = _certified_cover(
        matrix, len(elements), independent_rows_bound_matrix(matrix), prev,
        lambda greedy: ilp_cover(CoverProblem.from_matrix(matrix, elements)))
    if rung == 0:
        stats["step2_prev"] = stats.get("step2_prev", 0) + 1
    elif rung == 2:
        stats["step2_ilp"] = stats.get("step2_ilp", 0) + 1
    keys_picked = tuple(keys[j] for j in picked)
    state.period_prev[period] = keys_picked
    return [ScheduleEntry(period=period, pattern=p, config=c)
            for p, c in keys_picked]


def _step2_table(state: ScheduleState) -> RangeTable:
    """The data's range table with every fault moved by its gate's
    cumulative shift: the per-pattern ranges step 2 tests."""
    return state.data.table.shifted({
        f: state.shifts.get(g, 0.0) for f, g in state.fault_gate.items()})


def _schedule(state: ScheduleState, chosen_idx: list[int],
              solve_period: Callable[[float, frozenset[int]],
                                     Sequence[ScheduleEntry]]
              ) -> ScheduleResult:
    """Record step 1's optimum for the next re-solve and finish the
    schedule with the flow's two-step tail."""
    matrix = state.cand_set.matrix
    state.fingerprint = matrix.tobytes()
    state.chosen_idx = list(chosen_idx)
    state.prev_chosen_rows = matrix[chosen_idx]
    state.revision += 1
    return schedule_from_chosen(state.cand_set, chosen_idx, state.targets,
                                "ilp", solve_period)


def _solve_cold(state: ScheduleState, stats: dict) -> ScheduleResult:
    """The flow's two steps on the state's candidates: ``ilp_cover`` for
    step 1, the flow's per-period ILP on the shifted table.

    It stores no presolve reduction: one over dominance-pruned
    candidates records no witness, so there is nothing to replay.
    """
    state.reduction = None
    stats["step1_path"] = "cold-ilp"
    chosen_idx = ilp_cover(_step1_problem(state))
    return _schedule(state, chosen_idx,
                     _step2_solver(_step2_table(state), state.configs))


def _solve_warm(state: ScheduleState, stats: dict) -> ScheduleResult:
    """Warm step 1 (structure hit, else :func:`_step1_warm`) and step 2
    memoized by :func:`_step2_key` over :func:`_solve_period_warm`."""
    if state.cand_set.matrix.tobytes() == state.fingerprint:
        # Structure hit: the delta moved segment times but left every
        # candidate's fault set unchanged, so the previous step-1 optimum
        # solves the identical cover problem.
        chosen_idx = list(state.chosen_idx)
        stats["step1_path"] = "structure"
    else:
        chosen_idx = _step1_warm(state, stats)
    stats["step2_hits"] = stats["step2_misses"] = 0
    table = None

    def solve_period(period: float, fault_set: frozenset[int]
                     ) -> tuple[ScheduleEntry, ...]:
        nonlocal table
        key = _step2_key(state, period, fault_set)
        picked = state.step2_cache.get(key)
        if picked is not None:
            stats["step2_hits"] += 1
            state.period_prev[period] = tuple(
                (e.pattern, e.config) for e in picked)
            return picked
        stats["step2_misses"] += 1
        if table is None:
            table = _step2_table(state)
        picked = tuple(_solve_period_warm(state, table, period, fault_set,
                                          stats))
        state.step2_cache[key] = picked
        return picked

    return _schedule(state, chosen_idx, solve_period)


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


def _slices(key: np.ndarray, keys: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop of each of ``keys``' pieces in ascending ``key``."""
    return (np.searchsorted(key, keys, side="left"),
            np.searchsorted(key, keys, side="right"))


def _update_ranges(state: ScheduleState, dirty: list[int]
                   ) -> tuple[np.ndarray, FlatRanges]:
    """Move the dirty faults' pieces of ``cur`` to their gates' cumulative
    shifts.  Returns the bits whose pieces changed (ascending) and their
    new pieces.

    A fault is unchanged when its new pieces match its old ones in count
    and every endpoint within ``EPS`` (:class:`IntervalSet` equality); it
    keeps its old pieces, so the grid cannot drift.  Step 2 reads the
    per-pattern ranges from the table shifted by ``state.shifts`` at solve
    time, so they move even when the window clip masks the translation
    here.
    """
    dirty = sorted(dirty, key=state.fault_bit.__getitem__)
    d = np.array([state.fault_bit[f] for f in dirty], dtype=np.int64)
    shift = np.array([state.shifts.get(state.fault_gate[f], 0.0)
                      for f in dirty])
    base, cur = state.base, state.cur
    b0, b1 = _slices(base.fault, d)
    at = _concat_ranges(b0, b1)
    s = np.repeat(shift, b1 - b0)
    new = clip_pieces(FlatRanges(base.fault[at], base.lo[at] + s,
                                 base.hi[at] + s),
                      state.clock.t_min, state.clock.t_nom)
    c0, c1 = _slices(cur.fault, d)
    n0, n1 = _slices(new.fault, d)
    count = c1 - c0
    changed = count != n1 - n0
    same = np.flatnonzero(~changed)
    old_at = _concat_ranges(c0[same], c1[same])
    new_at = _concat_ranges(n0[same], n1[same])
    moved = ((np.abs(cur.lo[old_at] - new.lo[new_at]) > EPS)
             | (np.abs(cur.hi[old_at] - new.hi[new_at]) > EPS))
    changed[np.repeat(same, count[same])[moved]] = True
    take = _concat_ranges(n0[changed], n1[changed])
    pieces = FlatRanges(new.fault[take], new.lo[take], new.hi[take])
    keep = np.ones(cur.fault.size, dtype=bool)
    keep[_concat_ranges(c0[changed], c1[changed])] = False
    fault = np.concatenate((cur.fault[keep], pieces.fault))
    order = np.argsort(fault, kind="stable")
    state.cur = FlatRanges(
        fault[order], np.concatenate((cur.lo[keep], pieces.lo))[order],
        np.concatenate((cur.hi[keep], pieces.hi))[order])
    return d[changed], pieces


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
    changed, pieces = _update_ranges(state, dirty)
    stats["changed_faults"] = int(changed.size)
    if changed.size:
        stats["grid"] = _patch_candidates(state, changed, pieces)
    else:
        # Shifts swallowed by the window clip: the candidate matrix is
        # still exact and step 1 replays via the structure fingerprint,
        # but the per-pattern ranges moved, so step 2 must re-solve the
        # dirty periods (the shift-aware cache keys force the misses).
        stats["grid"] = "unchanged"
    schedule = _solve_warm(state, stats)
    state.schedule = schedule
    return ReschedOutcome(schedule, time.perf_counter() - t0, None, stats)


def apply_alert_cold(state: ScheduleState,
                     delta: AlertDelta) -> ReschedOutcome:
    """Full cold re-solve (the honest baseline the increments race).

    Applies the delta, then recomputes the entire pipeline from the
    detection data: per-fault observable unions (rebuilt, not memoized —
    the memo key does not know about shifts), full sweep discretization,
    the flow's ``ilp_cover`` step 1 and fresh per-period step-2 ILPs.
    The step-1 optimum and the candidate fingerprint are recorded
    afterwards so incremental calls may follow.
    The unions stay a per-fault :class:`IntervalSet` rebuild, converted
    to ``cur`` once: the baseline the incremental path is measured
    against (ALGORITHMS.md §16).
    """
    t0 = time.perf_counter()
    stats: dict = {"dirty_gates": len(delta.gates)}
    _check_gates(state, delta)
    dirty = _accumulate(state, delta)
    stats["dirty_faults"] = len(dirty)
    # Honest cold cost: rebuild every fault's observable union from the
    # per-pattern data, the work detection_range would redo in the field.
    delays = state.config_delays
    ranges = []
    for b, f in enumerate(state.fault_ids):
        s = state.shifts.get(state.fault_gate[f], 0.0)
        base = _combined_unclipped(state.data, f, delays)
        ranges.append(
            (b, base.shifted(s).clipped(state.clock.t_min, state.clock.t_nom)))
    state.cur = FlatRanges(*flatten_ranges(ranges))
    _rebuild_candidates(state)
    schedule = _solve_cold(state, stats)
    state.schedule = schedule
    stats["grid"] = "rebuilt"
    return ReschedOutcome(schedule, time.perf_counter() - t0, None, stats)


def cold_schedule_result(state: ScheduleState) -> ScheduleResult:
    """Cold reference schedule for the state's *current* shifts.

    Recomputes via the stock :func:`discretize_pieces` /
    :func:`optimize_from_candidates` path from the current ranges alone —
    used by equivalence tests to compare against a solve that shares no
    warm-start machinery with the state.
    """
    cur = state.cur
    cand_set = discretize_pieces(state.fault_ids, cur.fault, cur.lo, cur.hi,
                                 state.clock.t_min, state.clock.t_nom)
    return optimize_from_candidates(
        _step2_table(state), cand_set, state.targets, state.configs)


__all__ = [
    "AlertDelta",
    "ReschedOutcome",
    "ScheduleState",
    "apply_alert",
    "apply_alert_cold",
    "cold_schedule_result",
    "load_alert_stream",
    "prepare_state_for_result",
    "scenario_alert_stream",
]
