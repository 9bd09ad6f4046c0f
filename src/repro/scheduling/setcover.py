"""Set-covering solvers for the two scheduling steps (Sec. IV-B/C).

The paper models both optimization steps as 0-1 linear programs solved by a
commercial tool; here the exact solver is :func:`ilp_cover` on top of
``scipy.optimize.milp`` (HiGHS).  A :func:`greedy_cover` heuristic provides
the comparison baseline of [17], and :func:`branch_and_bound_cover` is a
dependency-free exact fallback used in tests to validate the ILP results.

All solvers work on a :class:`CoverProblem`: a universe of elements and a
list of subsets; they return subset indices whose union covers the required
part of the universe, minimizing the number of chosen subsets.  *Partial*
covering (``coverage < 1.0``) asks that at least ``ceil(coverage * |U|)``
elements be covered (Table III's relaxed coverage targets).

Internally every solver runs on a packed bitset view of the problem
(:meth:`CoverProblem.packed`): elements are numbered deterministically
(sorted by ``repr``) and each subset becomes both a row of a ``uint64``
bit matrix and an int bitmask.  The sequential loops (greedy gain
scoring, branch-and-bound, the warm witness replay) run on the int masks,
where a popcount or subset test is one int operation.  Full-coverage ILPs
additionally pass through :func:`presolve_cover`, a provably lossless
reduction (duplicate-row/column collapse, dominated-column elimination,
essential-subset forcing, connected-component splitting) that shrinks —
often eliminates — the matrix ``milp`` sees; it runs as numpy kernels over
the bit matrix, and so does the ILP model build of each component.  See
ALGORITHMS.md §9 for the losslessness argument.  Callers that already
hold the packed rows (the scheduler's candidate matrix) build the problem
with :meth:`CoverProblem.from_matrix` and skip the frozenset hashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Hashable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse.csgraph import connected_components

from repro.utils.bitset import (
    dominated_rows,
    first_superset,
    mask_bits,
    masks_to_matrix,
    matrix_to_masks,
    pack_bits,
    popcount,
    unpack_bits,
)
from repro.utils.profiling import StageTimer

#: Default wall-clock limit per ILP, mirroring the paper's 1 h timeout but
#: scaled to interactive experiment sizes.
DEFAULT_TIME_LIMIT_S = 60.0


@dataclass(frozen=True)
class PackedCover:
    """Bitset view of a :class:`CoverProblem`.

    ``elements[b]`` is the universe element carried by bit ``b`` (sorted by
    ``repr`` — the same deterministic order the seed ILP used for its
    constraint rows); ``masks[j]`` is subset ``j`` restricted to the
    universe and ``matrix[j]`` the same row as ``uint64`` words; ``full``
    has every universe bit set.
    """

    elements: tuple[Hashable, ...]
    masks: tuple[int, ...]
    full: int
    matrix: np.ndarray = field(repr=False, compare=False)

    @property
    def num_elements(self) -> int:
        return len(self.elements)


@dataclass
class CoverProblem:
    """A set-covering instance over hashable elements.

    Built from ``subsets`` (the universe defaults to their union) or, when
    the packed rows already exist, with :meth:`from_matrix`.
    """

    subsets: list[frozenset[Hashable]]
    universe: frozenset[Hashable] = field(default_factory=frozenset)
    _packed: PackedCover | None = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        if self._packed is not None:
            return      # from_matrix: universe and masks already packed
        # Single accumulating union: frozenset().union(*subsets) builds a
        # fresh frozenset per argument-tuple element on large instances;
        # in-place |= over one set is linear in the total subset size.
        covered: set[Hashable] = set()
        for s in self.subsets:
            covered |= s
        if not self.universe:
            self.universe = frozenset(covered)
        else:
            missing = self.universe - covered
            if missing:
                # Deterministic, complete report: every missing element in
                # repr order, not a truncated sample.
                raise ValueError(
                    f"{len(missing)} universe elements not coverable: "
                    f"{sorted(missing, key=repr)}")

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, elements: Sequence[Hashable],
                    subsets: Sequence[frozenset[Hashable]]) -> CoverProblem:
        """Problem over the rows of a packed bit matrix.

        Bit ``b`` of ``matrix`` carries ``elements[b]`` and ``subsets[j]``
        must hold exactly the elements of row ``j`` (the scheduler's
        :class:`~repro.scheduling.discretize.CandidateSet` keeps both).
        Elements no row covers are dropped, so with ``elements`` sorted by
        ``repr`` the packed view is bit for bit the one the frozenset
        constructor would build — without hashing a single element.
        """
        incidence = unpack_bits(matrix, len(elements))
        present = incidence.any(axis=0)
        if not present.all():
            matrix = pack_bits(incidence[:, present])
        kept = tuple(e for e, p in zip(elements, present.tolist()) if p)
        packed = PackedCover(elements=kept, masks=tuple(
            matrix_to_masks(matrix)), full=(1 << len(kept)) - 1,
            matrix=matrix)
        return cls(subsets=list(subsets), universe=frozenset(kept),
                   _packed=packed)

    @property
    def num_subsets(self) -> int:
        return len(self.subsets)

    def packed(self) -> PackedCover:
        """Bitset view (built lazily, cached; subsets must not mutate)."""
        if self._packed is None:
            elements = tuple(sorted(self.universe, key=repr))
            index = {e: b for b, e in enumerate(elements)}
            masks = tuple(
                sum(1 << index[e] for e in s if e in index)
                for s in self.subsets)
            self._packed = PackedCover(
                elements=elements, masks=masks,
                full=(1 << len(elements)) - 1,
                matrix=masks_to_matrix(masks, len(elements)))
        return self._packed

    def required_count(self, coverage: float) -> int:
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must lie in (0, 1]")
        return math.ceil(coverage * len(self.universe) - 1e-9)

    def covered_by(self, chosen: Sequence[int]) -> frozenset[Hashable]:
        out: set[Hashable] = set()
        for j in chosen:
            out |= self.subsets[j]
        return frozenset(out)


def greedy_cover_masks(masks: Sequence[int], universe: int,
                       need: int | None = None) -> list[int]:
    """Greedy cover on raw int bitmasks (shared deterministic core).

    Tie-breaking is *explicitly* deterministic: candidates are ranked by
    ``(gain, -index)`` and the maximum wins, i.e. highest popcount gain
    first, lowest subset index among equals — independent of the order in
    which the caller's container happens to iterate.  Returns subset
    indices in ascending order; raises when the requested count cannot be
    reached.  ``need`` defaults to full coverage of ``universe``.
    """
    if need is None:
        need = universe.bit_count()
    uncovered = universe
    chosen: list[int] = []
    remaining = [(j, m & uncovered) for j, m in enumerate(masks)]
    covered_count = 0
    while covered_count < need:
        if not remaining:
            raise RuntimeError("greedy cover stalled before reaching coverage")
        j_best, gain_neg = max(
            remaining, key=lambda jm: (jm[1].bit_count(), -jm[0]))
        gain_best = gain_neg.bit_count()
        if gain_best == 0:
            raise RuntimeError("greedy cover stalled before reaching coverage")
        chosen.append(j_best)
        covered_count += gain_best
        uncovered &= ~gain_neg
        remaining = [(j, m & uncovered) for j, m in remaining
                     if j != j_best and m & uncovered]
    chosen.sort()
    return chosen


def greedy_cover(problem: CoverProblem, *, coverage: float = 1.0) -> list[int]:
    """Classic greedy heuristic: repeatedly pick the subset covering the most
    still-uncovered elements (the [17]-style baseline).

    Runs on the packed bitmasks with popcount scoring via
    :func:`greedy_cover_masks`; ties go to the lowest index through an
    explicit ``(gain, -index)`` sort key instead of scan order, so
    warm-start equivalence tests are stable across platforms and
    container orderings.
    """
    p = problem.packed()
    return greedy_cover_masks(p.masks, p.full,
                              need=problem.required_count(coverage))


def independent_rows_bound(masks: Sequence[int], universe: int) -> int:
    """Combinatorial lower bound on the full-coverage optimum.

    Greedily collects *independent* elements — no two share a covering
    subset — rarest-covered first.  Every cover spends a distinct subset
    per independent element, so their count bounds the optimum from
    below.  On the interval-structured cover problems the scheduler
    produces, the bound is routinely tight, which lets the rescheduling
    engine certify a repaired previous solution as optimal without
    touching the ILP (see :mod:`repro.scheduling.resched`).  Deterministic:
    ties are broken by lowest element bit.
    """
    covering: dict[int, list[int]] = {}
    for cm in masks:
        m = cm & universe
        while m:
            e = m & -m
            m ^= e
            covering.setdefault(e, []).append(cm)
    order = sorted(covering, key=lambda e: (len(covering[e]), e))
    remaining = universe
    bound = 0
    for e in order:
        if not remaining & e:
            continue
        union = 0
        for cm in covering[e]:
            union |= cm
        remaining &= ~union
        bound += 1
    # Elements no subset covers cannot raise a *feasible* optimum's bound;
    # callers only certify against feasible covers, so ignore them.
    return bound


def independent_rows_bound_matrix(matrix: np.ndarray) -> int:
    """:func:`independent_rows_bound` over a packed bit matrix.

    Same greedy, same tie-breaking (rarest element first, lowest bit on
    ties), but vectorized: one ``unpackbits`` gives the element-by-column
    incidence, so each of the ≤ *bound* iterations is a masked column
    reduction instead of a Python scan over all masks.  The universe is
    the union of the rows — the only way the scheduler calls the bound.
    """
    if matrix.shape[0] == 0:
        return 0
    inc = unpack_bits(matrix, matrix.shape[1] * 64)
    counts = inc.sum(axis=0)
    present = np.flatnonzero(counts)
    if present.size == 0:
        return 0
    order = present[np.argsort(counts[present], kind="stable")]
    remaining = counts > 0
    bound = 0
    for e in order:
        if not remaining[e]:
            continue
        union = inc[inc[:, e]].any(axis=0)
        remaining &= ~union
        bound += 1
    return bound


def independent_rows_bound_masks(masks: Sequence[int], n_bits: int) -> int:
    """:func:`independent_rows_bound_matrix` for int-mask subproblems
    whose universe is the union of the masks (step-2 covers)."""
    if not masks or n_bits <= 0:
        return 0
    return independent_rows_bound_matrix(masks_to_matrix(masks, n_bits))


# ----------------------------------------------------------------------
# Presolve (full coverage only — provably lossless, see ALGORITHMS.md §9)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PresolveReduction:
    """Outcome of :func:`presolve_cover`.

    ``forced`` — original subset indices every minimum cover must contain
    (essential columns, discovered transitively).  ``components`` — the
    irreducible kernel, split into independent subproblems: each entry is
    ``(columns, masks, uncovered)`` with original column indices, their
    masks restricted to the component, and the component's element mask.
    An empty ``components`` list means presolve solved the instance
    outright.  ``stats`` counts eliminations per rule.

    ``column_masks`` / ``dominators`` feed the warm-start path of the
    rescheduling engine: the original packed column masks, and the
    dominance *witnesses* ``(dropped_mask, keeper_mask)`` recorded the
    first time rule 1 ran (mask values, not indices, so they survive
    column renumbering between re-solves).  Both default empty so
    hand-built reductions stay valid.
    """

    forced: tuple[int, ...]
    components: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
    stats: dict[str, int]
    column_masks: tuple[int, ...] = ()
    dominators: tuple[tuple[int, int], ...] = ()

    @property
    def solved(self) -> bool:
        return not self.components


def _presolve_packed(p: PackedCover, skip: frozenset[int] = frozenset(),
                     warm_dropped: int = 0) -> PresolveReduction:
    """Bit-matrix fixpoint shared by :func:`presolve_cover` (cold) and
    :func:`presolve_cover_warm` (columns in ``skip`` are pre-dropped by a
    re-verified dominance witness and never enter the fixpoint).

    ``work`` holds every column restricted to the still-uncovered
    elements; ``alive`` lists the surviving column indices, ascending.
    """
    n_bits = p.num_elements
    work = p.matrix.copy()
    alive = np.array([j for j in range(len(p.masks)) if j not in skip],
                     dtype=np.int64)
    alive = alive[work[alive].any(axis=1)]
    uncovered = masks_to_matrix([p.full], n_bits)[0]
    forced: list[int] = []
    stats = {"dominated_columns": 0, "essential_columns": 0,
             "duplicate_rows": 0, "components": 0,
             "warm_dropped_columns": warm_dropped}
    witnesses: list[tuple[int, int]] = []

    first_pass = True
    changed = True
    while changed and uncovered.any():
        changed = False
        # Rule 1: dominated / duplicate columns (largest first, then lowest
        # index, so the maximal representative of every chain is kept).
        order = alive[np.lexsort((alive, -popcount(work[alive])))]
        kept = np.asarray(dominated_rows(work, order), dtype=np.int64)
        if kept.size < order.size:
            is_kept = np.zeros(work.shape[0], dtype=bool)
            is_kept[kept] = True
            dropped = order[~is_kept[order]]        # in scan order
            if first_pass:
                # Rows are still the caller's originals on the first pass,
                # so (value, value) witnesses are replayable against a
                # future problem over the same element order.
                keepers = first_superset(work, dropped, kept)
                witnesses = [(p.masks[d], p.masks[k]) for d, k in
                             zip(dropped.tolist(), keepers.tolist())]
            stats["dominated_columns"] += int(dropped.size)
            alive = np.sort(kept)
            changed = True
        first_pass = False
        # Rule 2: essential columns — elements with exactly one covering
        # column force that column.
        incidence = unpack_bits(work[alive], n_bits)
        single = np.flatnonzero(incidence.sum(axis=0) == 1)
        if single.size:
            essential = np.unique(alive[incidence[:, single].argmax(axis=0)])
            forced.extend(essential.tolist())
            uncovered &= ~np.bitwise_or.reduce(work[essential], axis=0)
            taken = np.zeros(work.shape[0], dtype=bool)
            taken[essential] = True
            alive = alive[~taken[alive]]
            stats["essential_columns"] += int(essential.size)
            changed = True
        if changed:
            work[alive] &= uncovered
            alive = alive[work[alive].any(axis=1)]

    components: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    if uncovered.any():
        # Columns and elements as one bipartite graph: node c < len(alive)
        # is column alive[c], node len(alive) + b is element bit b.  Every
        # uncovered element keeps a covering column, so each component's
        # element mask is the union of its columns' masks.
        n_cols = alive.size
        cols_idx, bits_idx = np.nonzero(unpack_bits(work[alive], n_bits))
        n_nodes = n_cols + n_bits
        graph = sparse.csr_matrix(
            (np.ones(cols_idx.size, dtype=np.int8),
             (cols_idx, n_cols + bits_idx)), shape=(n_nodes, n_nodes))
        _n, labels = connected_components(graph, directed=False)
        groups: dict[int, list[int]] = {}
        for c, label in enumerate(labels[:n_cols].tolist()):
            groups.setdefault(label, []).append(c)
        col_masks = matrix_to_masks(work[alive])
        alive_list = alive.tolist()
        for members in groups.values():
            masks = tuple(col_masks[c] for c in members)
            comp_mask = 0
            for m in masks:
                comp_mask |= m
            components.append(
                (tuple(alive_list[c] for c in members), masks, comp_mask))
        # Lowest element first; callers sort the chosen columns, so the
        # component order never reaches a result.
        components.sort(key=lambda comp: comp[2] & -comp[2])
        stats["components"] = len(components)

    forced.sort()
    return PresolveReduction(forced=tuple(forced),
                             components=tuple(components), stats=stats,
                             column_masks=p.masks,
                             dominators=tuple(witnesses))


def presolve_cover(problem: CoverProblem) -> PresolveReduction:
    """Lossless full-coverage reduction of a set-covering instance.

    Iterates three rules to a fixpoint, then splits what remains into
    connected components:

    1. **Dominated/duplicate columns** — drop subset ``j`` when its
       remaining elements are contained in subset ``k``'s (first index wins
       among equals).  Any cover using ``j`` swaps in ``k`` at equal
       cardinality, so some minimum cover survives the deletion.
    2. **Essential columns** — an element covered by exactly one surviving
       subset forces that subset into *every* cover; take it and delete
       its elements.
    3. **Duplicate rows** — elements covered by identical subset
       collections impose identical constraints; collapsing them changes
       nothing (applied when building the ILP matrix, via the component
       element masks).

    Connected-component splitting is exact because the constraint matrix
    is block-diagonal over components: a cover of the union is the
    disjoint union of covers, so the minima add.
    """
    return _presolve_packed(problem.packed())


def presolve_cover_warm(problem: CoverProblem,
                        prev: PresolveReduction) -> PresolveReduction:
    """Warm-started presolve: replay ``prev``'s dominance witnesses first.

    Each witness is a ``(dropped_mask, keeper_mask)`` value pair from a
    previous :func:`presolve_cover` over the *same element ordering* (the
    rescheduling engine guarantees this — the fault universe is constant
    across deltas).  A witness is replayed only after re-verifying, on the
    NEW masks, that (a) a column with the keeper's mask value still exists
    and (b) containment ``dropped & ~keeper == 0`` still holds — an O(1)
    check per witness — so every pre-dropped column is dominated *in the
    new problem* and the reduction stays unconditionally lossless even
    against a stale or mismatched witness list.  Columns untouched by the
    delta typically re-verify wholesale, skipping most of the quadratic
    rule-1 scan; the normal fixpoint then runs on the survivors and picks
    up any dominance the delta newly created.
    """
    p = problem.packed()
    cols_by_value: dict[int, list[int]] = {}
    for j, m in enumerate(p.masks):
        if m:
            cols_by_value.setdefault(m, []).append(j)
    skip: set[int] = set()
    for dropped_mask, keeper_mask in prev.dominators:
        keepers = cols_by_value.get(keeper_mask)
        if not keepers:
            continue
        if dropped_mask == keeper_mask:
            # Duplicate-column witness: keep the lowest index of the value.
            skip.update(keepers[1:])
            continue
        if dropped_mask & ~keeper_mask:
            continue        # containment no longer holds; witness is stale
        keeper = keepers[0]
        for j in cols_by_value.get(dropped_mask, ()):
            if j != keeper:
                skip.add(j)
    return _presolve_packed(p, skip=frozenset(skip),
                            warm_dropped=len(skip))


def _milp_component(cols: Sequence[int], masks: Sequence[int],
                    uncovered: int, time_limit: float,
                    stats: dict[str, int] | None = None,
                    ub: int | None = None) -> list[int] | None:
    """Exact minimum cover of one presolved component via HiGHS.

    Duplicate rows (rule 3) are collapsed here: elements with identical
    covering-column signatures produce one constraint.  ``ub`` adds a
    cardinality cut ``Σ x ≤ ub`` from a known feasible solution (lossless:
    the optimum can only be smaller).  Returns original column indices, or
    None when HiGHS yields no incumbent.
    """
    n_bits = uncovered.bit_length()
    elements = np.flatnonzero(
        unpack_bits(masks_to_matrix([uncovered], n_bits), n_bits)[0])
    n_el, n_sub = int(elements.size), len(cols)
    # Signature of an element = the set of local columns covering it; one
    # row per distinct signature (deduplicated as packed bytes), in the
    # seed's sorted-tuple order so HiGHS receives the identical model.
    incidence = unpack_bits(masks_to_matrix(masks, n_bits), n_bits)
    packed_sigs = np.packbits(incidence[:, elements].T, axis=1)
    distinct = np.unpackbits(
        np.frombuffer(b"".join({row.tobytes() for row in packed_sigs}),
                      dtype=np.uint8).reshape(-1, packed_sigs.shape[1]),
        axis=1, count=n_sub)
    flat = np.nonzero(distinct)[1].tolist()
    ends = np.cumsum(distinct.sum(axis=1)).tolist()
    signatures = sorted(tuple(flat[a:b])
                        for a, b in zip([0] + ends[:-1], ends))
    if stats is not None:
        stats["duplicate_rows"] += n_el - len(signatures)
    sizes = [len(sig) for sig in signatures]
    rows_idx = np.repeat(np.arange(len(signatures)), sizes)
    cols_idx = np.fromiter(chain.from_iterable(signatures), dtype=np.int64,
                           count=sum(sizes))
    a_cover = sparse.csr_matrix(
        (np.ones(rows_idx.size), (rows_idx, cols_idx)),
        shape=(len(signatures), n_sub))
    constraints = [LinearConstraint(a_cover, lb=1.0, ub=np.inf)]
    if ub is not None:
        constraints.append(LinearConstraint(
            np.ones((1, n_sub)), lb=0.0, ub=float(ub)))
    res = milp(c=np.ones(n_sub),
               constraints=constraints,
               bounds=Bounds(0, 1), integrality=np.ones(n_sub),
               options={"time_limit": time_limit, "presolve": True})
    if res.x is None:
        return None
    return [cols[c] for c in range(n_sub) if res.x[c] > 0.5]


def solve_reduction(red: PresolveReduction,
                    time_limit: float = DEFAULT_TIME_LIMIT_S, *,
                    cuts: bool = False) -> list[int] | None:
    """Solve a :class:`PresolveReduction` to a provably minimum cover.

    Forced columns are taken as-is; each independent component is solved
    exactly by HiGHS.  With ``cuts=True`` (the rescheduling warm path)
    every component first computes a greedy incumbent and the covering
    lower bound ``⌈|elements| / max column popcount⌉``; when they meet,
    the greedy picks are returned without invoking the ILP (exact — the
    incumbent matches a valid lower bound), otherwise the incumbent's
    cardinality is passed to :func:`_milp_component` as a cut.  Both uses
    of the incumbent are lossless, so ``cuts`` never changes the cost.
    Returns None when any component times out without an incumbent
    (caller falls back to greedy, matching :func:`ilp_cover`).
    """
    chosen = list(red.forced)
    for cols, masks, comp_mask in red.components:
        ub: int | None = None
        if cuts:
            g_local = greedy_cover_masks(masks, comp_mask)
            largest = max(m.bit_count() for m in masks)
            lb = math.ceil(comp_mask.bit_count() / largest)
            if len(g_local) <= lb:
                red.stats["early_exit_components"] = (
                    red.stats.get("early_exit_components", 0) + 1)
                chosen.extend(cols[c] for c in g_local)
                continue
            ub = len(g_local)
        picks = _milp_component(cols, masks, comp_mask, time_limit,
                                red.stats, ub=ub)
        if picks is None:
            return None
        chosen.extend(picks)
    return chosen


def ilp_cover(problem: CoverProblem, *, coverage: float = 1.0,
              time_limit: float = DEFAULT_TIME_LIMIT_S,
              timer: StageTimer | None = None) -> list[int]:
    """Exact 0-1 ILP set cover via HiGHS (Sec. IV-C formulation).

    Full coverage: ``min Σ x_j  s.t.  Σ_{j ∋ e} x_j ≥ 1 ∀ e``.
    Partial coverage adds indicator variables ``y_e ≤ Σ_{j ∋ e} x_j`` with
    ``Σ y_e ≥ ⌈coverage · |U|⌉``.

    Full-coverage instances are first reduced by :func:`presolve_cover`;
    components the reduction leaves behind are solved as independent
    (much smaller) ILPs.  Partial coverage skips presolve — element
    multiplicity matters there, so the reductions are not lossless; its
    indicators are aggregated by covering signature instead.  ``timer``
    credits the reduction time to a ``"presolve"`` stage.

    Falls back to the greedy solution when the solver hits the time limit
    without an incumbent (documented behaviour of the paper's flow, which
    aborted its commercial solver after one hour).
    """
    n_sub = problem.num_subsets
    n_el = len(problem.universe)
    if n_sub == 0 or n_el == 0:
        return []

    full_coverage = coverage >= 1.0 - 1e-12
    chosen: list[int] | None = None
    if full_coverage:
        if timer is not None:
            with timer.stage("presolve"):
                red = presolve_cover(problem)
        else:
            red = presolve_cover(problem)
        # cuts stay off here so the schedules stay as pinned; the
        # rescheduling engine opts in via solve_reduction(cuts=True).
        chosen = solve_reduction(red, time_limit)
    else:
        chosen = _milp_partial_aggregated(problem, coverage, time_limit)

    if chosen is None:
        return greedy_cover(problem, coverage=coverage)
    chosen.sort()
    # Defensive: HiGHS can return a feasible-but-suboptimal incumbent on
    # timeout; verify feasibility and fall back to greedy on violation.
    masks = problem.packed().masks
    covered = 0
    for j in chosen:
        covered |= masks[j]
    if covered.bit_count() < problem.required_count(coverage):
        return greedy_cover(problem, coverage=coverage)
    return chosen


def _milp_partial_aggregated(problem: CoverProblem, coverage: float,
                             time_limit: float) -> list[int] | None:
    """Partial-coverage ILP with signature-aggregated indicators.

    Elements covered by the *same* set of subsets are interchangeable for
    the count constraint: either some covering subset is chosen (all of
    them become coverable) or none is.  One indicator ``y_g`` per distinct
    covering signature with weight = group size therefore yields the same
    optimum as the per-element formulation while shrinking the ILP
    from ``|U|`` to ``#signatures`` indicator variables and link rows.
    (Duplicate-*column* and essential reductions are NOT lossless here —
    element multiplicity and optional coverage break them — so this is the
    only presolve rule the partial path applies.)
    """
    p = problem.packed()
    need = problem.required_count(coverage)
    # Element signature = int mask over columns covering it.
    sigs = [0] * p.num_elements
    for j, m in enumerate(p.masks):
        for e in mask_bits(m):
            sigs[e] |= 1 << j
    groups: dict[int, int] = {}
    for sig in sigs:
        if sig:
            groups[sig] = groups.get(sig, 0) + 1
    signatures = sorted(groups)
    n_sub, n_grp = len(p.masks), len(signatures)
    if n_grp == 0:
        return []       # nothing coverable; need == 0 handled by caller
    # Variables: [x_1..x_S, y_1..y_G]
    c = np.concatenate([np.ones(n_sub), np.zeros(n_grp)])
    rows_idx, cols_idx, vals = [], [], []
    for g, sig in enumerate(signatures):
        for j in mask_bits(sig):
            rows_idx.append(g)
            cols_idx.append(j)
            vals.append(1.0)
        rows_idx.append(g)
        cols_idx.append(n_sub + g)
        vals.append(-1.0)
    link = sparse.csr_matrix((vals, (rows_idx, cols_idx)),
                             shape=(n_grp, n_sub + n_grp))
    weights = np.concatenate([
        np.zeros(n_sub),
        np.array([float(groups[sig]) for sig in signatures])])
    # Greedy incumbent as a cardinality cut: greedy is feasible, so the
    # optimum satisfies Σx ≤ |greedy| — a lossless bound that lets the
    # solver prune most of its branch-and-bound tree up front.
    ub = float(len(greedy_cover(problem, coverage=coverage)))
    card = np.concatenate([np.ones(n_sub), np.zeros(n_grp)])
    constraints = [
        LinearConstraint(link, lb=0.0, ub=np.inf),
        LinearConstraint(weights[None, :], lb=float(need), ub=np.inf),
        LinearConstraint(card[None, :], lb=0.0, ub=ub),
    ]
    res = milp(c=c, constraints=constraints, bounds=Bounds(0, 1),
               integrality=np.ones(n_sub + n_grp),
               options={"time_limit": time_limit, "presolve": True})
    if res.x is None:
        return None
    return [j for j in range(n_sub) if res.x[j] > 0.5]


def branch_and_bound_cover(problem: CoverProblem, *,
                           coverage: float = 1.0,
                           max_nodes: int = 200_000) -> list[int]:
    """Exact set cover by branch-and-bound on the packed bitmasks.

    Dependency-free reference used to cross-check :func:`ilp_cover` in the
    test suite.  Full coverage branches on the least-covered element and
    bounds with the greedy incumbent plus a covering lower bound (the seed
    strategy, now with popcount scoring).  ``coverage < 1.0`` switches to
    include/exclude branching on the highest-gain subset, which stays
    exact for the partial objective.
    """
    p = problem.packed()
    need = problem.required_count(coverage)
    if need == 0:
        return []
    masks = p.masks
    best = greedy_cover(problem, coverage=coverage)
    best_len = len(best)
    nodes = 0

    if coverage >= 1.0 - 1e-12:
        covers: list[list[int]] = [[] for _ in range(p.num_elements)]
        for j, m in enumerate(masks):
            for e in mask_bits(m):
                covers[e].append(j)

        def recurse(uncovered: int, chosen: list[int]) -> None:
            nonlocal best, best_len, nodes
            nodes += 1
            if nodes > max_nodes:
                return
            if not uncovered:
                if len(chosen) < best_len:
                    best, best_len = list(chosen), len(chosen)
                return
            if len(chosen) + 1 >= best_len:
                return
            # Lower bound: an element needs at least one more subset each
            # time the largest remaining subset cannot cover everything.
            largest = max(((m & uncovered).bit_count() for m in masks),
                          default=0)
            if largest == 0:
                return
            if (len(chosen) + math.ceil(uncovered.bit_count() / largest)
                    >= best_len):
                return
            pivot = min(mask_bits(uncovered), key=lambda e: len(covers[e]))
            options = sorted(covers[pivot],
                             key=lambda j: -(masks[j] & uncovered).bit_count())
            for j in options:
                recurse(uncovered & ~masks[j], chosen + [j])

        recurse(p.full, [])
        return sorted(best)

    # Partial coverage: include/exclude on the current highest-gain subset.
    def recurse_partial(pool: list[int], uncovered: int, need_rem: int,
                        chosen: list[int]) -> None:
        nonlocal best, best_len, nodes
        if need_rem <= 0:
            if len(chosen) < best_len:
                best, best_len = list(chosen), len(chosen)
            return
        nodes += 1
        if nodes > max_nodes:
            return
        if len(chosen) + 1 >= best_len:
            return
        gains = [(masks[j] & uncovered).bit_count() for j in pool]
        largest = max(gains, default=0)
        if largest == 0:
            return
        if len(chosen) + math.ceil(need_rem / largest) >= best_len:
            return
        pos = gains.index(largest)
        j = pool[pos]
        rest = pool[:pos] + pool[pos + 1:]
        recurse_partial(rest, uncovered & ~masks[j],
                        need_rem - largest, chosen + [j])
        recurse_partial(rest, uncovered, need_rem, chosen)

    recurse_partial(list(range(len(masks))), p.full, need, [])
    return sorted(best)
