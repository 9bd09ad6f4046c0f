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

A problem is one packed bit matrix: row ``j`` is subset ``j`` as
``uint64`` words and bit ``b`` carries ``elements[b]``, the universe
sorted by ``repr``.  Callers that already hold packed rows (the
scheduler's candidate matrix, step 2's pattern-config rows) build it
with :meth:`CoverProblem.from_matrix` and never hash an element;
:meth:`CoverProblem.from_sets` packs frozensets.  Every solver reads the
rows: greedy scores each pick as one popcount over ``rows & uncovered``,
and full-coverage ILPs first pass through :func:`presolve_cover`, a
provably lossless reduction (duplicate-row/column collapse,
dominated-column elimination, essential-subset forcing,
connected-component splitting) that shrinks — often eliminates — the
matrix ``milp`` sees.  The fixpoint, the components and each
component's ILP model are numpy kernels over the same rows; see
ALGORITHMS.md §9 for the losslessness argument.  Only the test oracle
:func:`branch_and_bound_cover` turns rows into Python ints.
:func:`independent_rows_bound_matrix` is the one lower bound: the
rescheduler's warm steps accept a greedy or repaired cover without the
ILP when its size meets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import AbstractSet, Hashable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse.csgraph import connected_components

from repro.utils.bitset import (
    dominated_rows,
    first_superset,
    pack_bits,
    popcount,
    row_bits,
    union_row,
    unpack_bits,
)
from repro.utils.profiling import StageTimer

#: Default wall-clock limit per ILP, mirroring the paper's 1 h timeout but
#: scaled to interactive experiment sizes.
DEFAULT_TIME_LIMIT_S = 60.0


def check_coverable(universe: frozenset[Hashable],
                    covered: AbstractSet[Hashable]) -> None:
    """Raise ``ValueError`` unless ``covered`` contains all of ``universe``.

    The report is deterministic and complete: every missing element in
    ``repr`` order, not a truncated sample.
    """
    missing = universe - covered
    if missing:
        raise ValueError(f"{len(missing)} universe elements not coverable: "
                         f"{sorted(missing, key=repr)}")


@dataclass(frozen=True, eq=False)
class CoverProblem:
    """A set-covering instance as one packed bit matrix.

    Row ``j`` of ``matrix`` is subset ``j`` and bit ``b`` is
    ``elements[b]``; every element lies in some row, so the universe is
    the union of the rows.  Built with :meth:`from_matrix` or
    :meth:`from_sets`.
    """

    matrix: np.ndarray = field(repr=False)
    elements: tuple[Hashable, ...]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, elements: Sequence[Hashable]
                    ) -> CoverProblem:
        """Problem over the rows of a packed bit matrix.

        Bit ``b`` of ``matrix`` carries ``elements[b]``.  Elements no row
        covers are dropped, so with ``elements`` sorted by ``repr`` the
        problem is bit for bit the one :meth:`from_sets` builds —
        without hashing a single element.
        """
        incidence = unpack_bits(matrix, len(elements))
        present = incidence.any(axis=0)
        if not present.all():
            matrix = pack_bits(incidence[:, present])
        return cls(matrix, tuple(
            e for e, p in zip(elements, present.tolist()) if p))

    @classmethod
    def from_sets(cls, subsets: Sequence[AbstractSet[Hashable]],
                  universe: AbstractSet[Hashable] = frozenset()
                  ) -> CoverProblem:
        """Problem over ``subsets``; the universe defaults to their union.

        Elements are numbered in ``repr`` order and each subset is
        restricted to the universe.  Raises ``ValueError`` when the
        subsets leave part of a given ``universe`` uncovered.
        """
        covered: set[Hashable] = set()
        for s in subsets:
            covered |= s
        if universe:
            check_coverable(frozenset(universe), covered)
        else:
            universe = covered
        elements = tuple(sorted(universe, key=repr))
        bit = {e: b for b, e in enumerate(elements)}
        incidence = np.zeros((len(subsets), len(elements)), dtype=bool)
        for j, s in enumerate(subsets):
            incidence[j, [bit[e] for e in s if e in bit]] = True
        return cls(pack_bits(incidence), elements)

    @property
    def universe(self) -> frozenset[Hashable]:
        return frozenset(self.elements)

    @property
    def num_subsets(self) -> int:
        return self.matrix.shape[0]

    def required_count(self, coverage: float) -> int:
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must lie in (0, 1]")
        return math.ceil(coverage * len(self.elements) - 1e-9)

    def covered_by(self, chosen: Sequence[int]) -> frozenset[Hashable]:
        union = union_row(self.matrix[list(chosen)])
        return frozenset(self.elements[b] for b in row_bits(union))


def greedy_cover_rows(rows: np.ndarray, need: int) -> list[int]:
    """Greedy cover of ``need`` elements of the union of ``rows`` (the
    deterministic core of every greedy pick).

    Each step takes the row covering the most still-uncovered elements —
    one popcount over ``rows & uncovered`` — and ``argmax`` breaks ties
    to the lowest row index, whatever order a caller's container has.
    Returns row indices ascending; raises when ``need`` cannot be
    reached.
    """
    uncovered = union_row(rows)
    chosen: list[int] = []
    covered = 0
    while covered < need:
        gains = popcount(rows & uncovered)
        if not gains.any():
            raise RuntimeError("greedy cover stalled before reaching coverage")
        j = int(gains.argmax())
        chosen.append(j)
        covered += int(gains[j])
        uncovered &= ~rows[j]
    chosen.sort()
    return chosen


def greedy_cover(problem: CoverProblem, *, coverage: float = 1.0) -> list[int]:
    """Classic greedy heuristic: repeatedly pick the subset covering the most
    still-uncovered elements (the [17]-style baseline).

    Runs :func:`greedy_cover_rows` on the problem's rows: popcount
    scoring, ties to the lowest index, so warm-start equivalence tests
    are stable across platforms and container orderings.
    """
    return greedy_cover_rows(problem.matrix, problem.required_count(coverage))


def independent_rows_bound_matrix(matrix: np.ndarray) -> int:
    """Combinatorial lower bound on the full-coverage optimum over the
    rows of a packed bit matrix; the universe is the union of the rows.

    Greedily collects *independent* elements — no two share a covering
    row — rarest-covered first, lowest bit on ties.  Every cover spends a
    distinct row per independent element, so their count bounds the
    optimum from below.  On the interval-structured problems the
    scheduler produces the bound is routinely tight, which lets the
    rescheduling engine certify a cover as optimal without the ILP (see
    :mod:`repro.scheduling.resched`).  One ``unpackbits`` gives the
    element-by-row incidence, so each of the ≤ *bound* iterations is a
    masked column reduction.
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


# ----------------------------------------------------------------------
# Presolve (full coverage only — provably lossless, see ALGORITHMS.md §9)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PresolveReduction:
    """Outcome of :func:`presolve_cover`.

    ``forced`` — original subset indices every minimum cover must contain
    (essential columns, discovered transitively).  ``components`` — the
    irreducible kernel, split into independent subproblems: each entry is
    ``(columns, rows, covered)`` with original column indices, their rows
    restricted to the component, and the component's element row (the
    union of ``rows``).  An empty ``components`` list means presolve
    solved the instance outright.  ``stats`` counts eliminations per rule.

    ``dominators`` feeds the warm-start path of the rescheduling engine:
    the dominance *witnesses* ``(dropped, keeper)`` recorded the first
    time rule 1 ran, each a row's bytes without trailing zero bytes
    (values, not indices, so they survive column renumbering between
    re-solves).  ``replayed`` holds the witnesses a warm presolve
    replayed that held on its rows.  Both default empty so hand-built
    reductions stay valid.
    """

    forced: tuple[int, ...]
    components: tuple[tuple[tuple[int, ...], np.ndarray, np.ndarray], ...]
    stats: dict[str, int]
    dominators: tuple[tuple[bytes, bytes], ...] = ()
    replayed: tuple[tuple[bytes, bytes], ...] = ()

    @property
    def solved(self) -> bool:
        return not self.components

    @property
    def witnesses(self) -> tuple[tuple[bytes, bytes], ...]:
        """What the next warm presolve replays: ``dominators``, then
        ``replayed``, without repeats."""
        return tuple(dict.fromkeys(self.dominators + self.replayed))


def _row_values(matrix: np.ndarray) -> list[bytes]:
    """Each row's little-endian bytes without trailing zero bytes: equal
    exactly when the rows hold the same set, whatever the word count."""
    width = matrix.shape[1] * 8
    raw = matrix.tobytes()
    return [raw[a:a + width].rstrip(b"\0")
            for a in range(0, len(raw), width)]


def _presolve_packed(problem: CoverProblem,
                     skip: frozenset[int] = frozenset(),
                     warm_dropped: int = 0) -> PresolveReduction:
    """Bit-matrix fixpoint shared by :func:`presolve_cover` (cold) and
    :func:`presolve_cover_warm` (columns in ``skip`` are pre-dropped by a
    re-verified dominance witness and never enter the fixpoint).

    ``work`` holds every column restricted to the still-uncovered
    elements; ``alive`` lists the surviving column indices, ascending.
    """
    n_bits = len(problem.elements)
    work = problem.matrix.copy()
    alive = np.array([j for j in range(work.shape[0]) if j not in skip],
                     dtype=np.int64)
    alive = alive[work[alive].any(axis=1)]
    uncovered = union_row(work)
    forced: list[int] = []
    stats = {"dominated_columns": 0, "essential_columns": 0,
             "duplicate_rows": 0, "components": 0,
             "warm_dropped_columns": warm_dropped}
    witnesses: list[tuple[bytes, bytes]] = []

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
                witnesses = list(zip(_row_values(work[dropped]),
                                     _row_values(work[keepers])))
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
            uncovered &= ~union_row(work[essential])
            taken = np.zeros(work.shape[0], dtype=bool)
            taken[essential] = True
            alive = alive[~taken[alive]]
            stats["essential_columns"] += int(essential.size)
            changed = True
        if changed:
            work[alive] &= uncovered
            alive = alive[work[alive].any(axis=1)]

    components: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] = []
    if uncovered.any():
        # Columns and elements as one bipartite graph: node c < len(alive)
        # is column alive[c], node len(alive) + b is element bit b.  Every
        # uncovered element keeps a covering column, so each component's
        # elements are the union of its columns' rows.
        n_cols = alive.size
        rows = work[alive]
        cols_idx, bits_idx = np.nonzero(unpack_bits(rows, n_bits))
        n_nodes = n_cols + n_bits
        graph = sparse.csr_matrix(
            (np.ones(cols_idx.size, dtype=np.int8),
             (cols_idx, n_cols + bits_idx)), shape=(n_nodes, n_nodes))
        _n, labels = connected_components(graph, directed=False)
        groups: dict[int, list[int]] = {}
        for c, label in enumerate(labels[:n_cols].tolist()):
            groups.setdefault(label, []).append(c)
        for members in groups.values():
            comp_rows = rows[members]
            components.append((tuple(alive[members].tolist()), comp_rows,
                               union_row(comp_rows)))
        # Lowest element first; callers sort the chosen columns, so the
        # component order never reaches a result.
        components.sort(key=lambda comp: int(row_bits(comp[2])[0]))
        stats["components"] = len(components)

    forced.sort()
    return PresolveReduction(forced=tuple(forced),
                             components=tuple(components), stats=stats,
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
       element rows).

    Connected-component splitting is exact because the constraint matrix
    is block-diagonal over components: a cover of the union is the
    disjoint union of covers, so the minima add.
    """
    return _presolve_packed(problem)


def presolve_cover_warm(problem: CoverProblem,
                        prev: PresolveReduction) -> PresolveReduction:
    """Warm-started presolve: replay ``prev``'s dominance witnesses first.

    Each witness is a ``(dropped, keeper)`` row-value pair from a
    previous :func:`presolve_cover` over the *same element ordering* (the
    rescheduling engine guarantees this — the fault universe is constant
    across deltas).  A witness is replayed only after re-verifying, on the
    NEW rows, that (a) a column with the keeper's value still exists and
    (b) containment ``dropped & ~keeper == 0`` still holds — one row test
    for all witnesses — so every pre-dropped column is dominated *in the new
    problem* and the reduction stays unconditionally lossless even
    against a stale or mismatched witness list.  Columns untouched by the
    delta typically re-verify wholesale, skipping most of the quadratic
    rule-1 scan; the normal fixpoint then runs on the survivors and picks
    up any dominance the delta newly created.  The witnesses that held
    are returned as ``replayed``, so the next re-solve replays them
    beside the fixpoint's own (:attr:`PresolveReduction.witnesses`).
    """
    matrix = problem.matrix
    cols_by_value: dict[bytes, list[int]] = {}
    for j, value in enumerate(_row_values(matrix)):
        if value:
            cols_by_value.setdefault(value, []).append(j)
    witnesses = prev.witnesses
    skip: set[int] = set()
    held: set[tuple[bytes, bytes]] = set()
    pairs: list[tuple[tuple[bytes, bytes], list[int], int]] = []
    for witness in witnesses:
        dropped, keeper = witness
        keepers = cols_by_value.get(keeper)
        if not keepers:
            continue
        if dropped == keeper:
            # Duplicate-column witness: keep the lowest index of the value.
            if len(keepers) > 1:
                skip.update(keepers[1:])
                held.add(witness)
        elif dropped in cols_by_value:
            pairs.append((witness, cols_by_value[dropped], keepers[0]))
    if pairs:
        holds = ~(matrix[[cols[0] for _w, cols, _k in pairs]]
                  & ~matrix[[k for _w, _cols, k in pairs]]).any(axis=1)
        for (witness, cols, _k), ok in zip(pairs, holds.tolist()):
            if ok:
                skip.update(cols)
                held.add(witness)
    red = _presolve_packed(problem, skip=frozenset(skip),
                           warm_dropped=len(skip))
    # The fixpoint never sees the columns these witnesses dropped, so
    # they go on to the next re-solve beside its own.
    return replace(red, replayed=tuple(w for w in witnesses if w in held))


def minimal_elements(rows: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """The element row ``covered`` restricted to its minimal elements.

    An element's signature is the set of ``rows`` covering it.  Element
    ``e`` is dropped when another element's signature is a subset of
    ``e``'s, and one element stays per group of equal signatures (rule 1
    of the presolve on the transposed matrix).  Every cover of the kept
    elements covers the dropped ones, so the feasible covers and the LP
    polytope stay the same.  :func:`dominated_rows` scans the
    complemented signatures, masked to the component's columns, with the
    fewest covering columns first, then the lowest bit.
    """
    elements = row_bits(covered)
    n_sub = rows.shape[0]
    sigs = pack_bits(unpack_bits(rows, rows.shape[1] * 64)[:, elements].T)
    complement = ~sigs & pack_bits(np.ones((1, n_sub), dtype=bool))
    order = np.lexsort((np.arange(elements.size), popcount(sigs)))
    kept = np.zeros(covered.size * 64, dtype=bool)
    kept[elements[dominated_rows(complement, order)]] = True
    return pack_bits(kept[None, :])[0]


def _milp_component(cols: Sequence[int], rows: np.ndarray,
                    covered: np.ndarray, time_limit: float,
                    stats: dict[str, int] | None = None,
                    ub: int | None = None) -> list[int] | None:
    """Exact minimum cover of one presolved component via HiGHS.

    Duplicate rows (rule 3) are collapsed here: elements with identical
    covering-column signatures produce one constraint.  ``ub`` adds a
    cardinality cut ``Σ x ≤ ub`` from a known feasible solution (lossless:
    the optimum can only be smaller).  Returns original column indices, or
    None when HiGHS yields no incumbent.
    """
    elements = row_bits(covered)
    n_el, n_sub = int(elements.size), len(cols)
    # Signature of an element = the set of local columns covering it; one
    # row per distinct signature (deduplicated as packed bytes), in the
    # seed's sorted-tuple order so HiGHS receives the identical model.
    incidence = unpack_bits(rows, rows.shape[1] * 64)
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
    cardinality is passed to :func:`_milp_component` as a cut and the
    model keeps only the component's :func:`minimal_elements` (the drops
    are counted in ``stats["dominated_rows"]``).  All three are lossless,
    so ``cuts`` never changes the cost; without it HiGHS receives the
    cold model unchanged.  Returns None when any component times out
    without an incumbent (caller falls back to greedy, matching
    :func:`ilp_cover`).
    """
    chosen = list(red.forced)
    for cols, rows, covered in red.components:
        ub: int | None = None
        if cuts:
            n_el = int(popcount(covered))
            g_local = greedy_cover_rows(rows, n_el)
            lb = math.ceil(n_el / int(popcount(rows).max()))
            if len(g_local) <= lb:
                red.stats["early_exit_components"] = (
                    red.stats.get("early_exit_components", 0) + 1)
                chosen.extend(cols[c] for c in g_local)
                continue
            ub = len(g_local)
            covered = minimal_elements(rows, covered)
            red.stats["dominated_rows"] = (
                red.stats.get("dominated_rows", 0) + n_el
                - int(popcount(covered)))
        picks = _milp_component(cols, rows, covered, time_limit,
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
    if problem.num_subsets == 0 or not problem.elements:
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
    covered = union_row(problem.matrix[chosen])
    if popcount(covered) < problem.required_count(coverage):
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
    need = problem.required_count(coverage)
    n_sub = problem.num_subsets
    # Element signature = the columns covering it.  ``np.unique`` on the
    # signatures with the columns reversed sorts them by their int value
    # Σ 2^j (the highest column decides first), the seed's group order.
    incidence = unpack_bits(problem.matrix, len(problem.elements))
    sigs, sizes = np.unique(incidence.T[:, ::-1], axis=0,
                            return_counts=True)
    nonempty = sigs.any(axis=1)
    groups, sizes = sigs[nonempty][:, ::-1], sizes[nonempty]
    n_grp = groups.shape[0]
    if n_grp == 0:
        return []       # nothing coverable; need == 0 handled by caller
    # Variables: [x_1..x_S, y_1..y_G]; row g links y_g to its columns.
    c = np.concatenate([np.ones(n_sub), np.zeros(n_grp)])
    grp_idx, col_idx = np.nonzero(groups)
    link = sparse.csr_matrix(
        (np.concatenate([np.ones(grp_idx.size), -np.ones(n_grp)]),
         (np.concatenate([grp_idx, np.arange(n_grp)]),
          np.concatenate([col_idx, n_sub + np.arange(n_grp)]))),
        shape=(n_grp, n_sub + n_grp))
    weights = np.concatenate([np.zeros(n_sub), sizes.astype(float)])
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
    """Exact set cover by branch-and-bound on Python int masks of the rows.

    Dependency-free reference used to cross-check :func:`ilp_cover` in the
    test suite.  Full coverage branches on the least-covered element and
    bounds with the greedy incumbent plus a covering lower bound (the seed
    strategy, now with popcount scoring).  ``coverage < 1.0`` switches to
    include/exclude branching on the highest-gain subset, which stays
    exact for the partial objective.
    """
    from repro.utils.bitset import mask_bits, matrix_to_masks

    need = problem.required_count(coverage)
    if need == 0:
        return []
    masks = matrix_to_masks(problem.matrix)
    full = (1 << len(problem.elements)) - 1
    best = greedy_cover(problem, coverage=coverage)
    best_len = len(best)
    nodes = 0

    if coverage >= 1.0 - 1e-12:
        covers: list[list[int]] = [[] for _ in problem.elements]
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

        recurse(full, [])
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

    recurse_partial(list(range(len(masks))), full, need, [])
    return sorted(best)
