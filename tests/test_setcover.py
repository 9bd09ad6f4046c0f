"""Tests for the set-covering solvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduling.setcover import (
    CoverProblem,
    branch_and_bound_cover,
    greedy_cover,
    greedy_cover_rows,
    ilp_cover,
    minimal_elements,
    presolve_cover,
    presolve_cover_warm,
    solve_reduction,
)
from repro.utils import bitset
from repro.utils.bitset import (
    masks_to_matrix,
    pack_bits,
    row_bits,
    union_row,
    unpack_bits,
)


def problem(*subsets):
    return CoverProblem.from_sets([frozenset(s) for s in subsets])


class TestCoverProblem:
    def test_universe_inferred(self):
        p = problem({1, 2}, {3})
        assert p.universe == frozenset({1, 2, 3})

    def test_uncoverable_universe_rejected(self):
        with pytest.raises(ValueError, match="not coverable"):
            CoverProblem.from_sets([frozenset({1})],
                                   universe=frozenset({1, 2}))

    def test_required_count(self):
        p = problem({1}, {2}, {3}, {4})
        assert p.required_count(1.0) == 4
        assert p.required_count(0.5) == 2
        assert p.required_count(0.51) == 3
        with pytest.raises(ValueError):
            p.required_count(0.0)

    def test_required_count_edge_cases(self):
        p = problem({1}, {2}, {3}, {4})
        # A hair below 1.0 must not round the full count down...
        assert p.required_count(1.0 - 1e-15) == 4
        # ...and exact fractions must not round up through float noise.
        assert p.required_count(0.75) == 3
        assert p.required_count(0.25) == 1
        # Tiny coverage collapses to "nothing required": all solvers agree
        # the empty selection is optimal.
        assert p.required_count(1e-12) == 0
        assert greedy_cover(p, coverage=1e-12) == []
        assert ilp_cover(p, coverage=1e-12) == []
        assert branch_and_bound_cover(p, coverage=1e-12) == []
        with pytest.raises(ValueError):
            p.required_count(1.0 + 1e-9)

    def test_uncoverable_report_is_deterministic_and_complete(self):
        with pytest.raises(ValueError) as exc:
            CoverProblem.from_sets([frozenset({1})],
                                   universe=frozenset({1, 2, 4, 3}))
        assert "3 universe elements not coverable: [2, 3, 4]" in str(exc.value)

    def test_covered_by(self):
        p = problem({1, 2}, {2, 3})
        assert p.covered_by([1]) == frozenset({2, 3})

    def test_from_matrix_drops_uncovered_elements(self):
        # Element bit 1 ("b") is in no row: the problem must equal the
        # frozenset construction over the covered universe.
        elements = ("a", "b", "c", "d")
        rows = [{0, 2}, {2, 3}, {3}]
        subsets = [frozenset(elements[b] for b in r) for r in rows]
        matrix = masks_to_matrix([sum(1 << b for b in r) for r in rows], 4)
        built = CoverProblem.from_matrix(matrix, elements)
        ref = CoverProblem.from_sets(subsets)
        assert built.universe == ref.universe == frozenset("acd")
        assert built.elements == ref.elements
        assert (built.matrix == ref.matrix).all()
        assert ilp_cover(built) == ilp_cover(ref) == [0, 1]


class TestGreedy:
    def test_simple(self):
        p = problem({1, 2, 3}, {1}, {4})
        chosen = greedy_cover(p)
        assert p.covered_by(chosen) == p.universe

    def test_partial_coverage(self):
        p = problem({1, 2, 3, 4}, {5}, {6})
        chosen = greedy_cover(p, coverage=0.6)
        assert len(p.covered_by(chosen)) >= 4

    def test_greedy_suboptimal_instance(self):
        # Classic instance where greedy picks 3 sets but optimum is 2.
        p = problem({1, 2, 3, 4}, {5, 6, 7}, {1, 2, 5, 6}, {3, 4, 7})
        greedy = greedy_cover(p)
        exact = ilp_cover(p)
        assert len(exact) <= len(greedy)
        assert len(exact) == 2


class TestIlp:
    def test_optimal_small(self):
        p = problem({1, 2}, {2, 3}, {1, 3}, {1, 2, 3})
        assert len(ilp_cover(p)) == 1

    def test_feasible_cover(self):
        p = problem({1, 2}, {3}, {4, 5}, {2, 3, 4})
        chosen = ilp_cover(p)
        assert p.covered_by(chosen) == p.universe

    def test_partial_coverage_counts(self):
        p = problem({1}, {2}, {3}, {4}, {5})
        chosen = ilp_cover(p, coverage=0.6)
        assert len(chosen) == 3  # each subset covers exactly one element

    def test_empty_problem(self):
        assert ilp_cover(CoverProblem.from_sets([])) == []


class TestPresolve:
    def test_solved_outright_by_domination_and_essentials(self):
        # {1}, {2} are dominated by {1, 2, 3}; element 3 then makes the big
        # subset essential — presolve finishes without any ILP component.
        p = problem({1, 2, 3}, {1}, {2})
        red = presolve_cover(p)
        assert red.solved
        assert red.forced == (0,)
        assert red.stats["dominated_columns"] == 2
        assert red.stats["essential_columns"] == 1

    def test_duplicate_columns_keep_lowest_index(self):
        p = problem({1, 2}, {1, 2}, {3})
        red = presolve_cover(p)
        assert red.forced == (0, 2)
        assert red.solved

    def test_forced_columns_in_every_solution(self):
        # Element 5 is only coverable by subset 2: every cover contains it.
        p = problem({1, 2}, {2, 3}, {5}, {1, 3})
        red = presolve_cover(p)
        assert 2 in red.forced
        assert 2 in ilp_cover(p)
        assert 2 in branch_and_bound_cover(p)

    def test_component_splitting(self):
        # Two independent blocks over disjoint elements.
        p = problem({1, 2}, {2, 3}, {1, 3}, {10, 11}, {11, 12}, {10, 12})
        red = presolve_cover(p)
        assert len(red.components) == 2
        cols_a, _masks_a, _ = red.components[0]
        cols_b, _masks_b, _ = red.components[1]
        assert set(cols_a) | set(cols_b) <= {0, 1, 2, 3, 4, 5}
        assert set(cols_a).isdisjoint(cols_b)
        # The split instance still solves to the global optimum.
        assert len(ilp_cover(p)) == len(branch_and_bound_cover(p))

    def test_reduction_reconstructs_feasible_cover(self):
        p = problem({1, 2, 3, 4}, {5, 6, 7}, {1, 2, 5, 6}, {3, 4, 7},
                    {1, 5}, {2, 6})
        chosen = ilp_cover(p)
        assert p.covered_by(chosen) >= p.universe
        assert len(chosen) == len(branch_and_bound_cover(p))


class TestBranchAndBound:
    def test_matches_ilp_on_small_instances(self):
        p = problem({1, 2, 3, 4}, {5, 6, 7}, {1, 2, 5, 6}, {3, 4, 7},
                    {1, 5}, {2, 6})
        assert len(branch_and_bound_cover(p)) == len(ilp_cover(p))

    def test_returns_greedy_when_budget_exhausted(self):
        p = problem({1, 2}, {2, 3}, {3, 1})
        chosen = branch_and_bound_cover(p, max_nodes=1)
        assert p.covered_by(chosen) == p.universe


# ----------------------------------------------------------------------
# Property: all three solvers return feasible covers; exact ones agree on
# cardinality and are never worse than greedy.
# ----------------------------------------------------------------------
@st.composite
def random_subsets(draw):
    """``(n_elements, subsets)``: 1-8 non-empty subsets of
    ``range(n_elements)``, not necessarily covering it."""
    n_elements = draw(st.integers(1, 10))
    n_subsets = draw(st.integers(1, 8))
    subsets = []
    for _ in range(n_subsets):
        s = draw(st.sets(st.integers(0, n_elements - 1), min_size=1))
        subsets.append(frozenset(s))
    return n_elements, subsets


@st.composite
def random_problems(draw):
    n_elements, subsets = draw(random_subsets())
    # Guarantee coverability.
    subsets.append(frozenset(range(n_elements)))
    return CoverProblem.from_sets(subsets)


@settings(max_examples=40, deadline=None)
@given(random_problems())
def test_property_solvers_agree(p):
    greedy = greedy_cover(p)
    exact_ilp = ilp_cover(p)
    exact_bb = branch_and_bound_cover(p)
    for chosen in (greedy, exact_ilp, exact_bb):
        assert p.covered_by(chosen) >= p.universe
    assert len(exact_ilp) == len(exact_bb)
    assert len(exact_ilp) <= len(greedy)


@settings(max_examples=20, deadline=None)
@given(random_problems(), st.floats(min_value=0.3, max_value=1.0))
def test_property_partial_coverage_feasible(p, coverage):
    chosen = ilp_cover(p, coverage=coverage)
    assert len(p.covered_by(chosen)) >= p.required_count(coverage)
    # Partial cover never needs more subsets than a full cover.
    assert len(chosen) <= len(ilp_cover(p))


@settings(max_examples=40, deadline=None)
@given(random_problems())
def test_property_presolve_is_lossless(p):
    """The presolved ILP finds an optimal cover (§9 claim): its
    cardinality equals the exact branch-and-bound optimum."""
    reduced = ilp_cover(p)
    exact = branch_and_bound_cover(p)
    assert p.covered_by(reduced) >= p.universe
    assert len(reduced) == len(exact)
    red = presolve_cover(p)
    assert set(red.forced) <= set(reduced)


def _same_reduction(a, b) -> bool:
    return ((a.forced, a.stats, a.dominators) == (b.forced, b.stats,
                                                  b.dominators)
            and len(a.components) == len(b.components)
            and all(ca[0] == cb[0] and np.array_equal(ca[1], cb[1])
                    and np.array_equal(ca[2], cb[2])
                    for ca, cb in zip(a.components, b.components)))


@settings(max_examples=40, deadline=None)
@given(random_problems())
def test_property_matrix_construction_same_reduction(p):
    """Building from packed rows with an element no row covers (here
    the first bit) reproduces the frozenset problem."""
    incidence = unpack_bits(p.matrix, len(p.elements))
    padded = np.hstack([np.zeros((incidence.shape[0], 1), dtype=bool),
                        incidence])
    built = CoverProblem.from_matrix(pack_bits(padded),
                                     ("absent",) + p.elements)
    assert built.elements == p.elements
    assert np.array_equal(built.matrix, p.matrix)
    assert _same_reduction(presolve_cover(built), presolve_cover(p))
    assert ilp_cover(built) == ilp_cover(p)


@settings(max_examples=25, deadline=None)
@given(random_problems(), st.floats(min_value=0.3, max_value=0.95))
def test_property_partial_solvers_agree(p, coverage):
    """Aggregated partial ILP stays exact: matches B&B, never beats it."""
    need = p.required_count(coverage)
    exact_ilp = ilp_cover(p, coverage=coverage)
    exact_bb = branch_and_bound_cover(p, coverage=coverage)
    heur = greedy_cover(p, coverage=coverage)
    for chosen in (exact_ilp, exact_bb, heur):
        assert len(p.covered_by(chosen)) >= need
    assert len(exact_ilp) == len(exact_bb)
    assert len(exact_ilp) <= len(heur)


# ----------------------------------------------------------------------
# Certificate machinery of the rescheduling engine: the lower bound, the
# deterministic greedy core, and the warm-started presolve must stay
# sound on arbitrary problems — they are what lets an incremental
# re-solve skip the ILP without ever changing the answer.
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(random_problems())
def test_property_bound_never_exceeds_optimum(p):
    """The certificate is sound: bound <= exact optimum, and >= 1."""
    from repro.scheduling.setcover import independent_rows_bound_matrix

    bound = independent_rows_bound_matrix(p.matrix)
    assert 1 <= bound <= len(branch_and_bound_cover(p))


class TestGreedyMasks:
    """The greedy core on rows written as bit masks."""

    def test_tie_break_prefers_lowest_index(self):
        # Subsets 0 and 1 offer the same gain; the lowest index must win
        # regardless of order.
        assert greedy_cover_rows(masks_to_matrix([0b011, 0b011, 0b100], 3),
                                 3) == [0, 2]
        assert greedy_cover_rows(masks_to_matrix([0b100, 0b011, 0b011], 3),
                                 3) == [0, 1]

    def test_need_short_circuits(self):
        assert greedy_cover_rows(masks_to_matrix([0b11, 0b100], 3),
                                 2) == [0]

    def test_infeasible_raises(self):
        with pytest.raises(RuntimeError, match="stalled"):
            greedy_cover_rows(masks_to_matrix([0b01], 2), 2)


def _greedy_reference(subsets, need: int) -> list[int]:
    """Greedy from its definition, on frozensets: take the subset with
    the most new elements, the lowest index on ties, until ``need``
    elements are covered."""
    covered: set = set()
    chosen: list[int] = []
    while len(covered) < need:
        gains = [len(s - covered) for s in subsets]
        j = gains.index(max(gains))
        assert gains[j], "the union holds every element"
        chosen.append(j)
        covered |= subsets[j]
    return sorted(chosen)


@pytest.mark.parametrize("bitwise_count", [True, False],
                         ids=["bitwise_count", "swar"])
@settings(max_examples=40, deadline=None)
@given(drawn=random_subsets(),
       coverage=st.sampled_from([1.0, 0.8, 0.5, 0.3]))
def test_property_greedy_matches_definition(bitwise_count, drawn, coverage):
    """``greedy_cover`` over the union of the subsets equals the
    frozenset greedy, under both popcount paths (the SWAR fallback
    stands in for numpy without ``bitwise_count``)."""
    _n, subsets = drawn
    p = CoverProblem.from_sets(subsets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitset, "_HAS_BITWISE_COUNT", bitwise_count)
        assert (greedy_cover(p, coverage=coverage)
                == _greedy_reference(subsets, p.required_count(coverage)))


@settings(max_examples=40, deadline=None)
@given(random_problems(), random_problems())
def test_property_warm_presolve_lossless_even_when_stale(p_prev, p_new):
    """Witnesses from an unrelated problem never change the optimum.

    The rescheduling engine replays dominance witnesses from the previous
    delta; the warm presolve re-verifies each on the new masks, so even a
    deliberately mismatched witness list (here: from an independently
    drawn problem) must leave the reduction lossless — also after it has
    passed through a second warm presolve, which forwards the witnesses
    that held beside its own.
    """
    red = presolve_cover(p_prev)
    for p in (p_new, p_prev):
        red = presolve_cover_warm(p, red)
        chosen = solve_reduction(red)
        assert p.covered_by(chosen) >= p.universe
        assert len(chosen) == len(branch_and_bound_cover(p))
        assert set(red.replayed) <= set(red.witnesses)


@settings(max_examples=40, deadline=None)
@given(random_problems())
def test_property_warm_presolve_self_witness_matches_cold(p):
    """Replaying a problem's own witnesses reproduces the cold reduction's
    optimum (the steady-state path of an unchanged delta), and every
    witness holds, so all of them go on to the next re-solve."""
    cold = presolve_cover(p)
    warm = presolve_cover_warm(p, cold)
    assert len(solve_reduction(warm)) == len(solve_reduction(cold))
    assert warm.dominators == ()
    assert warm.witnesses == cold.witnesses
    assert warm.forced == cold.forced
    assert warm.stats["warm_dropped_columns"] == (
        cold.stats["dominated_columns"] - warm.stats["dominated_columns"])


# ----------------------------------------------------------------------
# Element dominance of the warm exact rung
# ----------------------------------------------------------------------
def _minimal_reference(subsets, elements) -> set[int]:
    """Minimal elements by definition: ``e`` stays unless another
    element's covering set is a proper subset of ``e``'s, or equals it
    at a lower element."""
    sig = {e: frozenset(j for j, s in enumerate(subsets) if e in s)
           for e in elements}
    return {e for e in elements
            if not any(sig[f] < sig[e] or (sig[f] == sig[e] and f < e)
                       for f in elements)}


def _minimal_of(subsets, n_elements) -> set[int]:
    incidence = np.zeros((len(subsets), n_elements), dtype=bool)
    for j, s in enumerate(subsets):
        incidence[j, sorted(s)] = True
    rows = pack_bits(incidence)
    covered = union_row(rows)
    kept = minimal_elements(rows, covered)
    assert not (kept & ~covered).any()
    return set(row_bits(kept).tolist())


@settings(max_examples=60, deadline=None)
@given(random_subsets())
def test_property_minimal_elements_match_definition(drawn):
    n_elements, subsets = drawn
    covered = set().union(*subsets)
    assert (_minimal_of(subsets, n_elements)
            == _minimal_reference(subsets, covered))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimal_elements_over_several_words(seed):
    """70 columns and 150 elements: signatures and their complements
    span two words, and most elements extend a few shared signatures."""
    rng = np.random.default_rng(seed)
    n_cols, n_elements = 70, 150
    bases = rng.random((12, n_cols)) < 0.08
    incidence = (bases[rng.integers(12, size=n_elements)]
                 | (rng.random((n_elements, n_cols)) < 0.02)).T
    subsets = [frozenset(np.flatnonzero(col).tolist()) for col in incidence]
    covered = set().union(*subsets)
    want = _minimal_reference(subsets, covered)
    assert 0 < len(want) < len(covered)
    assert _minimal_of(subsets, n_elements) == want
    # The warm exact rung reaches HiGHS here, with the smaller model.
    p = CoverProblem.from_sets([s for s in subsets if s])
    red = presolve_cover(p)
    chosen = solve_reduction(red, cuts=True)
    assert red.stats["dominated_rows"] > 0
    assert p.covered_by(chosen) >= p.universe
    assert len(chosen) == len(ilp_cover(p))


@settings(max_examples=40, deadline=None)
@given(random_problems())
def test_property_warm_exact_rung_is_exact(p):
    """The rung with the incumbent cut and element dominance returns a
    cover of the universe of the optimal cardinality."""
    red = presolve_cover(p)
    chosen = solve_reduction(red, cuts=True)
    assert p.covered_by(chosen) >= p.universe
    assert len(chosen) == len(branch_and_bound_cover(p))
