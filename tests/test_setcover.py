"""Tests for the set-covering solvers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduling.setcover import (
    CoverProblem,
    branch_and_bound_cover,
    greedy_cover,
    ilp_cover,
    presolve_cover,
)


def problem(*subsets):
    return CoverProblem(subsets=[frozenset(s) for s in subsets])


class TestCoverProblem:
    def test_universe_inferred(self):
        p = problem({1, 2}, {3})
        assert p.universe == frozenset({1, 2, 3})

    def test_uncoverable_universe_rejected(self):
        with pytest.raises(ValueError, match="not coverable"):
            CoverProblem(subsets=[frozenset({1})],
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
            CoverProblem(subsets=[frozenset({1})],
                         universe=frozenset({1, 2, 4, 3}))
        assert "3 universe elements not coverable: [2, 3, 4]" in str(exc.value)

    def test_covered_by(self):
        p = problem({1, 2}, {2, 3})
        assert p.covered_by([1]) == frozenset({2, 3})

    def test_from_matrix_drops_uncovered_elements(self):
        from repro.utils.bitset import pack_sets

        # Element bit 1 ("b") is in no row: the packed view must equal the
        # frozenset construction over the covered universe.
        elements = ("a", "b", "c", "d")
        rows = [{0, 2}, {2, 3}, {3}]
        subsets = [frozenset(elements[b] for b in r) for r in rows]
        built = CoverProblem.from_matrix(pack_sets(rows, 4), elements,
                                         subsets)
        ref = CoverProblem(subsets=subsets)
        assert built.universe == ref.universe == frozenset("acd")
        a, b = built.packed(), ref.packed()
        assert (a.elements, a.masks, a.full) == (b.elements, b.masks, b.full)
        assert (a.matrix == b.matrix).all()
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
        assert ilp_cover(CoverProblem(subsets=[])) == []


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
def random_problems(draw):
    n_elements = draw(st.integers(1, 10))
    n_subsets = draw(st.integers(1, 8))
    subsets = []
    for _ in range(n_subsets):
        s = draw(st.sets(st.integers(0, n_elements - 1), min_size=1))
        subsets.append(frozenset(s))
    # Guarantee coverability.
    subsets.append(frozenset(range(n_elements)))
    return CoverProblem(subsets=subsets)


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


@settings(max_examples=40, deadline=None)
@given(random_problems())
def test_property_matrix_construction_same_reduction(p):
    """Building from the packed rows reproduces the frozenset problem."""
    pk = p.packed()
    built = CoverProblem.from_matrix(pk.matrix, pk.elements, p.subsets)
    assert built.universe == p.universe
    assert built.packed().masks == pk.masks
    assert presolve_cover(built) == presolve_cover(p)
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
# Certificate machinery of the rescheduling engine: lower bounds, the
# deterministic greedy core, and the warm-started presolve must stay
# sound on arbitrary problems — they are what lets an incremental
# re-solve skip the ILP without ever changing the answer.
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(random_problems())
def test_property_bound_variants_agree(p):
    """Int-mask, matrix and masks-wrapper bounds are the same function."""
    from repro.scheduling.setcover import (
        independent_rows_bound,
        independent_rows_bound_masks,
        independent_rows_bound_matrix,
    )
    from repro.utils.bitset import masks_to_matrix

    packed = p.packed()
    n_bits = len(packed.elements)
    scalar = independent_rows_bound(packed.masks, packed.full)
    assert scalar == independent_rows_bound_masks(packed.masks, n_bits)
    assert scalar == independent_rows_bound_matrix(
        masks_to_matrix(packed.masks, n_bits))


@settings(max_examples=50, deadline=None)
@given(random_problems())
def test_property_bound_never_exceeds_optimum(p):
    """The certificate is sound: bound <= exact optimum, and >= 1."""
    from repro.scheduling.setcover import independent_rows_bound

    packed = p.packed()
    bound = independent_rows_bound(packed.masks, packed.full)
    assert 1 <= bound <= len(branch_and_bound_cover(p))


class TestGreedyMasks:
    def test_tie_break_prefers_lowest_index(self):
        from repro.scheduling.setcover import greedy_cover_masks

        # Subsets 0 and 1 offer the same gain; the deterministic
        # (gain, -index) rank must pick subset 0 regardless of order.
        assert greedy_cover_masks([0b011, 0b011, 0b100], 0b111) == [0, 2]
        assert greedy_cover_masks([0b100, 0b011, 0b011], 0b111) == [0, 1]

    def test_need_short_circuits(self):
        from repro.scheduling.setcover import greedy_cover_masks

        assert greedy_cover_masks([0b11, 0b100], 0b111, need=2) == [0]

    def test_infeasible_raises(self):
        from repro.scheduling.setcover import greedy_cover_masks

        with pytest.raises(RuntimeError, match="stalled"):
            greedy_cover_masks([0b01], 0b11)


@settings(max_examples=40, deadline=None)
@given(random_problems(), random_problems())
def test_property_warm_presolve_lossless_even_when_stale(p_prev, p_new):
    """Witnesses from an unrelated problem never change the optimum.

    The rescheduling engine replays dominance witnesses from the previous
    delta; the warm presolve re-verifies each on the new masks, so even a
    deliberately mismatched witness list (here: from an independently
    drawn problem) must leave the reduction lossless.
    """
    from repro.scheduling.setcover import (
        presolve_cover,
        presolve_cover_warm,
        solve_reduction,
    )

    prev = presolve_cover(p_prev)
    warm = presolve_cover_warm(p_new, prev)
    chosen = solve_reduction(warm)
    assert p_new.covered_by(chosen) >= p_new.universe
    assert len(chosen) == len(branch_and_bound_cover(p_new))


@settings(max_examples=40, deadline=None)
@given(random_problems())
def test_property_warm_presolve_self_witness_matches_cold(p):
    """Replaying a problem's own witnesses reproduces the cold reduction's
    optimum (the steady-state path of an unchanged delta)."""
    from repro.scheduling.setcover import (
        presolve_cover,
        presolve_cover_warm,
        solve_reduction,
    )

    cold = presolve_cover(p)
    warm = presolve_cover_warm(p, cold)
    assert len(solve_reduction(warm)) == len(solve_reduction(cold))
