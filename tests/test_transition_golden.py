"""Golden equivalence: matrix ATPG engine vs the retained seed reference.

The packed fault×pattern grading engine (``engine="matrix"``) must be a
pure performance change: bit-identical per-fault detect masks and an
identical compacted test set, fault ledger and coverage for every circuit
and seed.  These tests pin that contract (``tests/test_atpg_golden.py``
re-checks it at suite scale).
"""

from __future__ import annotations

import pytest

from repro.atpg.patterns import random_test_set
from repro.atpg.transition import (
    detect_masks,
    generate_transition_tests,
    transition_fault_list,
)
from repro.circuits.library import suite_circuit
from repro.simulation.parallel_sim import BitParallelSimulator


def _pairs(test_set):
    return [(p.launch, p.capture) for p in test_set]


def _assert_same_result(mat, ref):
    assert _pairs(mat.test_set) == _pairs(ref.test_set)
    assert mat.detected == ref.detected
    assert mat.untestable == ref.untestable
    assert mat.aborted == ref.aborted
    assert mat.coverage == ref.coverage


class TestDetectMasks:
    @pytest.mark.parametrize("count", [1, 5, 70])  # 70 → multi-word masks
    def test_bit_identical_masks_s27(self, s27, count):
        ts = random_test_set(s27, count, seed=3)
        sim = BitParallelSimulator(s27)
        faults = transition_fault_list(s27)
        mat = detect_masks(s27, sim, ts, faults, seed=3, engine="matrix")
        ref = detect_masks(s27, sim, ts, faults, seed=3, engine="reference")
        assert mat == ref
        assert any(mat.values())  # the workload is not vacuous

    def test_bit_identical_masks_generated(self, small_generated):
        ts = random_test_set(small_generated, 9, seed=11)
        sim = BitParallelSimulator(small_generated)
        faults = transition_fault_list(small_generated)
        mat = detect_masks(small_generated, sim, ts, faults, seed=11,
                           engine="matrix")
        ref = detect_masks(small_generated, sim, ts, faults, seed=11,
                           engine="reference")
        assert mat == ref

    def test_empty_test_set(self, s27):
        sim = BitParallelSimulator(s27)
        faults = transition_fault_list(s27)
        ts = random_test_set(s27, 1, seed=0).subset([])
        assert detect_masks(s27, sim, ts, faults, engine="matrix") == \
            {f: 0 for f in faults}

    def test_unknown_engine_rejected(self, s27):
        sim = BitParallelSimulator(s27)
        with pytest.raises(ValueError, match="unknown engine"):
            detect_masks(s27, sim, random_test_set(s27, 2, seed=0),
                         transition_fault_list(s27), engine="turbo")


class TestGenerateEquivalence:
    @pytest.mark.parametrize("fixture", ["c17", "s27", "small_generated"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_identical_atpg_outcome(self, fixture, seed, request):
        circuit = request.getfixturevalue(fixture)
        mat = generate_transition_tests(circuit, seed=seed, engine="matrix")
        ref = generate_transition_tests(circuit, seed=seed,
                                        engine="reference")
        _assert_same_result(mat, ref)

    def test_identical_without_compaction(self, s27):
        mat = generate_transition_tests(s27, seed=5, compact=False,
                                        engine="matrix")
        ref = generate_transition_tests(s27, seed=5, compact=False,
                                        engine="reference")
        _assert_same_result(mat, ref)

    def test_identical_on_scaled_suite_circuit(self):
        circuit = suite_circuit("s9234", scale=0.3)
        mat = generate_transition_tests(circuit, seed=7, engine="matrix")
        ref = generate_transition_tests(circuit, seed=7, engine="reference")
        _assert_same_result(mat, ref)

    def test_unknown_engine_rejected(self, s27):
        with pytest.raises(ValueError, match="unknown engine"):
            generate_transition_tests(s27, engine="bogus")
