"""The packed fault×pattern kernel of BitParallelSimulator vs the seed walk.

The packed kernel (``stuck_at_detect_masks``) must reproduce the
single-fault walk ``stuck_at_detect_mask`` for every fault, across word
and byte boundaries, chunk boundaries and care masks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.patterns import random_test_set
from repro.atpg.transition import transition_fault_list
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.simulation import parallel_sim
from repro.simulation.parallel_sim import BitParallelSimulator


def _workload(circuit, count, seed=3):
    ts = random_test_set(circuit, count, seed=seed)
    vectors = [p.capture for p in ts]
    sim = BitParallelSimulator(circuit)
    saf = [f.as_stuck_at() for f in transition_fault_list(circuit)]
    return sim, vectors, saf


def _sites(faults):
    return [(f.site.gate, f.site.pin, f.value) for f in faults]


def _graded(circuit, count, seed=3, care=None):
    """(kernel masks, single-fault reference masks) for every fault."""
    sim, vectors, saf = _workload(circuit, count, seed=seed)
    words, width = sim.pack_vectors(vectors)
    good = sim.simulate(words, width)
    got = sim.stuck_at_detect_masks(good, _sites(saf), width, care)
    want = [sim.stuck_at_detect_mask(good, f, width) for f in saf]
    if care is not None:
        want = [w & c for w, c in zip(want, care)]
    return got, want


class TestMatrixVsBigInt:
    @pytest.mark.parametrize("count", [3, 70])
    def test_stuck_at_detection_matches(self, s27, count):
        got, want = _graded(s27, count)
        assert got == want
        assert any(got)  # the workload is not vacuous

    def test_batch_size_does_not_change_results(self, small_generated,
                                                monkeypatch):
        """One fault per chunk, a few per chunk, all in one chunk."""
        for bits in (8, 64, 2 ** 20):
            monkeypatch.setattr(parallel_sim, "CHUNK_BITS", bits)
            got, want = _graded(small_generated, 11, seed=9)
            assert got == want, bits

    def test_empty_fault_list(self, s27):
        sim, vectors, _ = _workload(s27, 4)
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        assert sim.stuck_at_detect_masks(good, [], width) == []

    def test_generated_circuit_matches(self, small_generated):
        got, want = _graded(small_generated, 13, seed=4)
        assert got == want


class TestPackedKernel:
    def test_spans_several_chunks(self, small_generated):
        # 130 patterns → 17-byte blocks → 120 faults per 2**14-bit chunk;
        # the generated circuit has several hundred candidate faults.
        per_chunk = parallel_sim.CHUNK_BITS // (17 * 8)
        got, want = _graded(small_generated, 130, seed=2)
        assert got == want
        assert sum(1 for m in got if m) > 2 * per_chunk

    @pytest.mark.parametrize("count", [1, 5, 9, 63, 65])
    def test_block_padding(self, small_generated, count):
        """Pattern counts off a byte boundary leave padding bits in each
        block; they must never leak into a neighbour's mask."""
        got, want = _graded(small_generated, count, seed=count)
        assert got == want
        assert all(m < (1 << count) for m in got)

    def test_zero_candidates(self, s27):
        sim, vectors, saf = _workload(s27, 6)
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        assert sim.stuck_at_detect_masks(
            good, _sites(saf), width, [0] * len(saf)) == [0] * len(saf)

    def test_source_site_rejected(self, s27):
        sim, vectors, _ = _workload(s27, 2)
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        with pytest.raises(ValueError, match="not a combinational gate"):
            sim.stuck_at_detect_masks(good, [(s27.sources()[0], -1, 1)],
                                      width)

    def test_care_masks(self, small_generated):
        n = len(transition_fault_list(small_generated))
        care = [(0x5A5A * (i + 1)) & 0xFFF for i in range(n)]
        got, want = _graded(small_generated, 12, seed=6, care=care)
        assert got == want


_CIRCUITS: dict[int, object] = {}


def _circuit_for(seed):
    if seed not in _CIRCUITS:
        _CIRCUITS[seed] = generate_circuit(CircuitProfile(
            name=f"k{seed}", n_gates=40, n_ffs=6, n_inputs=6, n_outputs=3,
            depth=6, seed=seed, endpoint_side_gates=seed % 2))
    return _CIRCUITS[seed]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 15), st.integers(1, 90), st.integers(0, 2**16))
def test_kernel_matches_single_fault_walk(seed, count, pattern_seed):
    got, want = _graded(_circuit_for(seed), count, seed=pattern_seed)
    assert got == want
