"""Tests for the packed bitset kernels (`repro.utils.bitset`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import bitset
from repro.utils.bitset import (
    dominated_rows,
    first_superset,
    mask_bits,
    masks_to_matrix,
    matrix_to_masks,
    num_words,
    pack_bits,
    popcount,
    row_bits,
    unpack_bits,
    zeros,
)


def pack_sets(sets, n_bits: int) -> np.ndarray:
    """Bit matrix with one row per collection of bit positions."""
    return masks_to_matrix([sum(1 << b for b in set(s)) for s in sets],
                           n_bits)


class TestShapes:
    def test_num_words(self):
        assert num_words(0) == 1
        assert num_words(1) == 1
        assert num_words(64) == 1
        assert num_words(65) == 2
        assert num_words(128) == 2
        assert num_words(129) == 3

    def test_zeros(self):
        m = zeros(3, 70)
        assert m.shape == (3, 2)
        assert m.dtype == np.uint64
        assert not m.any()


class TestPackUnpack:
    def test_roundtrip_small(self):
        sets = [{0, 3, 5}, set(), {63}]
        m = pack_sets(sets, 64)
        assert [set(row_bits(r)) for r in m] == [set(s) for s in sets]

    def test_roundtrip_multiword(self):
        # Bits straddling the 64-bit word boundary must land correctly.
        sets = [{0, 63, 64, 127, 130}, {64}, {129, 130}]
        m = pack_sets(sets, 131)
        assert m.shape == (3, 3)
        assert row_bits(m[0]).tolist() == [0, 63, 64, 127, 130]
        assert [set(row_bits(r)) for r in m] == [set(s) for s in sets]


class TestPopcount:
    def test_matches_int_bit_count(self):
        sets = [{0, 1, 2}, {5, 64, 100}, set(), set(range(70))]
        m = pack_sets(sets, 101)
        assert popcount(m).tolist() == [3, 3, 0, 70]

    def test_swar_fallback_agrees(self, monkeypatch):
        monkeypatch.setattr(bitset, "_HAS_BITWISE_COUNT", False)
        rng = np.random.default_rng(7)
        m = rng.integers(0, 2**63, size=(8, 3), dtype=np.uint64)
        expected = [sum(int(w).bit_count() for w in row) for row in m]
        assert popcount(m).tolist() == expected


class TestMaskConversions:
    def test_matrix_to_masks_roundtrip(self):
        sets = [{0, 66}, {1, 2, 3}, {127}]
        m = pack_sets(sets, 128)
        masks = matrix_to_masks(m)
        assert [mask_bits(x) for x in masks] == [sorted(s) for s in sets]
        back = masks_to_matrix(masks, 128)
        assert np.array_equal(back, m)

    def test_mask_bits(self):
        assert mask_bits(0) == []
        assert mask_bits(0b1011) == [0, 1, 3]
        assert mask_bits(1 << 200) == [200]


class TestSubsetAndDominance:
    def test_dominated_rows_drops_subsets_and_duplicates(self):
        m = pack_sets([{0, 1, 2}, {0, 1}, {0, 1, 2}, {3}], 64)
        # Scan order = given order: row 1 ⊂ row 0, row 2 == row 0.
        assert dominated_rows(m, [0, 1, 2, 3]) == [0, 3]

    def test_dominated_rows_order_decides_winner(self):
        m = pack_sets([{0, 1}, {0, 1}], 64)
        assert dominated_rows(m, [1, 0]) == [1]
        assert dominated_rows(m, [0, 1]) == [0]

    def test_dominated_rows_empty(self):
        assert dominated_rows(zeros(0, 10), []) == []

    def test_first_superset_follows_candidate_order(self):
        m = pack_sets([{0, 1, 2}, {0, 1}, {0, 1, 2, 3}, {5}], 64)
        assert first_superset(m, [1, 3], [0, 2]).tolist() == [0, -1]
        assert first_superset(m, [1, 3], [2, 0]).tolist() == [2, -1]
        assert first_superset(m, [], [0]).tolist() == []


bit_sets = st.sets(st.integers(0, 140), max_size=12)


@given(st.lists(bit_sets, min_size=1, max_size=8))
def test_property_pack_mask_roundtrip(sets):
    n_bits = 141
    m = pack_sets(sets, n_bits)
    masks = matrix_to_masks(m)
    for s, mask, bits in zip(sets, masks, map(row_bits, m)):
        assert mask == sum(1 << b for b in s)
        assert set(bits) == s
    assert np.array_equal(masks_to_matrix(masks, n_bits), m)
    assert popcount(m).tolist() == [len(s) for s in sets]


@given(st.lists(bit_sets, min_size=1, max_size=8))
def test_property_dominated_rows_matches_set_semantics(sets):
    m = pack_sets(sets, 141)
    kept = dominated_rows(m, list(range(len(sets))))
    # No kept row is a subset of an earlier-kept row; every dropped row is.
    for pos, idx in enumerate(kept):
        assert not any(sets[idx] <= sets[k] for k in kept[:pos])
    for idx in set(range(len(sets))) - set(kept):
        assert any(sets[idx] <= sets[k] for k in kept if k < idx)


@given(st.lists(bit_sets, min_size=1, max_size=8))
def test_property_unpack_pack_roundtrip(sets):
    m = pack_sets(sets, 141)
    bits = unpack_bits(m, 141)
    assert bits.dtype == bool and bits.shape == (len(sets), 141)
    for s, row in zip(sets, bits):
        assert set(np.flatnonzero(row).tolist()) == s
    assert np.array_equal(pack_bits(bits), m)


@given(st.lists(bit_sets, min_size=2, max_size=8))
def test_property_first_superset_is_first_containing(sets):
    m = pack_sets(sets, 141)
    half = len(sets) // 2
    rows, cands = list(range(half)), list(range(len(sets) - 1, half - 1, -1))
    for r, got in zip(rows, first_superset(m, rows, cands).tolist()):
        want = next((k for k in cands if sets[r] <= sets[k]), -1)
        assert got == want
