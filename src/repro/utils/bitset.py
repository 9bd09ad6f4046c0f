"""Packed bitset kernels for the scheduling pipeline (Sec. IV).

The schedule optimizer reasons about *sets of target faults* — which faults
a candidate period detects, which a (pattern, configuration) pair covers.
The seed implementation carried those sets as Python ``frozenset``s, making
every union/subset test an O(|set|) hash walk.  This module packs each set
into ``ceil(n/64)`` numpy ``uint64`` words (one bit per element) so that

* subset tests become word-wise ``a & ~b == 0`` reductions,
* cardinalities become hardware popcounts,
* dominance pruning over *m* candidate rows is a vectorized
  ``(row & ~matrix) == 0`` sweep instead of m² frozenset comparisons.

The bit matrix (``np.ndarray`` of shape ``(rows, words)``, dtype
``uint64``) is the one set representation of the scheduling pipeline:
discretization, the set-cover presolve and ILP model build, the greedy
and fault-dropping loops and the rescheduler's certificate ladder all
pass rows around.  A sequential loop scores all rows at once — one
``popcount(rows & uncovered)`` per pick — which on the scheduler's
matrices costs no more than the per-row int operations it replaced,
without converting every problem to ints first.

``unpack_bits`` / ``pack_bits`` convert between a bit matrix and its
boolean incidence (rows × elements).  ``matrix_to_masks`` /
``masks_to_matrix`` convert to and from Python int masks, for callers
outside the scheduler (compaction) and the branch-and-bound test
oracle.  All use the same convention: element *i* lives in word
``i >> 6``, bit ``i & 63``, i.e. ints are the little-endian
concatenation of the words.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

#: Bits per word of the packed representation.
WORD_BITS = 64

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def num_words(n_bits: int) -> int:
    """Words needed to hold ``n_bits`` bits (at least one)."""
    return max(1, (n_bits + WORD_BITS - 1) // WORD_BITS)


def zeros(n_rows: int, n_bits: int) -> np.ndarray:
    """Empty bit matrix for ``n_rows`` sets over ``n_bits`` elements."""
    return np.zeros((n_rows, num_words(n_bits)), dtype=np.uint64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a bit matrix (shape ``(rows,)``)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    # SWAR fallback for numpy < 2.0 (no vectorized popcount).
    v = words.copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h = np.uint64(0x0101010101010101)
    v = v - ((v >> np.uint64(1)) & m1)
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    v = (v * h) >> np.uint64(56)
    return v.sum(axis=-1, dtype=np.int64)


def unpack_bits(matrix: np.ndarray, n_bits: int) -> np.ndarray:
    """Boolean incidence ``(rows, n_bits)`` of a bit matrix."""
    bits = np.unpackbits(np.ascontiguousarray(matrix).view(np.uint8),
                         axis=1, count=n_bits, bitorder="little")
    return bits.view(bool)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unpack_bits`: bit matrix of a boolean incidence."""
    n_rows, n_bits = bits.shape
    out = zeros(n_rows, n_bits)
    packed = np.packbits(bits, axis=1, bitorder="little")
    out.view(np.uint8)[:, :packed.shape[1]] = packed
    return out


def union_row(rows: np.ndarray) -> np.ndarray:
    """Bitwise OR of the rows of a bit matrix (all zero for no rows)."""
    return np.bitwise_or.reduce(rows, axis=0)


def row_bits(row: np.ndarray) -> np.ndarray:
    """Set bit positions of one packed row, ascending."""
    bits = np.unpackbits(row.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits)


#: Soft cap (bytes) of the temporary in one dominated_rows chunk test.
_DOM_CHUNK_BYTES = 8 << 20


def dominated_rows(matrix: np.ndarray, order: Sequence[int]) -> list[int]:
    """Indices (into ``matrix``) of rows *not* dominated, scanning ``order``.

    A row is dominated when its bits are a subset of an earlier-kept row's
    bits (ties included: a duplicate of a kept row is dropped).  ``order``
    fixes the priority — earlier entries win — and the returned kept list
    preserves that scan order.

    Implementation: rows are screened in chunks against the kept stack
    with one vectorized subset test per chunk (equivalent to the per-row
    scan: a row that is a subset of any *earlier* row is a subset of an
    earlier *kept* row by transitivity of ⊆, so stack survivors only need
    comparing against survivors added within their own chunk).
    """
    kept: list[int] = []
    n = len(order)
    if matrix.shape[0] == 0 or n == 0:
        return kept
    w = matrix.shape[1]
    order = np.asarray(order, dtype=np.int64)
    rows_all = matrix[order]
    # One-word signature (OR-fold of the words): row_i ⊆ row_j holds per
    # word, so sig_i ⊆ sig_j is necessary — a cheap screen that discards
    # almost every pair before the full-width test.  When the fold
    # saturates (rows with bits spread over many words) the screen stops
    # discriminating, so fall back to the dense broadcast test outright.
    if w > 1:
        sigs_all = np.bitwise_or.reduce(rows_all, axis=1)
        use_sigs = float(popcount(sigs_all[:, None]).mean()) <= 48.0
    else:
        sigs_all = rows_all[:, 0]
        use_sigs = False
    stack = np.empty((n, w), dtype=np.uint64)
    stack_sigs = np.empty(n, dtype=np.uint64)
    k = 0
    if use_sigs:
        chunk = int(min(1024, max(32, _DOM_CHUNK_BYTES // max(1, n * 8))))
    else:
        chunk = int(min(512, max(1, _DOM_CHUNK_BYTES
                                 // max(1, n * w * 8))))
    for a in range(0, n, chunk):
        rows = rows_all[a:a + chunk]
        sigs = sigs_all[a:a + chunk]
        local = np.arange(rows.shape[0])
        if k:
            dominated = np.zeros(rows.shape[0], dtype=bool)
            if use_sigs:
                # Candidate pairs by signature, then full-width
                # verification of only those pairs.
                ci, cj = np.nonzero(
                    ~(sigs[:, None] & ~stack_sigs[None, :k]).astype(bool))
                if ci.size:
                    sub = ~np.any(rows[ci] & ~stack[cj], axis=1)
                    dominated[ci[sub]] = True
            else:
                dominated = np.any(
                    ~np.any(rows[:, None, :] & ~stack[None, :k, :],
                            axis=2), axis=1)
            rows = rows[~dominated]
            sigs = sigs[~dominated]
            local = local[~dominated]
        if rows.shape[0] > 1:
            # Within-chunk: subset of any strictly-earlier survivor (the
            # same transitivity argument collapses kept-only to earlier).
            dominated = np.zeros(rows.shape[0], dtype=bool)
            if use_sigs:
                ci, cj = np.nonzero(
                    ~(sigs[:, None] & ~sigs[None, :]).astype(bool))
                earlier = cj < ci
                ci, cj = ci[earlier], cj[earlier]
                if ci.size:
                    sub = ~np.any(rows[ci] & ~rows[cj], axis=1)
                    dominated[ci[sub]] = True
            else:
                sub = ~np.any(rows[:, None, :] & ~rows[None, :, :], axis=2)
                dominated = np.tril(sub, k=-1).any(axis=1)
            rows = rows[~dominated]
            local = local[~dominated]
        m = rows.shape[0]
        if m:
            stack[k:k + m] = rows
            stack_sigs[k:k + m] = sigs_all[a + local]
            k += m
            kept.extend((order[a + local]).tolist())
    return kept


def first_superset(matrix: np.ndarray, rows: Sequence[int],
                   candidates: Sequence[int]) -> np.ndarray:
    """For each of ``rows``, the first entry of ``candidates`` whose row
    contains it (-1 where none does).

    ``rows`` and ``candidates`` index ``matrix``; "first" follows the
    order of ``candidates``.  Chunked like :func:`dominated_rows` so the
    broadcast subset test stays within ``_DOM_CHUNK_BYTES``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.int64)
    out = np.full(rows.shape[0], -1, dtype=np.int64)
    if rows.size == 0 or candidates.size == 0:
        return out
    cand = matrix[candidates]
    k, w = cand.shape
    chunk = int(max(1, _DOM_CHUNK_BYTES // max(1, k * w * 8)))
    for a in range(0, rows.shape[0], chunk):
        sub = ~np.any(matrix[rows[a:a + chunk], None, :] & ~cand[None, :, :],
                      axis=2)
        hit = sub.any(axis=1)
        out[a:a + chunk][hit] = candidates[sub.argmax(axis=1)[hit]]
    return out


def matrix_to_masks(matrix: np.ndarray) -> list[int]:
    """Convert each packed row into a Python int bitmask."""
    if matrix.shape[0] == 0:
        return []
    # little-endian byte view → int.from_bytes per row, no per-bit loop.
    as_bytes = np.ascontiguousarray(matrix).view(np.uint8)
    return [int.from_bytes(as_bytes[r].tobytes(), "little")
            for r in range(matrix.shape[0])]


def masks_to_matrix(masks: Sequence[int], n_bits: int) -> np.ndarray:
    """Inverse of :func:`matrix_to_masks`."""
    nw = num_words(n_bits)
    out = zeros(len(masks), n_bits)
    for r, mask in enumerate(masks):
        out[r] = np.frombuffer(
            mask.to_bytes(nw * 8, "little"), dtype=np.uint64)
    return out


def mask_bits(mask: int) -> list[int]:
    """Set bit positions of a Python int mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class RowSets(Sequence[frozenset]):
    """Read-only sequence of the element set of each row of a bit matrix.

    Bit ``b`` is ``elements[b]``; a row's frozenset is built on first
    access and kept, so callers that read a few rows of a large matrix
    pay for those rows only.
    """

    def __init__(self, matrix: np.ndarray,
                 elements: Sequence[Hashable]) -> None:
        self._matrix = matrix
        self._elements = elements
        self._built: dict[int, frozenset] = {}

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __getitem__(self, j):
        j = range(len(self))[j]
        out = self._built.get(j)
        if out is None:
            out = frozenset(self._elements[b]
                            for b in row_bits(self._matrix[j]))
            self._built[j] = out
        return out

    def __iter__(self):
        return (self[j] for j in range(len(self)))
