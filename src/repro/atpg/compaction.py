"""Static test-set compaction.

Two standard techniques:

* :func:`reverse_order_drop` — reverse-order fault dropping: walk the pattern
  list backwards keeping a pattern only when it detects a fault no
  later-kept pattern detects.  Later (deterministically-targeted) patterns
  tend to detect many random-phase faults, making early patterns redundant.
* :func:`merge_compatible` — greedy X-merging of pattern pairs whose care
  bits do not conflict.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.atpg.patterns import PatternPair, TestSet
from repro.utils.bitset import masks_to_matrix, num_words


def reverse_order_drop(num_patterns: int,
                       fault_masks: Iterable[int]) -> list[int]:
    """Select a detecting subset of pattern indices.

    ``fault_masks`` holds one bitmask per fault: bit ``p`` set iff pattern
    ``p`` detects the fault.  Patterns are considered from last to first; a
    pattern is kept iff some fault is detected by it and by no already-kept
    pattern.  Returns kept indices in ascending order.

    Implementation: the fault masks are packed into a ``(faults, words)``
    bit matrix and transposed into one *fault-index row per pattern*, so
    the reverse scan tracks the set of already-covered **faults** as a
    packed word row — the seed's per-pattern rescan of the whole mask list
    becomes one ``row & ~covered`` word test.
    """
    if num_patterns <= 0:
        return []
    full = (1 << num_patterns) - 1
    masks = [t for m in fault_masks if (t := m & full)]
    if not masks:
        return []
    fault_mat = masks_to_matrix(masks, num_patterns)
    # (faults, patterns) bit plane → transpose → (patterns, fault-words).
    plane = np.unpackbits(fault_mat.view(np.uint8), axis=1,
                          bitorder="little")[:, :num_patterns]
    packed = np.packbits(np.ascontiguousarray(plane.T), axis=1,
                         bitorder="little")
    wf = num_words(len(masks))
    pad = wf * 8 - packed.shape[1]
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    pattern_rows = packed.view(np.uint64)
    covered = np.zeros(wf, dtype=np.uint64)
    kept: list[int] = []
    for p in range(num_patterns - 1, -1, -1):
        row = pattern_rows[p]
        if np.any(row & ~covered):
            kept.append(p)
            covered |= row
    kept.reverse()
    return kept


def merge_compatible(test_set: TestSet) -> TestSet:
    """Greedy pairwise X-merging of compatible pattern pairs.

    Patterns with don't-cares produced by deterministic ATPG are merged when
    their care bits agree; first-fit order keeps the procedure O(n²) worst
    case but near-linear in practice.
    """
    merged: list[PatternPair] = []
    for pattern in test_set:
        for i, existing in enumerate(merged):
            combined = existing.merged_with(pattern)
            if combined is not None:
                merged[i] = combined
                break
        else:
            merged.append(pattern)
    return TestSet.of_width(test_set.width, merged)
