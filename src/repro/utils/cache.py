"""Small bounded LRU mapping with hit/miss accounting.

The scheduling layer memoizes expensive derived artifacts (observable
ranges + discretized candidate sets on :class:`DetectionData`, solved
step-2 covers in the rescheduling engine) keyed by potentially unbounded
tuples — every distinct ``(targets, configs, window)`` query used to grow
the dict forever.  :class:`LruCache` bounds those memos to the most
recently used entries and counts hits/misses/evictions so ``repro flow
--verbose`` can show how well the memoization works on a given workload.

Deliberately minimal: not thread-safe (all users are per-process,
per-object memos), no TTL, plain ``OrderedDict`` recency bookkeeping.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator


class LruCache:
    """Bounded mapping evicting the least-recently-used entry.

    Supports the subset of the ``dict`` protocol the memo call sites use
    (``get`` / ``[]=`` / ``in`` / ``len`` / ``clear``), so a plain dict
    field can be swapped for a bounded one without touching callers.
    ``get`` and ``[]`` refresh recency; ``stats()`` reports counters
    accumulated since construction (``clear`` empties the entries but
    keeps the counters — a workload replay wants the totals).
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return default

    def __getitem__(self, key: Hashable) -> Any:
        if key not in self._data:
            self.misses += 1
            raise KeyError(key)
        self._data.move_to_end(key)
        self.hits += 1
        return self._data[key]

    def __setitem__(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def clear(self) -> None:
        """Drop all entries; counters survive (see class docstring)."""
        self._data.clear()

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self._data),
                "maxsize": self.maxsize}
