"""Lightweight wall-clock stage profiling for the hot simulation paths.

A :class:`StageTimer` accumulates elapsed seconds (and hit counts) under
named stages.  The fault-simulation engine feeds it the per-stage split —
``pregrade`` / ``base_sim`` / ``faulty_sim`` / ``intervals`` — and
``bench/run.py`` reports the splits as per-layer times (see
``bench/README.md``).

Nested :meth:`StageTimer.stage` contexts are tracked hierarchically: an
inner block is credited under the path key ``outer/inner`` and its elapsed
time is *subtracted* from the outer block's credit, so :meth:`total` always
equals true wall clock no matter how deeply (or re-entrantly) contexts
nest.  Plain :meth:`add` calls are unaffected — they credit exactly what
the caller measured.

The timer is opt-in and costs two ``perf_counter()`` calls per measured
block; hot loops guard on ``timer is not None`` so the default path pays
nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class StageTimer:
    """Accumulates wall-clock time per named stage."""

    __slots__ = ("totals", "counts", "_stack")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        # Active stage() frames: [name, child_elapsed_seconds].
        self._stack: list[list] = []

    def __getstate__(self) -> dict[str, object]:
        # Active frames are meaningless across processes; ship totals only.
        return {"totals": self.totals, "counts": self.counts}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.totals = state["totals"]  # type: ignore[assignment]
        self.counts = state["counts"]  # type: ignore[assignment]
        self._stack = []

    def add(self, stage: str, seconds: float, *, count: int = 1) -> None:
        """Credit ``seconds`` (and ``count`` hits) to ``stage``."""
        self.totals[stage] = self.totals.get(stage, 0.0) + seconds
        self.counts[stage] = self.counts.get(stage, 0) + count

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager measuring one block.

        Nested (or re-entrant) contexts record under hierarchical
        ``parent/child`` keys and credit each frame with its *self* time
        only, so summing all stages never double-counts wall clock.
        """
        t0 = time.perf_counter()
        frame = [name, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            label = "/".join(f[0] for f in self._stack)
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
            self.add(label, elapsed - frame[1])

    def total(self, stage: str | None = None) -> float:
        """Seconds spent in ``stage`` (all stages when None)."""
        if stage is None:
            return sum(self.totals.values())
        return self.totals.get(stage, 0.0)

    def merge(self, other: "StageTimer") -> None:
        """Fold another timer's stages into this one."""
        for stage, seconds in other.totals.items():
            self.add(stage, seconds, count=other.counts.get(stage, 0))

    def as_dict(self) -> dict[str, dict[str, float]]:
        """JSON-ready ``{stage: {"seconds": s, "count": n}}`` mapping."""
        return {
            stage: {"seconds": self.totals[stage],
                    "count": self.counts.get(stage, 0)}
            for stage in sorted(self.totals)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.totals.items()))
        return f"StageTimer({inner})"
