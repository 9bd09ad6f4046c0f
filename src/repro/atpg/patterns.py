"""Test pattern containers.

A transition/delay test is a *pattern pair* ``(v1, v2)``: the launch vector
``v1`` initialises the circuit, the capture vector ``v2`` launches the
transitions at ``t = 0`` whose responses are sampled at the FAST observation
time.  Vectors assign one value per combinational source (primary inputs and
scan flip-flops, in :meth:`Circuit.sources` order); the value ``X = 2``
denotes a don't-care that is filled deterministically before simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.netlist.circuit import Circuit
from repro.simulation.logic import X


@dataclass(frozen=True)
class PatternPair:
    """One launch/capture vector pair over the circuit sources."""

    launch: tuple[int, ...]
    capture: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.launch) != len(self.capture):
            raise ValueError("launch and capture vectors differ in length")
        for vec in (self.launch, self.capture):
            if any(v not in (0, 1, X) for v in vec):
                raise ValueError("pattern values must be 0, 1 or X")

    @property
    def width(self) -> int:
        return len(self.launch)

    @property
    def has_dont_cares(self) -> bool:
        return X in self.launch or X in self.capture

    def filled(self, rng: random.Random) -> "PatternPair":
        """Replace don't-cares with reproducible random values."""
        if not self.has_dont_cares:
            return self
        launch = tuple(rng.randint(0, 1) if v == X else v for v in self.launch)
        capture = tuple(rng.randint(0, 1) if v == X else v for v in self.capture)
        return PatternPair(launch, capture)

    def merged_with(self, other: "PatternPair") -> "PatternPair | None":
        """Bitwise-compatible merge, or None on conflict (static compaction)."""
        if self.width != other.width:
            return None
        launch: list[int] = []
        capture: list[int] = []
        for vec, a_vec, b_vec in ((launch, self.launch, other.launch),
                                  (capture, self.capture, other.capture)):
            for a, b in zip(a_vec, b_vec):
                if a == X:
                    vec.append(b)
                elif b == X or a == b:
                    vec.append(a)
                else:
                    return None
        return PatternPair(tuple(launch), tuple(capture))


class TestSet:
    """An ordered collection of pattern pairs over one circuit's sources."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, circuit: Circuit,
                 patterns: Iterable[PatternPair] = ()) -> None:
        self._width = len(circuit.sources())
        self.patterns: list[PatternPair] = []
        self.extend(patterns)

    @classmethod
    def of_width(cls, width: int,
                 patterns: Iterable[PatternPair] = ()) -> "TestSet":
        """A set over ``width`` sources (a derived set of one circuit)."""
        out = cls.__new__(cls)
        out._width, out.patterns = width, []
        out.extend(patterns)
        return out

    @property
    def width(self) -> int:
        return self._width

    def append(self, pattern: PatternPair) -> None:
        if pattern.width != self._width:
            raise ValueError(
                f"pattern width {pattern.width} != {self._width} sources")
        self.patterns.append(pattern)

    def extend(self, patterns: Iterable[PatternPair]) -> None:
        for p in patterns:
            self.append(p)

    def filled(self, *, seed: int = 0) -> "TestSet":
        """Fill all don't-cares deterministically.

        Returns ``self`` when every pattern is already fully specified —
        the common case for random-phase batches and re-grading of
        deterministic patterns, where a fresh copy (and the RNG setup)
        would be pure overhead.
        """
        if not any(p.has_dont_cares for p in self.patterns):
            return self
        rng = random.Random(seed)
        return TestSet.of_width(self._width,
                               (p.filled(rng) for p in self.patterns))

    def subset(self, indices: Sequence[int]) -> "TestSet":
        return TestSet.of_width(self._width,
                               (self.patterns[i] for i in indices))

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[PatternPair]:
        return iter(self.patterns)

    def __getitem__(self, idx: int) -> PatternPair:
        return self.patterns[idx]


def random_test_set(circuit: Circuit, count: int, *, seed: int = 0) -> TestSet:
    """Fully-specified random pattern pairs (baseline / fallback generator)."""
    rng = random.Random(seed)
    width = len(circuit.sources())
    ts = TestSet(circuit)
    for _ in range(count):
        launch = tuple(rng.randint(0, 1) for _ in range(width))
        capture = tuple(rng.randint(0, 1) for _ in range(width))
        ts.append(PatternPair(launch, capture))
    return ts
