"""Path-oriented (timing-aware) transition test generation.

The paper's introduction notes that hidden delay faults escape at-speed
test "even with timing-aware test patterns" — patterns that launch
transitions down the *longest* paths (KLPG-style).  This module implements
that baseline so the claim can be exercised: for each endpoint, the K
longest structural paths are sensitized explicitly.

Sensitization (non-robust):

* the capture vector ``v2`` holds every off-path input of every on-path
  gate at its non-controlling value (XOR-family gates accept any specified
  side value) and sets the path source to its final value,
* the launch vector ``v1`` flips the source, launching a transition that
  traverses the whole path.

Both vectors come from the multi-objective PODEM justification
(:meth:`repro.atpg.podem.Podem.justify_all`).  Each generated pair is
verified by timing simulation: the endpoint must toggle at (approximately)
the path's structural length, proving the intended path — not some short
parallel route — determined the captured edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.atpg.patterns import PatternPair, TestSet
from repro.atpg.podem import Podem
from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.logic import X, controlling_value
from repro.simulation.wave_sim import WaveformSimulator
from repro.timing.paths import TimingPath, k_longest_paths


@dataclass
class PathTest:
    """One sensitized path with its pattern pair and verification result."""

    path: TimingPath
    pattern: PatternPair
    observed_arrival: float | None

    @property
    def verified(self) -> bool:
        """The endpoint edge landed within 15 % of the structural length."""
        if self.observed_arrival is None:
            return False
        return abs(self.observed_arrival - self.path.length) \
            <= 0.15 * self.path.length + 1e-9


@dataclass
class PathAtpgResult:
    tests: list[PathTest] = field(default_factory=list)
    unsensitizable: int = 0

    def test_set(self, circuit: Circuit) -> TestSet:
        return TestSet(circuit, (t.pattern for t in self.tests))

    @property
    def verified_fraction(self) -> float:
        if not self.tests:
            return 0.0
        return sum(t.verified for t in self.tests) / len(self.tests)


def _path_objectives(circuit: Circuit, path: TimingPath,
                     rising_at_source: bool) -> list[tuple[int, int]] | None:
    """(gate, value) objectives making ``v2`` sensitize the path.

    Walks the path tracking the transition polarity; off-path inputs of
    AND/NAND/OR/NOR stages must hold the non-controlling value; NOT/BUF
    have no side inputs; XOR-family stages pass any side value (polarity
    flips when the side value is 1, which the caller does not need to
    know — only the *endpoint* polarity changes).
    """
    objectives: list[tuple[int, int]] = []
    value = 1 if rising_at_source else 0
    objectives.append((path.gates[0], value))
    for prev, cur in zip(path.gates, path.gates[1:]):
        g = circuit.gates[cur]
        ctrl = controlling_value(g.kind)
        for pin, src in enumerate(g.fanin):
            if src == prev:
                continue
            if ctrl is not None:
                objectives.append((src, 1 - ctrl))
            # XOR/XNOR side inputs: no constraint needed (any value
            # propagates); leave them free for the justifier.
        if g.kind in (GateKind.NOT, GateKind.NAND, GateKind.NOR,
                      GateKind.XNOR):
            value = 1 - value
        # (for XOR the polarity depends on the side value; untracked, as
        # only existence of the endpoint transition matters)
    return objectives


def sensitize_path(circuit: Circuit, path: TimingPath, *,
                   podem: Podem | None = None,
                   rng: random.Random | None = None,
                   rising_at_source: bool = True) -> PatternPair | None:
    """Build a launch/capture pair driving a transition down ``path``."""
    podem = podem or Podem(circuit)
    rng = rng or random.Random(0)
    source = path.gates[0]
    if not GateKind.is_source(circuit.gates[source].kind):
        raise ValueError("path must start at a combinational source")

    objectives = _path_objectives(circuit, path, rising_at_source)
    if objectives is None:
        return None
    capture_assign = podem.justify_all(objectives)
    if capture_assign is None:
        return None
    final = capture_assign.get(source, 1 if rising_at_source else 0)
    sources = circuit.sources()
    capture = tuple(capture_assign.get(s, X) for s in sources)
    # Launch vector: keep the sensitizing side conditions (they are also
    # the v1 values of a hazard-reduced test), flip only the source.
    launch = tuple((1 - final) if s == source else capture_assign.get(s, X)
                   for s in sources)
    return PatternPair(launch, capture).filled(rng)


def generate_path_tests(circuit: Circuit, *, k_per_endpoint: int = 2,
                        endpoints: list[int] | None = None,
                        seed: int = 0,
                        verify: bool = True) -> PathAtpgResult:
    """Sensitize the K longest paths into each (or given) endpoint."""
    rng = random.Random(seed)
    podem = Podem(circuit)
    sim = WaveformSimulator(circuit) if verify else None
    targets = (endpoints if endpoints is not None
               else sorted({op.gate for op in circuit.observation_points()}))

    result = PathAtpgResult()
    for endpoint in targets:
        for path in k_longest_paths(circuit, endpoint, k_per_endpoint):
            pattern = sensitize_path(circuit, path, podem=podem, rng=rng,
                                     rising_at_source=bool(rng.getrandbits(1)))
            if pattern is None:
                pattern = sensitize_path(circuit, path, podem=podem, rng=rng,
                                         rising_at_source=False)
            if pattern is None:
                result.unsensitizable += 1
                continue
            observed = None
            if sim is not None:
                res = sim.simulate(pattern.launch, pattern.capture)
                wave = res.waveforms[endpoint]
                if wave.events:
                    observed = wave.last_event_time
            result.tests.append(PathTest(path=path, pattern=pattern,
                                         observed_arrival=observed))
    return result
