"""Tests for path-oriented (timing-aware) test generation."""

from __future__ import annotations

import pytest

from repro.atpg.path_atpg import generate_path_tests, sensitize_path
from repro.atpg.podem import Podem
from repro.netlist.circuit import Circuit, GateKind
from repro.timing.paths import k_longest_paths


@pytest.fixture()
def chain():
    c = Circuit("pchain")
    a = c.add_input("a")
    g1 = c.add_gate("g1", GateKind.NOT, [a])
    g2 = c.add_gate("g2", GateKind.BUF, [g1])
    g3 = c.add_gate("g3", GateKind.NOT, [g2])
    c.mark_output(g3)
    return c.finalize()


class TestJustifyAll:
    def test_multiple_objectives_satisfied(self, c17):
        podem = Podem(c17)
        n10, n16 = c17.index_of("N10"), c17.index_of("N16")
        assignment = podem.justify_all([(n10, 0), (n16, 1)])
        assert assignment is not None
        from repro.simulation.parallel_sim import BitParallelSimulator
        import random
        rng = random.Random(0)
        srcs = c17.sources()
        vec = tuple(assignment.get(s, rng.randint(0, 1)) for s in srcs)
        sim = BitParallelSimulator(c17)
        words, width = sim.pack_vectors([vec])
        good = sim.simulate(words, width)
        assert good[n10] == 0 and good[n16] == 1

    def test_conflicting_objectives_fail(self, chain):
        podem = Podem(chain)
        g1, g2 = chain.index_of("g1"), chain.index_of("g2")
        # g2 buffers g1: demanding opposite values is unsatisfiable.
        assert podem.justify_all([(g1, 1), (g2, 0)]) is None

    def test_source_objectives_direct(self, chain):
        podem = Podem(chain)
        a = chain.index_of("a")
        assert podem.justify_all([(a, 1)]) == {a: 1}
        g1 = chain.index_of("g1")
        out = podem.justify_all([(a, 1), (g1, 0)])
        assert out == {a: 1}

    def test_contradictory_source_values(self, chain):
        podem = Podem(chain)
        a = chain.index_of("a")
        assert podem.justify_all([(a, 1), (a, 0)]) is None


class TestSensitize:
    def test_chain_path_exact(self, chain):
        path = k_longest_paths(chain, chain.index_of("g3"), 1)[0]
        pattern = sensitize_path(chain, path)
        assert pattern is not None
        from repro.simulation.wave_sim import WaveformSimulator
        res = WaveformSimulator(chain).simulate(pattern.launch,
                                                pattern.capture)
        wave = res.waveforms[chain.index_of("g3")]
        assert wave.num_transitions == 1
        assert wave.last_event_time == pytest.approx(path.length, rel=0.2)

    def test_requires_source_start(self, chain):
        from repro.timing.paths import TimingPath
        bad = TimingPath(gates=(chain.index_of("g1"),
                                chain.index_of("g2")), length=10.0)
        with pytest.raises(ValueError, match="source"):
            sensitize_path(chain, bad)


class TestGeneration:
    def test_s27_paths_all_verified(self, s27):
        result = generate_path_tests(s27, k_per_endpoint=2, seed=1)
        assert result.tests
        assert result.verified_fraction >= 0.75

    def test_generated_circuit_mostly_verified(self, small_generated):
        result = generate_path_tests(small_generated, k_per_endpoint=1,
                                     seed=1)
        assert result.tests
        # False paths legitimately fail sensitization; verified tests must
        # dominate among the sensitized ones.
        assert result.verified_fraction >= 0.6

    def test_endpoint_restriction(self, s27):
        endpoint = s27.observation_points()[0].gate
        result = generate_path_tests(s27, k_per_endpoint=3,
                                     endpoints=[endpoint], seed=1)
        for t in result.tests:
            assert t.path.gates[-1] == endpoint

    def test_test_set_export(self, s27):
        result = generate_path_tests(s27, k_per_endpoint=1, seed=1)
        ts = result.test_set(s27)
        assert len(ts) == len(result.tests)

    def test_deterministic(self, s27):
        a = generate_path_tests(s27, k_per_endpoint=2, seed=5)
        b = generate_path_tests(s27, k_per_endpoint=2, seed=5)
        assert [t.pattern for t in a.tests] == [t.pattern for t in b.tests]

    def test_unverified_counted_not_hidden(self, small_generated):
        result = generate_path_tests(small_generated, k_per_endpoint=2,
                                     seed=2)
        assert len(result.tests) + result.unsensitizable == sum(
            min(2, len(k_longest_paths(small_generated, op, 2)))
            for op in sorted({o.gate for o in
                              small_generated.observation_points()}))
