"""Tests for the bit-parallel logic simulator."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.faults.models import FaultSite, StuckAtFault
from repro.faults.universe import fault_sites
from repro.netlist.circuit import GateKind
from repro.simulation.logic import eval_binary
from repro.simulation.parallel_sim import BitParallelSimulator


class TestSimulate:
    def test_matches_scalar_eval_exhaustive_c17(self, c17):
        sim = BitParallelSimulator(c17)
        vectors = list(itertools.product((0, 1), repeat=5))
        words, width = sim.pack_vectors(vectors)
        values = sim.simulate(words, width)
        srcs = c17.sources()
        for p, vec in enumerate(vectors):
            static = {}
            for idx in c17.topo_order:
                g = c17.gates[idx]
                if GateKind.is_source(g.kind):
                    static[idx] = vec[srcs.index(idx)]
                else:
                    static[idx] = eval_binary(
                        g.kind, [static[s] for s in g.fanin])
            for idx in c17.topo_order:
                assert values[idx] >> p & 1 == static[idx]

    def test_random_vectors_s27(self, s27):
        sim = BitParallelSimulator(s27)
        rng = random.Random(0)
        srcs = s27.sources()
        vectors = [tuple(rng.randint(0, 1) for _ in srcs) for _ in range(64)]
        words, width = sim.pack_vectors(vectors)
        values = sim.simulate(words, width)
        for p in (0, 17, 63):
            static = {}
            for idx in s27.topo_order:
                g = s27.gates[idx]
                if GateKind.is_source(g.kind):
                    static[idx] = vectors[p][srcs.index(idx)]
                else:
                    static[idx] = eval_binary(
                        g.kind, [static[s] for s in g.fanin])
            assert all(values[i] >> p & 1 == static[i] for i in s27.topo_order)

    @pytest.mark.parametrize("value", (0, 1))
    def test_constants_ignore_the_pattern_bit(self, value):
        """A constant row holds its value whatever its packed bit says."""
        from repro.netlist.circuit import Circuit

        c = Circuit("const")
        a = c.add_input("a")
        b = c.add_input("b")
        z = c.add_const("z", value)
        o = c.add_gate("o", GateKind.OR, [a, z])
        y = c.add_gate("y", GateKind.AND, [o, b])
        c.mark_output(y)
        c.finalize()
        sim = BitParallelSimulator(c)
        # Sources (a, b, z); each pattern drives z's bit opposite to value.
        vectors = [(0, 1, 1 - value), (1, 1, 1 - value)]
        want = {z: [value] * 2, o: [value, 1], y: [value, 1]}
        words, width = sim.pack_vectors(vectors)
        values = sim.simulate(words, width)
        for gate, bits in want.items():
            assert [values[gate] >> p & 1 for p in range(2)] == bits

    def test_pack_rejects_x(self, s27):
        sim = BitParallelSimulator(s27)
        vec = [2] * len(s27.sources())
        with pytest.raises(ValueError):
            sim.pack_vectors([vec])

    def test_pack_rejects_wrong_width(self, s27):
        sim = BitParallelSimulator(s27)
        with pytest.raises(ValueError):
            sim.pack_vectors([(0, 1)])


class TestStuckAtDetection:
    def brute_force_mask(self, circuit, fault, vectors):
        """Reference: per-pattern scalar simulation of good and faulty."""
        srcs = circuit.sources()
        mask = 0
        for p, vec in enumerate(vectors):
            def run(faulted):
                values = {}
                for idx in circuit.topo_order:
                    g = circuit.gates[idx]
                    if GateKind.is_source(g.kind):
                        values[idx] = vec[srcs.index(idx)]
                        continue
                    ins = [values[s] for s in g.fanin]
                    if faulted and not fault.site.is_output_pin \
                            and idx == fault.site.gate:
                        ins[fault.site.pin] = fault.value
                    v = eval_binary(g.kind, ins)
                    if faulted and fault.site.is_output_pin \
                            and idx == fault.site.gate:
                        v = fault.value
                    values[idx] = v
                return values
            good = run(False)
            bad = run(True)
            obs = {op.gate for op in circuit.observation_points()}
            if any(good[o] != bad[o] for o in obs):
                mask |= 1 << p
        return mask

    @pytest.mark.parametrize("circuit_name", ["c17", "s27"])
    def test_against_brute_force(self, circuit_name, c17, s27):
        circuit = {"c17": c17, "s27": s27}[circuit_name]
        sim = BitParallelSimulator(circuit)
        rng = random.Random(1)
        srcs = circuit.sources()
        vectors = [tuple(rng.randint(0, 1) for _ in srcs) for _ in range(32)]
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        for site in fault_sites(circuit):
            for value in (0, 1):
                fault = StuckAtFault(site, value)
                fast = sim.stuck_at_detect_mask(good, fault, width)
                slow = self.brute_force_mask(circuit, fault, vectors)
                assert fast == slow, fault.describe(circuit)

    def test_undetectable_when_site_already_stuck(self, c17):
        sim = BitParallelSimulator(c17)
        # With all inputs 0, every NAND output is 1: SA1 at outputs silent.
        vectors = [tuple([0] * 5)]
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        g = c17.index_of("N10")
        assert sim.stuck_at_detect_mask(
            good, StuckAtFault(FaultSite(g), 1), width) == 0
