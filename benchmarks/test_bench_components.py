"""Micro-benchmarks of the core computational kernels.

Not tied to one paper artifact; these track the throughput of the stages
that dominate the flow's runtime so regressions are visible:

* timing-accurate waveform simulation (fault-free and faulty),
* bit-parallel logic simulation,
* PODEM test generation,
* the set-covering solvers (greedy / branch-and-bound / ILP).
"""

from __future__ import annotations

import random

from repro.atpg.podem import Podem
from repro.atpg.transition import generate_transition_tests
from repro.circuits.library import suite_circuit
from repro.faults.models import FaultSite, SmallDelayFault, StuckAtFault
from repro.faults.universe import fault_sites
from repro.scheduling.setcover import (
    CoverProblem,
    branch_and_bound_cover,
    greedy_cover,
    ilp_cover,
)
from repro.simulation.parallel_sim import BitParallelSimulator
from repro.simulation.wave_sim import WaveformSimulator


def _circuit():
    return suite_circuit("s9234", scale=0.8)


def _vectors(circuit, n, seed=0):
    rng = random.Random(seed)
    width = len(circuit.sources())
    return [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(n)]


def test_waveform_simulation(benchmark):
    circuit = _circuit()
    sim = WaveformSimulator(circuit)
    [v1], [v2] = _vectors(circuit, 1, 1), _vectors(circuit, 1, 2)
    result = benchmark(sim.simulate, v1, v2)
    assert len(result.waveforms) == len(circuit.gates)


def test_faulty_cone_resimulation(benchmark):
    circuit = _circuit()
    sim = WaveformSimulator(circuit)
    [v1], [v2] = _vectors(circuit, 1, 1), _vectors(circuit, 1, 2)
    base = sim.simulate(v1, v2)
    gate = circuit.combinational_gates()[len(circuit.gates) // 4]
    fault = SmallDelayFault(FaultSite(gate), True, 30.0)
    result = benchmark(sim.simulate_fault, base, fault)
    assert len(result.waveforms) == len(circuit.gates)


def test_bit_parallel_simulation_64_patterns(benchmark):
    circuit = _circuit()
    sim = BitParallelSimulator(circuit)
    words, width = sim.pack_vectors(_vectors(circuit, 64, 3))
    values = benchmark(sim.simulate, words, width)
    assert len(values) == len(circuit.gates)


def test_stuck_at_fault_grading(benchmark):
    circuit = _circuit()
    sim = BitParallelSimulator(circuit)
    words, width = sim.pack_vectors(_vectors(circuit, 64, 4))
    good = sim.simulate(words, width)
    faults = [StuckAtFault(s, 0) for s in fault_sites(circuit)[:64]]

    def grade():
        return sum(1 for f in faults
                   if sim.stuck_at_detect_mask(good, f, width))

    detected = benchmark(grade)
    assert detected > 0


def test_podem_generation(benchmark):
    circuit = _circuit()
    podem = Podem(circuit)
    targets = [StuckAtFault(s, v)
               for s in fault_sites(circuit)[:12] for v in (0, 1)]

    def generate_all():
        return sum(1 for f in targets if podem.generate(f) is not None)

    found = benchmark(generate_all)
    assert found > 0


def test_transition_atpg_small(benchmark):
    circuit = suite_circuit("s9234", scale=0.4)
    result = benchmark.pedantic(
        lambda: generate_transition_tests(circuit, seed=1),
        rounds=2, iterations=1)
    assert result.coverage > 0.9


def _cover_instance(seed=0, n_elements=120, n_subsets=80):
    rng = random.Random(seed)
    subsets = [frozenset(rng.sample(range(n_elements),
                                    rng.randint(2, 14)))
               for _ in range(n_subsets)]
    subsets.append(frozenset(range(n_elements)) - subsets[0] or subsets[0])
    subsets.append(frozenset(range(n_elements)))
    return CoverProblem.from_sets(subsets)


def test_setcover_greedy(benchmark):
    p = _cover_instance()
    chosen = benchmark(greedy_cover, p)
    assert p.covered_by(chosen) >= p.universe


def test_setcover_ilp(benchmark):
    p = _cover_instance()
    chosen = benchmark(ilp_cover, p)
    assert p.covered_by(chosen) >= p.universe


def test_setcover_branch_and_bound(benchmark):
    p = _cover_instance(n_elements=40, n_subsets=25)
    chosen = benchmark(branch_and_bound_cover, p)
    assert p.covered_by(chosen) >= p.universe
