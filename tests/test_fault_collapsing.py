"""The deterministic ATPG phase's fault collapsing against its definition.

:func:`repro.atpg.transition._untestable_implications` relates two
transition faults ``A → B`` when every vector detecting ``B``'s capture
stuck-at image also detects ``A``'s, so a PODEM proof that ``A`` is
untestable settles ``B`` without a search.  Here every edge is checked
over *all* ``2ⁿ`` source vectors with the packed stuck-at kernel, and
every fault the phase actually skipped is re-proven untestable by an
independent high-limit PODEM search.
"""

from __future__ import annotations

import pytest

from repro.atpg import transition
from repro.atpg.podem import Podem
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.circuits.library import embedded_circuit
from repro.netlist.bench import parse_bench
from repro.simulation.parallel_sim import BitParallelSimulator

#: Backtrack limit of the re-proof; far above the phase's default 512.
PROOF_BACKTRACKS = 200_000


def _generated(seed: int):
    return generate_circuit(CircuitProfile(
        name=f"collapse{seed}", n_gates=70, n_ffs=6, n_inputs=7,
        n_outputs=4, depth=8, seed=seed))


#: Every edge rule once, next to its traps: a primary output read by one
#: gate (no stem edge), a multi-fanout stem and a stem read only by a DFF.
_RULES_BENCH = """
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(n1)
OUTPUT(n4)
q = DFF(n5)
n1 = AND(a, b)
n2 = NAND(n1, c)
n3 = NOT(n2)
n4 = NOR(n3, q)
n5 = BUF(n2)
"""


CASES = {
    "rules": lambda: parse_bench(_RULES_BENCH, name="rules"),
    "c17": lambda: embedded_circuit("c17"),
    "s27": lambda: embedded_circuit("s27"),
    "gen1": lambda: _generated(1),
    "gen2": lambda: _generated(2),
    "gen3": lambda: _generated(3),
}


def _exhaustive_masks(circuit, faults) -> list[int]:
    """Stuck-at detect mask of each fault's capture image over every
    source vector (bit p ↔ the vector whose source k holds bit k of p)."""
    sources = circuit.sources()
    assert len(sources) <= 14, "exhaustive check needs few sources"
    width = 1 << len(sources)
    words = {s: int("".join("1" if p >> k & 1 else "0"
                            for p in reversed(range(width))), 2)
             for k, s in enumerate(sources)}
    sim = BitParallelSimulator(circuit)
    good = sim.simulate(words, width)
    rows = transition._fault_rows(circuit, faults)
    return sim.stuck_at_detect_masks(good, rows.sites, width)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_edge_is_an_implication(name):
    circuit = CASES[name]()
    faults = transition.transition_fault_list(circuit)
    implied = transition._untestable_implications(
        circuit, transition._fault_rows(circuit, faults))
    masks = _exhaustive_masks(circuit, faults)
    edges = [(a, b) for a, succ in enumerate(implied) for b in succ]
    assert edges
    for a, b in edges:
        # Every vector detecting B detects A: A untestable ⇒ B untestable.
        assert not masks[b] & ~masks[a], (name, faults[a], faults[b])
    one_way = [(a, b) for a, b in edges if a not in implied[b]]
    assert one_way, name
    if name.startswith("gen"):
        # Some dominance is strict here, so a reversed edge would fail.
        assert any(masks[a] & ~masks[b] for a, b in one_way), name


class _RecordingPodem(Podem):
    """PODEM that remembers every capture image it was asked to test."""

    searched: set = set()

    def generate(self, fault):
        _RecordingPodem.searched.add(fault)
        return super().generate(fault)


@pytest.mark.parametrize("name", sorted(CASES))
def test_skipped_faults_are_untestable(name, monkeypatch):
    circuit = CASES[name]()
    _RecordingPodem.searched = set()
    monkeypatch.setattr(transition, "Podem", _RecordingPodem)
    result = transition.generate_transition_tests(circuit, seed=1)
    skipped = [f for f in result.untestable
               if f.as_stuck_at() not in _RecordingPodem.searched]
    if name.startswith("gen"):
        assert skipped, name
    oracle = Podem(circuit, max_backtracks=PROOF_BACKTRACKS)
    masks = _exhaustive_masks(circuit, skipped)
    for f, mask in zip(skipped, masks):
        assert oracle.generate(f.as_stuck_at()) is None, f
        assert not oracle.stats.aborted, f
        assert not mask, f
    assert not set(skipped) & (result.detected | result.aborted)
