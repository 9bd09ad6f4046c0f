"""Transition-fault grading against its definition, ATPG against a pin.

Detect masks are checked against the detection criterion itself (Sec. V,
enhanced-scan model): pattern pair ``(v1, v2)`` detects transition fault
φ iff ``v1`` sets φ's site signal to the initial value and, under ``v2``,
some observed output differs between the good circuit and the circuit
with the site stuck at that value.  The oracle below evaluates that one
vector at a time with a plain two-valued evaluator, sharing no code with
the packed kernel.

``tests/data/transition_golden.json`` records the outcome of
:func:`generate_transition_tests` on the small circuits (compacted test
set sha256, fault ledger digests, coverage) for several seeds, with and
without compaction; it was generated from the seed grading pipeline
before that pipeline was retired.  ``tests/test_atpg_golden.py`` pins the
suite-scale circuits the same way.

Regenerate (only for a deliberate, reviewed behaviour change) with::

    PYTHONPATH=src python tests/test_transition_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.atpg.patterns import random_test_set
from repro.atpg.transition import (
    detect_masks,
    generate_transition_tests,
    transition_fault_list,
)
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.circuits.library import embedded_circuit, suite_circuit
from repro.netlist.circuit import GateKind
from repro.simulation.parallel_sim import BitParallelSimulator

GOLDEN_FILE = (Path(__file__).resolve().parent / "data"
               / "transition_golden.json")


# ----------------------------------------------------------------------
# The definition, one vector at a time
# ----------------------------------------------------------------------
_EVAL = {
    GateKind.AND: lambda v: int(all(v)),
    GateKind.NAND: lambda v: 1 - int(all(v)),
    GateKind.OR: lambda v: int(any(v)),
    GateKind.NOR: lambda v: 1 - int(any(v)),
    GateKind.XOR: lambda v: sum(v) & 1,
    GateKind.XNOR: lambda v: 1 - (sum(v) & 1),
    GateKind.NOT: lambda v: 1 - v[0],
    GateKind.BUF: lambda v: v[0],
}


def _evaluate(circuit, vector, stuck=None) -> list[int]:
    """Every gate's value under one source vector; ``stuck`` is an optional
    ``(gate, pin, value)`` forcing one pin (``pin < 0``: the output)."""
    values = [0] * len(circuit.gates)
    for src, v in zip(circuit.sources(), vector):
        kind = circuit.gates[src].kind
        values[src] = (0 if kind == GateKind.CONST0
                       else 1 if kind == GateKind.CONST1 else v)
    for g in circuit.topo_order:
        gate = circuit.gates[g]
        if gate.kind in _EVAL:
            ins = [values[s] for s in gate.fanin]
            if stuck is not None and stuck[0] == g and stuck[1] >= 0:
                ins[stuck[1]] = stuck[2]
            values[g] = _EVAL[gate.kind](ins)
        if stuck is not None and stuck[0] == g and stuck[1] < 0:
            values[g] = stuck[2]
    return values


def definition_masks(circuit, test_set, faults) -> dict:
    """Per-fault detect masks straight from the transition criterion."""
    observed = [op.gate for op in circuit.observation_points()]
    out = {f: 0 for f in faults}
    for p, pair in enumerate(test_set):
        launch = _evaluate(circuit, pair.launch)
        good = _evaluate(circuit, pair.capture)
        for f in faults:
            site = f.site
            if launch[site.signal_gate(circuit)] != f.launch_value:
                continue
            bad = _evaluate(circuit, pair.capture,
                            (site.gate, site.pin, f.launch_value))
            if any(good[o] != bad[o] for o in observed):
                out[f] |= 1 << p
    return out


def _generated(seed: int):
    return generate_circuit(CircuitProfile(
        name=f"tdef{seed}", n_gates=70 + 10 * seed, n_ffs=8, n_inputs=7,
        n_outputs=4, depth=7, seed=seed, endpoint_side_gates=seed % 2))


def _check_masks(circuit, count, seed):
    ts = random_test_set(circuit, count, seed=seed)
    faults = transition_fault_list(circuit)
    got = detect_masks(circuit, BitParallelSimulator(circuit), ts, faults,
                       seed=seed)
    assert got == definition_masks(circuit, ts, faults)
    assert any(got.values())  # the workload is not vacuous


class TestDetectMasks:
    @pytest.mark.parametrize("count", [1, 5, 70])  # 70 → multi-word masks
    def test_bit_identical_masks_s27(self, s27, count):
        _check_masks(s27, count, 3)

    def test_bit_identical_masks_generated(self, small_generated):
        _check_masks(small_generated, 9, 11)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_masks_match_definition_generated(self, seed):
        _check_masks(_generated(seed), 40, seed)

    def test_empty_test_set(self, s27):
        sim = BitParallelSimulator(s27)
        faults = transition_fault_list(s27)
        ts = random_test_set(s27, 1, seed=0).subset([])
        assert detect_masks(s27, sim, ts, faults) == {f: 0 for f in faults}


# ----------------------------------------------------------------------
# ATPG outcome pin
# ----------------------------------------------------------------------
_SMALL = {
    "c17": lambda: embedded_circuit("c17"),
    "s27": lambda: embedded_circuit("s27"),
    "small_generated": lambda: generate_circuit(CircuitProfile(
        name="gen60", n_gates=60, n_ffs=12, n_inputs=8, n_outputs=4,
        depth=7, seed=5, endpoint_side_gates=1,
        short_path_ppo_fraction=0.3)),
}

#: case name → (circuit builder, generate_transition_tests keywords).
CASES = {
    **{f"{name}-seed{seed}": (build, {"seed": seed})
       for name, build in _SMALL.items() for seed in (0, 7)},
    "s27-seed5-uncompacted": (_SMALL["s27"], {"seed": 5, "compact": False}),
    "s9234x0.3-seed7": (lambda: suite_circuit("s9234", scale=0.3),
                        {"seed": 7}),
}


def _ledger(faults) -> list:
    keys = [f"{f.site.gate}.{f.site.pin}.{f.polarity}"
            for f in sorted(faults)]
    return [len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()]


def atpg_fingerprint(result) -> dict:
    h = hashlib.sha256()
    for p in result.test_set:
        h.update(("".join("01x"[v] for v in p.launch) + "|"
                  + "".join("01x"[v] for v in p.capture) + "\n").encode())
    return {"faults": len(result.faults),
            "patterns": len(result.test_set),
            "test_set_sha256": h.hexdigest(),
            "detected": _ledger(result.detected),
            "untestable": _ledger(result.untestable),
            "aborted": _ledger(result.aborted),
            "coverage": round(result.coverage, 9)}


def case_fingerprint(name: str) -> dict:
    build, kw = CASES[name]
    return atpg_fingerprint(generate_transition_tests(build(), **kw))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def _check(name, golden):
    assert case_fingerprint(name) == golden["cases"][name], name


class TestGenerateEquivalence:
    def test_golden_covers_every_case(self, golden):
        assert set(golden["cases"]) == set(CASES)

    @pytest.mark.parametrize("fixture", ["c17", "s27", "small_generated"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_identical_atpg_outcome(self, fixture, seed, golden):
        _check(f"{fixture}-seed{seed}", golden)

    def test_identical_without_compaction(self, golden):
        _check("s27-seed5-uncompacted", golden)

    def test_identical_on_scaled_suite_circuit(self, golden):
        _check("s9234x0.3-seed7", golden)


if __name__ == "__main__":  # pragma: no cover
    payload = {"cases": {name: case_fingerprint(name) for name in CASES}}
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN_FILE}")
