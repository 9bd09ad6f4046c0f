"""Golden pin of the transition-fault ATPG outcome.

``tests/data/atpg_golden.json`` records, per circuit, what
:func:`generate_transition_tests` produced (default ``"matrix"`` engine,
the suite's ATPG seed): the sha256 of the compacted test set, the sorted
detected / untestable / aborted fault keys, and the PODEM decisions and
backtracks summed over every ``generate``/``justify`` call.  Any speed
work on grading or PODEM must leave all of it unchanged, so this pin
guards bit-identity without a live twin engine to compare against.

Regenerate (only for a deliberate, reviewed behaviour change) with::

    PYTHONPATH=src python tests/test_atpg_golden.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.atpg import transition
from repro.atpg.podem import Podem
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.circuits.library import embedded_circuit, suite_circuit

GOLDEN_FILE = Path(__file__).resolve().parent / "data" / "atpg_golden.json"

#: ATPG seed of the suite flows (``FlowConfig.atpg_seed``).
ATPG_SEED = 7

#: Scale of the quick-suite circuits (the ``flow-cold`` benchmark size).
SUITE_SCALE = 0.6


def _generated():
    return generate_circuit(CircuitProfile(
        name="gen60", n_gates=60, n_ffs=12, n_inputs=8, n_outputs=4,
        depth=7, seed=5, endpoint_side_gates=1,
        short_path_ppo_fraction=0.3))


#: name → circuit builder.  ``p89k`` (~7 s) runs only under ``-m perf``.
CASES = {
    "c17": lambda: embedded_circuit("c17"),
    "s27": lambda: embedded_circuit("s27"),
    "gen60": _generated,
    "s9234": lambda: suite_circuit("s9234", scale=SUITE_SCALE),
    "s13207": lambda: suite_circuit("s13207", scale=SUITE_SCALE),
    "s35932": lambda: suite_circuit("s35932", scale=SUITE_SCALE),
    "p89k": lambda: suite_circuit("p89k", scale=SUITE_SCALE),
}
PERF_CASES = {"p89k"}


class _CountingPodem(Podem):
    """PODEM that sums the per-call stats of every attempt."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.total_decisions = 0
        self.total_backtracks = 0
        _LIVE.append(self)

    def _count(self, out):
        self.total_decisions += self.stats.decisions
        self.total_backtracks += self.stats.backtracks
        return out

    def generate(self, fault):
        return self._count(super().generate(fault))

    def justify(self, gate, value):
        return self._count(super().justify(gate, value))


_LIVE: list[_CountingPodem] = []


def _fault_key(fault) -> str:
    return f"{fault.site.gate}.{fault.site.pin}.{fault.polarity}"


def _keys(faults) -> list[str]:
    return [_fault_key(f) for f in sorted(faults)]


def _test_set_sha256(test_set) -> str:
    h = hashlib.sha256()
    for p in test_set:
        h.update(("".join("01x"[v] for v in p.launch) + "|"
                  + "".join("01x"[v] for v in p.capture) + "\n").encode())
    return h.hexdigest()


def atpg_fingerprint(circuit) -> dict:
    """The pinned summary of one ATPG run on ``circuit``."""
    saved = transition.Podem
    _LIVE.clear()
    transition.Podem = _CountingPodem
    try:
        result = transition.generate_transition_tests(circuit,
                                                      seed=ATPG_SEED)
    finally:
        transition.Podem = saved
    (podem,) = _LIVE
    _LIVE.clear()
    return {
        "faults": len(result.faults),
        "patterns": len(result.test_set),
        "test_set_sha256": _test_set_sha256(result.test_set),
        "detected": _keys(result.detected),
        "untestable": _keys(result.untestable),
        "aborted": _keys(result.aborted),
        "podem_decisions": podem.total_decisions,
        "podem_backtracks": podem.total_backtracks,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def _check(name, golden):
    want = golden["circuits"][name]
    got = atpg_fingerprint(CASES[name]())
    for key in ("faults", "patterns", "test_set_sha256", "untestable",
                "aborted", "podem_decisions", "podem_backtracks"):
        assert got[key] == want[key], (name, key)
    assert got["detected"] == want["detected"], name


def test_golden_covers_every_case(golden):
    assert golden["atpg_seed"] == ATPG_SEED
    assert golden["suite_scale"] == SUITE_SCALE
    assert set(golden["circuits"]) == set(CASES)


@pytest.mark.parametrize("name", [n for n in CASES if n not in PERF_CASES])
def test_atpg_matches_golden(name, golden):
    _check(name, golden)


@pytest.mark.perf
@pytest.mark.parametrize("name", sorted(PERF_CASES))
def test_atpg_matches_golden_large(name, golden):
    _check(name, golden)


if __name__ == "__main__":  # pragma: no cover
    payload = {
        "atpg_seed": ATPG_SEED,
        "suite_scale": SUITE_SCALE,
        "circuits": {name: atpg_fingerprint(build())
                     for name, build in CASES.items()},
    }
    text = json.dumps(payload, indent=1)
    # One line per key list keeps the file small and diffs readable.
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(text + "\n")
    print(f"wrote {GOLDEN_FILE}")
