"""Golden pin of the whole Fig. 4 flow on small circuits.

``tests/data/flow_golden.json`` records, per case, what
:meth:`HdfTestFlow.run` produces: the Table I/II/III rows, the test-set
sha256, the clock, monitors and fault list, a digest of the detection
table (the format of ``tests/test_detection_golden.py``), the
classification sets and every schedule's periods and entries, plus the
progress notes of a default run.  The file was generated from the
pre-pipeline monolithic flow body before it was retired; the staged
pipeline reproduces it exactly.

Regenerate (only for a deliberate, reviewed behaviour change) with::

    PYTHONPATH=src python tests/test_pipeline_golden.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    _ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.circuits.library import embedded_circuit
from repro.core import FlowConfig, HdfTestFlow
from tests.test_detection_golden import detection_fingerprint

GOLDEN_FILE = Path(__file__).resolve().parent / "data" / "flow_golden.json"

CASES = ("s27", "seeded_synthetic", "coverage_schedules",
         "external_test_set")


def _synthetic():
    return generate_circuit(CircuitProfile(
        name="golden_syn", n_gates=60, n_ffs=10, n_inputs=8, n_outputs=6,
        depth=7, seed=13))


def case_args(name: str):
    """``(circuit, config, run keywords)`` of one pinned case."""
    s27 = embedded_circuit("s27")
    if name == "s27":
        return s27, FlowConfig(), {}
    if name == "seeded_synthetic":
        return _synthetic(), FlowConfig(pattern_cap=12), {}
    if name == "coverage_schedules":
        return (s27, FlowConfig(coverage_targets=(0.95,)),
                {"with_coverage_schedules": True})
    if name == "external_test_set":
        base = HdfTestFlow(s27, FlowConfig()).run(with_schedules=False)
        return (s27, FlowConfig(),
                {"test_set": base.test_set, "with_schedules": False})
    raise KeyError(name)


def run_case(name: str):
    circuit, cfg, kw = case_args(name)
    return HdfTestFlow(circuit, cfg).run(**kw)


def _t(x: float) -> str:
    return f"{x:.6f}"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _schedule(sched) -> dict:
    return {"periods": [_t(p) for p in sched.periods],
            "entries": [[_t(e.period), e.pattern, e.config]
                        for e in sched.entries],
            "covered": len(sched.covered),
            "covered_sha256": _digest(sorted(sched.covered))}


def flow_fingerprint(res) -> dict:
    """The pinned summary of one :class:`FlowResult`."""
    out = {
        "table1": res.table1_row(),
        "patterns": len(res.test_set),
        "test_set_sha256": _digest(
            "".join("01x"[v] for v in p.launch) + "|"
            + "".join("01x"[v] for v in p.capture) for p in res.test_set),
        "atpg": res.atpg is not None,
        "t_nom": _t(res.clock.t_nom),
        "configs": [_t(d) for d in res.configs],
        "monitored_gates": sorted(res.placement.monitored_gates),
        "universe_size": res.universe_size,
        "faults_sha256": _digest(
            f"{f.site.gate}.{f.site.pin}.{f.polarity}.{_t(f.delta)}"
            for f in res.data.faults),
        "detection": detection_fingerprint(res.data),
        "classification": {
            attr: [len(getattr(res.classification, attr)),
                   _digest(sorted(getattr(res.classification, attr)))]
            for attr in ("at_speed", "conv_detected", "prop_detected",
                         "target")},
        "schedules": {name: _schedule(s)
                      for name, s in sorted(res.schedules.items())},
        "coverage_schedules": {str(cov): _schedule(s) for cov, s in
                               sorted(res.coverage_schedules.items())},
    }
    if res.schedules:
        out["table2"] = res.table2_row()
    if res.coverage_schedules:
        out["table3"] = res.table3_row()
    return out


def progress_notes() -> list[str]:
    notes: list[str] = []
    HdfTestFlow(embedded_circuit("s27")).run(progress=notes.append)
    return notes


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def _check(name, golden):
    got = json.loads(json.dumps(flow_fingerprint(run_case(name))))
    want = golden["cases"][name]
    for key in want:
        assert got[key] == want[key], (name, key)
    assert set(got) == set(want), name


def test_golden_covers_every_case(golden):
    assert set(golden["cases"]) == set(CASES)


class TestParity:
    def test_s27(self, golden):
        _check("s27", golden)

    def test_seeded_synthetic(self, golden):
        _check("seeded_synthetic", golden)


def test_parity_with_coverage_schedules(golden):
    _check("coverage_schedules", golden)


def test_parity_with_external_test_set(golden):
    assert golden["cases"]["external_test_set"]["atpg"] is False
    _check("external_test_set", golden)


def test_progress_notes_match_monolith(golden):
    assert progress_notes() == golden["progress_notes"]


if __name__ == "__main__":  # pragma: no cover
    payload = {"cases": {name: flow_fingerprint(run_case(name))
                         for name in CASES},
               "progress_notes": progress_notes()}
    text = json.dumps(payload, indent=1)
    # One line per innermost list keeps the file small and diffs readable.
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(text + "\n")
    print(f"wrote {GOLDEN_FILE}")
