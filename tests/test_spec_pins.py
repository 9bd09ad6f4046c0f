"""Literal pins of the job documents' canonical form.

Every job kind is parsed from a fixed document, with defaults and with
overrides, and its ``to_dict()`` and ``fingerprint()`` are compared to
values written out here.  A change to how a job declares, defaults or
serializes its fields shows up as a failure of this module: the
service's dedupe and every stored result are keyed by these
fingerprints.
"""

from __future__ import annotations

import pytest

from repro.core.spec import job_from_dict

#: ``ScenarioSpec().to_dict()`` written out.
DEFAULT_SCENARIO = {
    "bti": {"amplitude": 0.04, "exponent": 0.16},
    "checkpoints": [0.25, 0.3535533905932738, 0.5, 0.7071067811865476,
                    1.0, 1.4142135623730951, 2.0, 2.8284271247461903,
                    4.0, 5.656854249492381, 8.0, 11.313708498984761,
                    16.0, 22.627416997969522],
    "clock_margin": 1.15,
    "em": {"onset": 5.0, "rate": 0.01},
    "gate_seed": 0,
    "hazard": {"components": [{"scale": 6.0, "shape": 0.55},
                              {"scale": 12.0, "shape": 4.0}],
               "weights": [0.08, 0.92]},
    "hci": {"amplitude": 0.02, "exponent": 0.45},
    "infant_weak_gates": 2,
    "seed": 0,
    "stress_spread": 0.5,
    "tau_max": 8.0,
    "tau_min": 0.25,
    "variation": {"bti_sigma": 0.15, "em_sigma": 0.25, "hci_sigma": 0.2},
}

#: name -> (document, pinned to_dict(), pinned fingerprint()).
PINS = {
    "flow-defaults": (
        {"kind": "flow", "circuit": "s27"},
        {"kind": "flow", "circuit": "s27", "fast_ratio": 3.0,
         "monitor_fraction": 0.25, "pattern_cap": None, "atpg_seed": 7,
         "with_schedules": True, "with_coverage_schedules": False},
        "12dc16f36bd2c66271dc3a78c5c696d29e975ef5f794182e25ea140078105d59"),
    "flow-overrides": (
        {"kind": "flow", "circuit": "c17", "fast_ratio": 2.5,
         "monitor_fraction": 0.5, "pattern_cap": 9, "atpg_seed": 11,
         "with_schedules": False, "with_coverage_schedules": True},
        {"kind": "flow", "circuit": "c17", "fast_ratio": 2.5,
         "monitor_fraction": 0.5, "pattern_cap": 9, "atpg_seed": 11,
         "with_schedules": False, "with_coverage_schedules": True},
        "ef97339d28af996c73d31b6c5e3b0fa8cc6d517be12e404f5154aa1ef023d458"),
    "suite-defaults": (
        {"kind": "suite", "names": ["s27"]},
        {"kind": "suite", "names": ["s27"], "scale": 1.0,
         "with_schedules": True, "with_coverage_schedules": False,
         "fast_ratio": 3.0, "monitor_fraction": 0.25, "atpg_seed": 7,
         "workers": 1},
        "648bfce883422f2fb872f28f53082a3ff35ba8fac094c79a27046b91e949e95b"),
    "suite-overrides": (
        {"kind": "suite", "names": ["s27", "c17"], "scale": 0.6,
         "with_schedules": False, "with_coverage_schedules": True,
         "fast_ratio": 2.0, "monitor_fraction": 0.5, "atpg_seed": 3,
         "workers": 2},
        {"kind": "suite", "names": ["s27", "c17"], "scale": 0.6,
         "with_schedules": False, "with_coverage_schedules": True,
         "fast_ratio": 2.0, "monitor_fraction": 0.5, "atpg_seed": 3,
         "workers": 2},
        "022155a4e0507c8e0e782c492b0d3f2141847d65c74327a19182e1feebfa46de"),
    "resched-defaults": (
        {"kind": "resched", "circuit": "s27"},
        {"kind": "resched", "circuit": "s27", "fast_ratio": 3.0,
         "monitor_fraction": 0.25, "pattern_cap": None, "atpg_seed": 7,
         "alerts": [], "scenario": None, "max_gates": 1},
        "d8ecc1d4844a3fb77472c610ea03d8ec71e8ebf36b27226c63c6f492a58d2a58"),
    "resched-overrides": (
        {"kind": "resched", "circuit": "c17", "fast_ratio": 2.0,
         "monitor_fraction": 1.0, "pattern_cap": 4, "atpg_seed": 5,
         "alerts": [[[16, 1.0], [13, 0.5]], [[13, 2.0]]],
         "scenario": {"seed": 9}, "max_gates": 2},
        {"kind": "resched", "circuit": "c17", "fast_ratio": 2.0,
         "monitor_fraction": 1.0, "pattern_cap": 4, "atpg_seed": 5,
         "alerts": [[[13, 0.5], [16, 1.0]], [[13, 2.0]]],
         "scenario": {**DEFAULT_SCENARIO, "seed": 9}, "max_gates": 2},
        "91c3ad9350824d748c30dd390b6d78268c938c63d48e2d26f4f2cc7b005b5b1b"),
    "fleet-defaults": (
        {"kind": "fleet", "circuit": "s27"},
        {"kind": "fleet", "circuit": "s27", "devices": 1024, "jobs": 1,
         "scenario": DEFAULT_SCENARIO},
        "dc12053db3f9527b3b935641e40924233c2d6043b9787161ad6f27195d1da0b7"),
    "fleet-overrides": (
        {"kind": "fleet", "circuit": "c17", "devices": 64, "jobs": 2,
         "scenario": {"seed": 3, "gate_seed": 1,
                      "checkpoints": [0.5, 1.0, 2.0]}},
        {"kind": "fleet", "circuit": "c17", "devices": 64, "jobs": 2,
         "scenario": {**DEFAULT_SCENARIO, "seed": 3, "gate_seed": 1,
                      "checkpoints": [0.5, 1.0, 2.0]}},
        "ed41152a7ae3a8d0fa04f2ae12ed055fb814f01b69f222ab5ee322c95316e230"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_document_canonical_form_is_pinned(name):
    document, expected, fingerprint = PINS[name]
    job = job_from_dict(document)
    assert job.to_dict() == expected
    assert job.fingerprint() == fingerprint
    # The canonical form parses back to the same job.
    assert job_from_dict(expected) == job
