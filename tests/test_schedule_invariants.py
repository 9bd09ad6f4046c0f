"""Step-2 invariants of the two-step schedule on random circuits.

Every conv/heur/prop entry is re-evaluated against the
:class:`DetectionData` ranges with the paper's detection rule: pattern
``p`` under monitor configuration ``c`` (delay ``d``) detects fault ``f``
at period ``t`` iff ``t ∈ I_all ∪ (I_mon + d)`` of ``(f, p)``; without a
monitor (``FF_ONLY_CONFIG``) only ``I_all`` observes.  Then:

* each period's entries cover the faults assigned to that period,
* the per-period fault sets partition ``covered``,
* at full coverage ``covered`` includes every target.
"""

from __future__ import annotations

import pytest

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.core import FlowConfig, HdfTestFlow
from repro.scheduling.schedule import FF_ONLY_CONFIG

SEEDS = (11, 12, 13)


@pytest.fixture(scope="module", params=SEEDS)
def flow_result(request):
    circuit = generate_circuit(CircuitProfile(
        name=f"inv{request.param}", n_gates=90, n_ffs=14, n_inputs=9,
        n_outputs=5, depth=8, seed=request.param, endpoint_side_gates=1,
        short_path_ppo_fraction=0.3))
    return HdfTestFlow(circuit, FlowConfig(atpg_seed=request.param)).run()


def _detects(res, fault, entry) -> bool:
    fpr = res.data.ranges.get(fault, {}).get(entry.pattern)
    if fpr is None:
        return False
    if fpr.i_all.contains(entry.period):
        return True
    if entry.config == FF_ONLY_CONFIG:
        return False
    delay = res.configs[entry.config]
    return fpr.i_mon.shifted(delay).contains(entry.period)


@pytest.mark.parametrize("key", ["conv", "heur", "prop"])
def test_step2_entries_cover_every_target(flow_result, key):
    sched = flow_result.schedules[key]
    assert sched.entries, "a schedule without entries tests nothing"
    assert sorted(sched.per_period_faults) == sched.periods
    seen: set[int] = set()
    for period, faults in sched.per_period_faults.items():
        entries = sched.entries_at(period)
        for f in faults:
            assert any(_detects(flow_result, f, e) for e in entries), (
                key, period, f)
        assert seen.isdisjoint(faults), (key, period)
        seen |= faults
    assert seen == sched.covered
    if key == "conv":
        assert all(e.config == FF_ONLY_CONFIG for e in sched.entries)
    assert sched.coverage == 1.0
    assert sched.covered >= sched.targets
