"""Stored form of the flow's stage entries.

Each stored entry holds only what its stage computed: no entry pickles
the circuit (the caller's flow context owns it), and the classification
entry carries its class sets without the detection data they were
derived from.  A replay from the store still rebuilds the computed flow
result: the same Table I-III rows, classes and schedules.
"""

from __future__ import annotations

import pytest

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.circuits.library import embedded_circuit
from repro.core.config import FlowConfig
from repro.core.flow import HdfTestFlow
from repro.experiments.artifact_cache import StageCache
from tests.test_range_table import _global_names


def _gen160():
    return generate_circuit(CircuitProfile(
        name="gen160", n_gates=160, n_ffs=26, n_inputs=16, n_outputs=4,
        depth=8, seed=160))


@pytest.fixture(scope="module", params=["s27", "gen160"])
def stored_flow(request, tmp_path_factory):
    circuit = (embedded_circuit("s27") if request.param == "s27"
               else _gen160())
    store = StageCache(tmp_path_factory.mktemp(request.param))
    flow = HdfTestFlow(circuit, FlowConfig(
        atpg_seed=3, pattern_cap=16, coverage_targets=(0.95, 0.90)))
    computed = flow.run(with_coverage_schedules=True, cache=store)
    replayed = flow.cached_result(with_coverage_schedules=True, cache=store)
    payloads = {stage: store._path(key).read_bytes()
                for stage, key in computed.meta["keys"].items()}
    return computed, replayed, payloads


def test_no_entry_pickles_the_circuit(stored_flow):
    _computed, _replayed, payloads = stored_flow
    assert set(payloads) == {"sta", "faults", "atpg", "simulation",
                             "classify", "schedule"}
    for stage, payload in payloads.items():
        assert "Circuit" not in _global_names(payload), stage


def test_classify_entry_holds_only_the_classes(stored_flow):
    _computed, _replayed, payloads = stored_flow
    assert not _global_names(payloads["classify"]) & {"DetectionData",
                                                      "RangeTable"}


def test_replay_equals_the_computed_run(stored_flow):
    computed, replayed, _payloads = stored_flow
    assert replayed is not None
    assert replayed.meta["cache"]["misses"] == 0
    for row in ("table1_row", "table2_row", "table3_row"):
        assert getattr(replayed, row)() == getattr(computed, row)()
    assert replayed.classification == computed.classification
    assert replayed.schedules == computed.schedules
    assert replayed.coverage_schedules == computed.coverage_schedules
