"""Golden parity: the staged pipeline must be bit-identical to the monolith.

``HdfTestFlow.run_monolith`` retains the pre-pipeline flow body verbatim;
these tests pin ``HdfTestFlow.run`` (the staged execution) against it on
the embedded s27 and a seeded synthetic circuit.  The reference ATPG and
detection twins are pinned to the production paths by
``test_transition_golden.py``, ``test_detection_golden.py`` and
``test_wordwave_golden.py``.
"""

from __future__ import annotations

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.core import FlowConfig, HdfTestFlow

def _synthetic():
    return generate_circuit(CircuitProfile(
        name="golden_syn", n_gates=60, n_ffs=10, n_inputs=8, n_outputs=6,
        depth=7, seed=13))


def _assert_bit_identical(staged, golden):
    # Patterns
    assert [(p.launch, p.capture) for p in staged.test_set] == \
           [(p.launch, p.capture) for p in golden.test_set]
    # Monitors / timing
    assert staged.clock.t_nom == golden.clock.t_nom
    assert staged.placement.monitored_gates == golden.placement.monitored_gates
    assert tuple(staged.configs) == tuple(golden.configs)
    # Detection ranges, exactly (FaultPatternRange/IntervalSet equality)
    assert staged.universe_size == golden.universe_size
    assert [(f.site, f.slow_to_rise, f.delta) for f in staged.data.faults] \
        == [(f.site, f.slow_to_rise, f.delta) for f in golden.data.faults]
    assert staged.data.ranges == golden.data.ranges
    # Classification sets
    for attr in ("at_speed", "conv_detected", "prop_detected", "target"):
        assert getattr(staged.classification, attr) == \
               getattr(golden.classification, attr), attr
    # Schedules
    assert set(staged.schedules) == set(golden.schedules)
    for name in staged.schedules:
        s, g = staged.schedules[name], golden.schedules[name]
        assert s.periods == g.periods, name
        assert s.entries == g.entries, name
        assert s.covered == g.covered, name
    # Paper tables
    assert staged.table1_row() == golden.table1_row()
    if staged.schedules:
        assert staged.table2_row() == golden.table2_row()


class TestParity:
    def test_s27(self, s27):
        cfg = FlowConfig()
        staged = HdfTestFlow(s27, cfg).run()
        golden = HdfTestFlow(s27, cfg).run_monolith()
        _assert_bit_identical(staged, golden)

    def test_seeded_synthetic(self):
        circuit = _synthetic()
        cfg = FlowConfig(pattern_cap=12)
        staged = HdfTestFlow(circuit, cfg).run()
        golden = HdfTestFlow(circuit, cfg).run_monolith()
        _assert_bit_identical(staged, golden)


def test_parity_with_coverage_schedules(s27):
    cfg = FlowConfig(coverage_targets=(0.95,))
    staged = HdfTestFlow(s27, cfg).run(with_coverage_schedules=True)
    golden = HdfTestFlow(s27, cfg).run_monolith(with_coverage_schedules=True)
    assert set(staged.coverage_schedules) == set(golden.coverage_schedules)
    for cov in staged.coverage_schedules:
        assert staged.coverage_schedules[cov].entries == \
               golden.coverage_schedules[cov].entries
    assert staged.table3_row() == golden.table3_row()


def test_parity_with_external_test_set(s27):
    cfg = FlowConfig()
    base = HdfTestFlow(s27, cfg).run(with_schedules=False)
    staged = HdfTestFlow(s27, cfg).run(test_set=base.test_set,
                                       with_schedules=False)
    golden = HdfTestFlow(s27, cfg).run_monolith(test_set=base.test_set,
                                                with_schedules=False)
    assert staged.atpg is None and golden.atpg is None
    _assert_bit_identical(staged, golden)


def test_progress_notes_match_monolith(s27):
    staged_notes, golden_notes = [], []
    HdfTestFlow(s27).run(progress=staged_notes.append)
    HdfTestFlow(s27).run_monolith(progress=golden_notes.append)
    assert staged_notes == golden_notes
