"""Golden pin of the detection ranges of both simulation engines.

``tests/data/detection_golden.json`` records, per circuit, a sha256 of the
canonical (fault, pattern, ``i_all``, ``i_mon``) table of a flow-like
detection workload plus its entry counts.  The file was generated from the
seed full-cone resweep engine before that engine was retired; the batched
wordwave engine (:func:`compute_detection_data`) and the event-driven
incremental path (:func:`incremental_detection_data`) must both
reproduce it exactly, on real ISCAS circuits and seeded generated ones.
``tests/test_detection_rule.py`` checks the ranges against the paper's
definition on independent random workloads.

Regenerate (only for a deliberate, reviewed behaviour change) with::

    PYTHONPATH=src python tests/test_detection_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.atpg.transition import generate_transition_tests
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.circuits.library import embedded_circuit
from repro.faults.detection import (
    _pregrade_activation,
    _prepare_reach,
    compute_detection_data,
    incremental_detection_data,
)
from repro.faults.universe import small_delay_fault_universe
from repro.timing.sta import run_sta

GOLDEN_FILE = (Path(__file__).resolve().parent / "data"
               / "detection_golden.json")


def _generated(name, n_gates, n_ffs, n_inputs, n_outputs, depth, seed,
               **knobs):
    return lambda: generate_circuit(CircuitProfile(
        name=name, n_gates=n_gates, n_ffs=n_ffs, n_inputs=n_inputs,
        n_outputs=n_outputs, depth=depth, seed=seed, **knobs))


#: name → circuit builder (``small_generated`` is the conftest fixture).
CASES = {
    "s27": lambda: embedded_circuit("s27"),
    "c17": lambda: embedded_circuit("c17"),
    "small_generated": _generated(
        "gen60", 60, 12, 8, 4, 7, 5, endpoint_side_gates=1,
        short_path_ppo_fraction=0.3),
    "gen90": _generated("gen90", 90, 10, 7, 4, 8, 21),
    "gen140": _generated("gen140", 140, 16, 9, 5, 10, 34,
                         long_edge_prob=0.3),
}


def _workload(circuit, *, seed=3, cap=12, fill=True):
    """A flow-like detection workload: universe, patterns, monitors."""
    faults = small_delay_fault_universe(circuit)
    test_set = generate_transition_tests(circuit, seed=seed).test_set
    if len(test_set) > cap:
        test_set = test_set.subset(range(cap))
    if fill:
        test_set = test_set.filled(seed=seed)
    obs = sorted(op.gate for op in circuit.observation_points())
    monitored = frozenset(obs[::2])
    horizon = run_sta(circuit).clock_period
    return faults, test_set, monitored, horizon


def _run(circuit, faults, test_set, monitored, horizon,
         detect=compute_detection_data):
    return detect(circuit, faults, test_set, horizon=horizon,
                  monitored_gates=monitored)


def _assert_identical(a, b):
    assert set(a.ranges) == set(b.ranges)
    for fi, per_pattern in a.ranges.items():
        assert set(per_pattern) == set(b.ranges[fi])
        for pi, fpr in per_pattern.items():
            other = b.ranges[fi][pi]
            assert fpr.i_all == other.i_all, (fi, pi)
            assert fpr.i_mon == other.i_mon, (fi, pi)


def _intervals(ivs) -> str:
    # Engines agree to EPS (1e-9 ps), not to the last bit: six decimals.
    return ",".join(f"{iv.lo:.6f}:{iv.hi:.6f}" for iv in ivs)


def detection_fingerprint(data) -> dict:
    """sha256 of the canonical (fault, pattern, i_all, i_mon) table."""
    h = hashlib.sha256()
    entries = 0
    for fi in sorted(data.ranges):
        f = data.faults[fi]
        key = (f"{f.site.gate}.{f.site.pin}.{f.polarity}."
               f"{f.delta:.6f}")
        for pi, fpr in sorted(data.ranges[fi].items()):
            h.update(f"{key}|{pi}|{_intervals(fpr.i_all)}|"
                     f"{_intervals(fpr.i_mon)}\n".encode())
            entries += 1
    return {"faults": len(data.faults),
            "patterns": len(data.patterns),
            "faults_with_ranges": len(data.ranges),
            "entries": entries,
            "table_sha256": h.hexdigest()}


def case_fingerprint(name: str, **kw) -> dict:
    circuit = CASES[name]()
    return detection_fingerprint(_run(circuit, *_workload(circuit), **kw))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.fixture(params=list(CASES))
def golden_case(request):
    return request.param, CASES[request.param]()


def test_golden_covers_every_case(golden):
    assert set(golden["circuits"]) == set(CASES)


class TestGoldenEquivalence:
    def test_engines_bit_identical(self, golden_case, golden):
        name, circuit = golden_case
        faults, ts, monitored, horizon = _workload(circuit)
        results = {
            engine: _run(circuit, faults, ts, monitored, horizon,
                         detect=detect)
            for engine, detect in (
                ("wordwave", compute_detection_data),
                ("incremental", incremental_detection_data))
        }
        assert results["incremental"].ranges, "workload detected nothing"
        _assert_identical(results["wordwave"], results["incremental"])
        for engine, data in results.items():
            assert detection_fingerprint(data) == \
                golden["circuits"][name], engine


class TestPregradeSoundness:
    def test_masks_cover_all_detecting_pairs(self, s27):
        faults, ts, monitored, horizon = _workload(s27)
        faults = list(faults)
        _reach, site_signal = _prepare_reach(s27, faults)
        masks = _pregrade_activation(s27, ts, site_signal)
        assert masks is not None
        data = _run(s27, faults, ts, monitored, horizon)
        # Every pair that produced a range must have survived pre-grading:
        # a cleared bit claims the site is provably quiet for that pattern.
        for fi, per_pattern in data.ranges.items():
            for pi in per_pattern:
                assert masks[fi] & (1 << pi), (fi, pi)

    def test_masks_disabled_with_dont_cares(self, s27):
        # X bits cannot be packed into toggle words: grading must disable
        # itself (the flow fills patterns before simulation, so this guard
        # is defensive).
        from repro.atpg.patterns import PatternPair, TestSet
        from repro.simulation.logic import X

        n = len(s27.sources())
        ts = TestSet(s27, [PatternPair((X,) + (0,) * (n - 1), (1,) * n)])
        assert ts[0].has_dont_cares
        _reach, site_signal = _prepare_reach(s27, list(
            small_delay_fault_universe(s27)))
        assert _pregrade_activation(s27, ts, site_signal) is None


class TestDetectionRangeMemo:
    def test_repeated_query_returns_cached_object(self, flow_result_small):
        data = flow_result_small.data
        clock = flow_result_small.clock
        configs = tuple(flow_result_small.configs.delays)
        fi = next(iter(data.ranges))
        first = data.detection_range(fi, configs, clock.t_min, clock.t_nom)
        again = data.detection_range(fi, configs, clock.t_min, clock.t_nom)
        assert again is first


if __name__ == "__main__":  # pragma: no cover
    payload = {"circuits": {name: case_fingerprint(name) for name in CASES}}
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN_FILE}")
