"""Live performance guards for the per-stage kernels.

Each guard replays one small quick-profile workload and fails when the
stage has regressed by more than 2x against the wall clock recorded for
it (with an absolute slack so a loaded CI machine cannot produce
spurious failures); the resched and service guards assert their
absolute acceptance bounds instead.  The recorded seconds are module
constants, measured on the s9234 quick-profile workloads (the PODEM and
step-1 presolve guards use p89k, where those kernels have real work).
End-to-end performance is measured by ``bench/run.py`` (see
``bench/README.md``).  Run explicitly with ``pytest -m perf``.
"""

from __future__ import annotations

import time

import pytest

from repro.circuits.library import QUICK_SUITE_NAMES
from repro.core.config import FlowConfig
from repro.experiments.runner import SuiteRunConfig, run_suite
from repro.faults.detection import (
    compute_detection_data,
    incremental_detection_data,
)
from repro.scheduling.baselines import conventional_targets
from repro.scheduling.schedule import optimize_schedule

#: Regression factor + absolute slack (seconds) tolerated before failing.
MAX_SLOWDOWN = 2.0
ABS_SLACK_S = 0.25

#: Circuit every per-stage guard replays (quick profile, scale 0.6).
GUARD_CIRCUIT = "s9234"

#: Recorded seconds per detection engine on the guard circuit.
DETECTION_S = {"wordwave": 0.0154, "incremental": 0.0523}
#: Recorded seconds of the conv/heur/prop + relaxed-coverage schedules.
SCHEDULE_S = 0.0399
#: Recorded seconds of matrix ATPG (seed 7).
ATPG_S = 0.2599
#: Recorded seconds of the summed PODEM timer of matrix ATPG (seed 7) on
#: p89k at scale 0.6 (best of two): 483 generate calls, 1,002 faults
#: untestable, 36 aborted.
PODEM_S = 1.32
PODEM_CIRCUIT = "p89k"
PODEM_SCALE = 0.6
#: Recorded seconds of the uncached fleet study and its workload.
FLEET_S = 0.3193
FLEET_DEVICES = 4096
FLEET_SEED = 42
#: Recorded 8-worker drain of the timed suite matrix and its shape.
SUITE_WORKERS = 8
SUITE_S = 1.847
SUITE_CIRCUITS = 120
SUITE_SERIAL_S = 12.0
#: Relative duration model of the six pipeline stages in the timed matrix
#: (measured shape of the real flow: ATPG and simulation dominate,
#: schedule is the mid cost).
SUITE_STAGE_WEIGHTS = {"sta": 0.05, "faults": 0.04, "atpg": 0.30,
                       "simulation": 0.40, "classify": 0.04,
                       "schedule": 0.17}
#: Recorded seconds of the step-1 presolve on the p89k scale-1.0 prop
#: instance (64 seeded random patterns; 317 candidates x 1,219 faults).
STEP1_PRESOLVE_S = 0.0172
STEP1_CIRCUIT = "p89k"
STEP1_PATTERNS = 64
#: Recorded seconds of the range layers (classify + target_ranges +
#: discretize + step2 of conv/heur/prop), cold, best of three, on the p89k
#: input of the ``analysis-large`` benchmark workload (scale 4.0, 64 seeded
#: random patterns; 13,388 (fault, pattern) entries).  The per-fault
#: IntervalSet layers this replaced took 1.23 s, above the 0.92 s budget.
RANGE_LAYER_S = 0.334
RANGE_CIRCUIT = "p89k"
RANGE_SCALE = 4.0
RANGE_PATTERNS = 64
#: Job document and repeat count of the service replay guard.
SERVICE_JOB = {"kind": "flow", "circuit": "s27", "with_schedules": True}
SERVICE_REPEATS = 15


def _budget(recorded_s: float) -> float:
    return MAX_SLOWDOWN * recorded_s + ABS_SLACK_S


@pytest.mark.perf
def test_service_replay_is_interactive():
    """Cold-run the guard job on a throwaway stage store, then replay it;
    the median warm latency must stay under the 50 ms acceptance bound
    (absolute, not relative — the bound is the claim).
    """
    import tempfile
    from statistics import median as _median

    from repro.core.spec import job_from_dict
    from repro.experiments.artifact_cache import StageCache
    from repro.service.orchestrator import run_job

    job = job_from_dict(SERVICE_JOB)
    with tempfile.TemporaryDirectory() as td:
        store = StageCache(td)
        cold = run_job(job, store=store)
        assert cold.cache == "miss"
        latencies = []
        for _ in range(SERVICE_REPEATS):
            t0 = time.perf_counter()
            replay = run_job(job, store=store)
            latencies.append(1000.0 * (time.perf_counter() - t0))
            assert replay.cache == "hit"
    median_ms = _median(latencies)
    assert median_ms < 50.0, (
        f"warm-store service replay median {median_ms:.2f} ms >= 50 ms "
        f"({latencies})")


@pytest.mark.perf
def test_suite_scaling_has_not_regressed():
    import tempfile
    import uuid

    from repro.circuits.library import synthetic_suite
    from repro.experiments.artifact_cache import StageCache
    from repro.experiments.shard import TimedStage, run_plan, timed_plan

    budget = _budget(SUITE_S)
    # Rebuild the timed matrix (deterministic from the synthetic
    # entries) and drain it at 8 workers.  Per-circuit cost tracks the
    # entry's structural size (gates x patterns), split across stages by
    # SUITE_STAGE_WEIGHTS and normalized to a SUITE_SERIAL_S serial total.
    entries = synthetic_suite(SUITE_CIRCUITS)
    raw = {e.name: float(e.gates) * max(1, e.patterns) for e in entries}
    norm = SUITE_SERIAL_S / sum(raw.values())
    specs = [TimedStage(e.name, stage, raw[e.name] * norm * weight)
             for e in entries
             for stage, weight in SUITE_STAGE_WEIGHTS.items()]
    plan = timed_plan(specs, nonce=uuid.uuid4().hex)
    with tempfile.TemporaryDirectory() as td:
        t0 = time.perf_counter()
        run_plan(plan, workers=SUITE_WORKERS, store=StageCache(td))
        elapsed = time.perf_counter() - t0
    assert elapsed <= budget, (
        f"{SUITE_WORKERS}-worker timed drain took {elapsed:.3f}s, budget "
        f"{budget:.3f}s (recorded {SUITE_S:.3f}s x {MAX_SLOWDOWN} "
        f"+ {ABS_SLACK_S}s)")


@pytest.mark.perf
def test_fleet_has_not_regressed():
    from repro.aging.scenario import ScenarioSpec
    from repro.circuits.library import suite_circuit
    from repro.experiments.fleet import run_fleet_study

    budget = _budget(FLEET_S)
    circuit = suite_circuit(GUARD_CIRCUIT)
    elapsed = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        run_fleet_study(circuit, spec=ScenarioSpec(seed=FLEET_SEED),
                        devices=FLEET_DEVICES)
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert elapsed <= budget, (
        f"vectorized fleet study on {GUARD_CIRCUIT} took {elapsed:.3f}s, "
        f"budget {budget:.3f}s (recorded {FLEET_S:.3f}s x "
        f"{MAX_SLOWDOWN} + {ABS_SLACK_S}s)")


@pytest.mark.perf
def test_detection_has_not_regressed():
    res = run_suite(SuiteRunConfig.quick(names=(GUARD_CIRCUIT,),
                                         with_schedules=False))[GUARD_CIRCUIT]
    for engine, detect in (("wordwave", compute_detection_data),
                           ("incremental", incremental_detection_data)):
        recorded_s = DETECTION_S[engine]
        budget = _budget(recorded_s)
        # Warm-up run (fills plan/cone-schedule caches), then the measured.
        for _ in range(2):
            t0 = time.perf_counter()
            detect(res.circuit, res.data.faults, res.test_set,
                   horizon=res.clock.t_nom,
                   monitored_gates=res.placement.monitored_gates)
            elapsed = time.perf_counter() - t0
        assert elapsed <= budget, (
            f"{engine} detection on {GUARD_CIRCUIT} took {elapsed:.3f}s, "
            f"budget {budget:.3f}s (recorded {recorded_s:.3f}s x "
            f"{MAX_SLOWDOWN} + {ABS_SLACK_S}s)")


@pytest.mark.perf
def test_atpg_has_not_regressed():
    from repro.atpg.transition import generate_transition_tests
    from repro.circuits.library import suite_circuit

    budget = _budget(ATPG_S)
    circuit = suite_circuit(GUARD_CIRCUIT, scale=0.6)  # quick-profile size
    # Warm-up run (fills cone-schedule caches), then the measured one.
    for _ in range(2):
        t0 = time.perf_counter()
        generate_transition_tests(circuit, seed=7)
        elapsed = time.perf_counter() - t0
    assert elapsed <= budget, (
        f"matrix ATPG on {GUARD_CIRCUIT} took {elapsed:.3f}s, "
        f"budget {budget:.3f}s (recorded {ATPG_S:.3f}s x {MAX_SLOWDOWN} "
        f"+ {ABS_SLACK_S}s)")


@pytest.mark.perf
def test_podem_has_not_regressed():
    """Time PODEM alone on a case whose searches end in tests, untestable
    proofs and aborts alike (best of two runs)."""
    from repro.atpg.transition import generate_transition_tests
    from repro.circuits.library import suite_circuit
    from repro.utils.profiling import StageTimer

    budget = _budget(PODEM_S)
    circuit = suite_circuit(PODEM_CIRCUIT, scale=PODEM_SCALE)
    elapsed = float("inf")
    for _ in range(2):
        timer = StageTimer()
        result = generate_transition_tests(circuit, seed=7, timer=timer)
        elapsed = min(elapsed, timer.totals["podem"])
    assert result.untestable and result.aborted
    assert elapsed <= budget, (
        f"PODEM on {PODEM_CIRCUIT} at scale {PODEM_SCALE} took "
        f"{elapsed:.3f}s, budget {budget:.3f}s (recorded {PODEM_S:.3f}s x "
        f"{MAX_SLOWDOWN} + {ABS_SLACK_S}s)")


@pytest.mark.perf
def test_resched_interactive_and_faster_than_cold():
    """Replay the alert-burst workload over the quick-profile circuits
    (best of two rounds per side) and assert the two headline claims
    directly: single-alert re-solve latency under 100 ms median, and the
    incremental engine at least 5x faster than the cold pipeline on the
    burst replay — with every incremental schedule cost-equal to its
    cold counterpart.
    """
    from statistics import median as _median

    from repro.experiments.resched import replay_result

    names = tuple(QUICK_SUITE_NAMES)
    results = run_suite(SuiteRunConfig.quick(names=names,
                                             with_schedules=False))
    best: dict[str, object] = {}
    for _ in range(2):
        for name in names:
            replay = replay_result(results[name])
            assert replay.cost_equal, name
            prev = best.get(name)
            if prev is None:
                best[name] = replay
                continue
            winner = replay if replay.total_s < prev.total_s else prev
            other = prev if winner is replay else replay
            if other.cold_total_s < winner.cold_total_s:
                winner.cold_s = other.cold_s
            best[name] = winner
    latencies = sorted(s for r in best.values() for s in r.latencies_s)
    inc = sum(r.total_s for r in best.values())
    cold = sum(r.cold_total_s for r in best.values())
    median_ms = 1000.0 * _median(latencies)
    assert median_ms < 100.0, f"median re-solve {median_ms:.1f} ms"
    assert cold >= 5.0 * inc, (
        f"alert-burst replay speedup {cold / inc:.2f}x < 5x "
        f"(incremental {inc:.3f}s, cold {cold:.3f}s)")


@pytest.mark.perf
def test_schedule_has_not_regressed():
    budget = _budget(SCHEDULE_S)
    res = run_suite(SuiteRunConfig.quick(names=(GUARD_CIRCUIT,),
                                         with_schedules=False))[GUARD_CIRCUIT]
    data, cls_ = res.data, res.classification
    # The guard workload: conv/heur/prop plus two relaxed coverages,
    # measured cold (caches cleared), best of two runs.
    jobs = [(conventional_targets(cls_), None, "ilp", 1.0),
            (cls_.target, res.configs, "greedy", 1.0),
            (cls_.target, res.configs, "ilp", 1.0),
            (cls_.target, res.configs, "ilp", 0.95),
            (cls_.target, res.configs, "ilp", 0.90)]
    elapsed = float("inf")
    for _ in range(2):
        data._invalidate()
        t0 = time.perf_counter()
        for targets, configs, solver, cov in jobs:
            optimize_schedule(data, targets, res.clock, configs,
                              solver=solver, coverage=cov)
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert elapsed <= budget, (
        f"bitset scheduling on {GUARD_CIRCUIT} took {elapsed:.3f}s, "
        f"budget {budget:.3f}s (recorded {SCHEDULE_S:.3f}s x "
        f"{MAX_SLOWDOWN} + {ABS_SLACK_S}s)")


@pytest.mark.perf
def test_range_layer_has_not_regressed():
    """Time the layers that read the flat (fault, pattern) ranges from a
    cold range table, best of three runs: classification plus the
    ``target_ranges``, ``discretize`` and ``step2`` stages of the
    conv/heur/prop schedules (step-1 cover solving is left out)."""
    from repro.atpg.patterns import random_test_set
    from repro.circuits.library import suite_circuit, suite_entry
    from repro.core.flow import HdfTestFlow
    from repro.faults.classify import classify_faults
    from repro.scheduling.baselines import (
        conventional_schedule,
        heuristic_schedule,
        proposed_schedule,
    )
    from repro.utils.profiling import StageTimer

    budget = _budget(RANGE_LAYER_S)
    circuit = suite_circuit(RANGE_CIRCUIT, scale=RANGE_SCALE)
    test_set = random_test_set(circuit, RANGE_PATTERNS,
                               seed=suite_entry(RANGE_CIRCUIT).seed)
    res = HdfTestFlow(circuit, FlowConfig()).run(test_set=test_set,
                                                 with_schedules=False)
    data, clock, configs = res.data, res.clock, res.configs
    elapsed = float("inf")
    for _ in range(3):
        data._invalidate()
        timer = StageTimer()
        t0 = time.perf_counter()
        cls_ = classify_faults(data, clock, configs)
        classify_s = time.perf_counter() - t0
        conventional_schedule(data, cls_, clock, timer=timer)
        heuristic_schedule(data, cls_, clock, configs, timer=timer)
        proposed_schedule(data, cls_, clock, configs, timer=timer)
        layers_s = classify_s + sum(
            timer.totals[stage]
            for stage in ("target_ranges", "discretize", "step2"))
        elapsed = min(elapsed, layers_s)
    assert cls_.target == res.classification.target
    assert elapsed <= budget, (
        f"range layers on {RANGE_CIRCUIT} at scale {RANGE_SCALE} took "
        f"{elapsed:.3f}s, budget {budget:.3f}s (recorded "
        f"{RANGE_LAYER_S:.3f}s x {MAX_SLOWDOWN} + {ABS_SLACK_S}s)")


@pytest.mark.perf
def test_step1_presolve_has_not_regressed():
    """Time the bit-matrix presolve on the step-1 cover problem of the
    p89k proposed schedule at scale 1.0, where it keeps one 317-column
    ILP component (best of three runs)."""
    from repro.atpg.patterns import random_test_set
    from repro.circuits.library import suite_circuit, suite_entry
    from repro.core.flow import HdfTestFlow
    from repro.scheduling.schedule import _candidate_set_cached
    from repro.scheduling.setcover import CoverProblem, presolve_cover

    budget = _budget(STEP1_PRESOLVE_S)
    circuit = suite_circuit(STEP1_CIRCUIT, scale=1.0)
    test_set = random_test_set(circuit, STEP1_PATTERNS,
                               seed=suite_entry(STEP1_CIRCUIT).seed)
    res = HdfTestFlow(circuit, FlowConfig()).run(test_set=test_set,
                                                 with_schedules=False)
    _ranges, cand_set = _candidate_set_cached(
        res.data, frozenset(res.classification.target), res.clock,
        res.configs, True, "mid", None)
    problem = CoverProblem.from_matrix(cand_set.matrix, cand_set.fault_ids)
    elapsed = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        red = presolve_cover(problem)
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert red.components, "the guard instance must keep an ILP component"
    assert elapsed <= budget, (
        f"step-1 presolve on {STEP1_CIRCUIT} took {elapsed:.3f}s, budget "
        f"{budget:.3f}s (recorded {STEP1_PRESOLVE_S:.3f}s x {MAX_SLOWDOWN} "
        f"+ {ABS_SLACK_S}s)")
