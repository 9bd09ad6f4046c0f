"""Shared fixtures for the benchmark harness.

Each paper artifact (Fig. 3, Tables I-III) has one benchmark module that
regenerates it and records the timing of the stage it exercises.  The
expensive flow runs are shared through the suite runner's cache; every
module also writes its regenerated rows to ``results/`` so the numbers in
EXPERIMENTS.md can be traced to a run.

Scale control: set ``REPRO_BENCH_SUITE=full`` to replay all 12 circuits at
full (reproduction) scale — several minutes; the default ``quick`` profile
runs a 4-circuit subset sized for CI.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.runner import SuiteRunConfig, run_suite

_PROFILE = os.environ.get("REPRO_BENCH_SUITE", "quick")

#: Artifacts are separated by profile so a quick CI run never overwrites
#: the full-scale tables EXPERIMENTS.md cites.
RESULTS_DIR = (Path(__file__).resolve().parent.parent / "results"
               / ("full" if _PROFILE == "full" else "quick"))

#: Machine-readable fault-simulation perf trajectory (see EXPERIMENTS.md):
#: written by test_bench_detection.py (per-engine quick-profile totals plus
#: the s38417-scale ``large_circuit`` entry), consumed by the perf smoke
#: test in tests/test_perf_smoke.py and by ``repro bench``.
BENCH_DETECTION_FILE = (Path(__file__).resolve().parent.parent
                        / "BENCH_detection.json")

#: Machine-readable schedule-optimization perf trajectory: written by
#: test_bench_schedule.py (bitset pipeline vs the retained seed reference),
#: consumed by the perf smoke test and by ``repro bench``.
BENCH_SCHEDULE_FILE = (Path(__file__).resolve().parent.parent
                       / "BENCH_schedule.json")

#: Machine-readable ATPG perf trajectory: written by test_bench_atpg.py
#: (packed fault×pattern grading vs the retained seed reference pipeline),
#: consumed by the perf smoke test and by ``repro bench --stage atpg``.
BENCH_ATPG_FILE = (Path(__file__).resolve().parent.parent
                   / "BENCH_atpg.json")

#: Machine-readable fleet Monte Carlo perf trajectory: written by
#: test_bench_fleet.py (vectorized block kernel vs the per-device
#: reference loop, plus the 10^5-device profile), consumed by the perf
#: smoke test and by ``repro bench --stage fleet``.
BENCH_FLEET_FILE = (Path(__file__).resolve().parent.parent
                    / "BENCH_fleet.json")

#: Machine-readable rescheduling perf trajectory: written by
#: test_bench_resched.py (incremental warm re-solve vs the cold full
#: recompute on the alert-burst replay), consumed by the perf smoke test
#: and by ``repro bench --stage resched``.
BENCH_RESCHED_FILE = (Path(__file__).resolve().parent.parent
                      / "BENCH_resched.json")

#: Machine-readable sharded-suite scaling trajectory: written by
#: test_bench_suite.py (workers-vs-wall-clock curve of the stage-unit
#: scheduler, the granularity ablation and the real-flow smoke matrix),
#: consumed by the perf smoke test and by ``repro bench --stage suite``.
BENCH_SUITE_FILE = (Path(__file__).resolve().parent.parent
                    / "BENCH_suite.json")

#: Machine-readable job-service replay baseline: written by
#: test_bench_service.py (cold JobSpec execution vs the all-stages-hit
#: resubmission replay through the facade), consumed by the perf smoke
#: test and by ``repro bench --stage service``.
BENCH_SERVICE_FILE = (Path(__file__).resolve().parent.parent
                      / "BENCH_service.json")


def _suite_config(**overrides) -> SuiteRunConfig:
    if _PROFILE == "full":
        return SuiteRunConfig(**overrides)
    return SuiteRunConfig.quick(**overrides)


@pytest.fixture(scope="session")
def suite_config() -> SuiteRunConfig:
    return _suite_config(with_schedules=True, with_coverage_schedules=True)


@pytest.fixture(scope="session")
def suite_results(suite_config):
    """Flow results for every suite circuit (cached, computed once)."""
    return run_suite(suite_config)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_artifact(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text)
