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
