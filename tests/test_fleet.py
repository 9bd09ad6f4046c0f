"""Tests for the fleet-scale Monte Carlo aging engine.

The heart of this file is the golden parity class: the vectorized
``(gates, devices)`` kernel must be *bit-identical* to the per-device
reference loop on a seeded population — not approximately equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aging.fleet import (
    sample_population,
    simulate_fleet_reference,
    simulate_fleet_vectorized,
)
from repro.aging.prediction import predict_fleet
from repro.aging.scenario import ScenarioSpec
from repro.experiments.artifact_cache import StageCache
from repro.experiments.fleet import fleet_distributions, run_fleet_study

SPEC = ScenarioSpec(seed=11)


@pytest.fixture(scope="module")
def golden_population(small_generated):
    return sample_population(small_generated, SPEC, 64)


@pytest.fixture(scope="module")
def reference_result(small_generated, golden_population):
    return simulate_fleet_reference(small_generated, SPEC,
                                    golden_population)


class TestPopulation:
    def test_deterministic_for_seed(self, s27):
        a = sample_population(s27, SPEC, 32)
        b = sample_population(s27, SPEC, 32)
        assert np.array_equal(a.amp_bti, b.amp_bti)
        assert np.array_equal(a.lifetime, b.lifetime)
        assert np.array_equal(a.weak_gate, b.weak_gate)
        c = sample_population(s27, SPEC.with_seed(12), 32)
        assert not np.array_equal(a.lifetime, c.lifetime)

    def test_infant_split_and_weak_gates(self, s27):
        pop = sample_population(s27, SPEC, 512)
        assert pop.is_infant.sum() == pop.infant_count
        # Weak-gate defects are exclusive to infant-mortality devices.
        assert np.all(pop.weak_delta0[~pop.is_infant] == 0.0)
        assert pop.infant_count > 0
        assert np.all(pop.weak_delta0[pop.is_infant].max(axis=1) > 0.0)

    def test_tau_clamped(self, s27):
        pop = sample_population(s27, SPEC, 512)
        assert np.all(pop.tau >= SPEC.tau_min)
        assert np.all(pop.tau <= SPEC.tau_max)

    def test_needs_a_device(self, s27):
        with pytest.raises(ValueError, match="at least one device"):
            sample_population(s27, SPEC, 0)


class TestGoldenParity:
    """Vectorized engine pinned bit-identical to the reference loop."""

    def test_bit_identical_on_seeded_population(self, small_generated,
                                                golden_population,
                                                reference_result):
        vec = simulate_fleet_vectorized(small_generated, SPEC,
                                        golden_population)
        assert np.array_equal(reference_result.slack, vec.slack)
        assert np.array_equal(reference_result.first_alert, vec.first_alert)
        assert np.array_equal(reference_result.failure, vec.failure)
        assert reference_result.clock_period == vec.clock_period
        assert reference_result.config_delays == vec.config_delays

    def test_partial_blocks_identical(self, small_generated,
                                      golden_population, reference_result):
        vec = simulate_fleet_vectorized(small_generated, SPEC,
                                        golden_population, block=7)
        assert np.array_equal(reference_result.slack, vec.slack)
        assert np.array_equal(reference_result.first_alert, vec.first_alert)
        assert np.array_equal(reference_result.failure, vec.failure)

    def test_sharded_run_identical(self, s27):
        pop = sample_population(s27, SPEC, 33)
        solo = simulate_fleet_vectorized(s27, SPEC, pop)
        sharded = simulate_fleet_vectorized(s27, SPEC, pop, jobs=3)
        assert np.array_equal(solo.slack, sharded.slack)
        assert np.array_equal(solo.first_alert, sharded.first_alert)
        assert np.array_equal(solo.failure, sharded.failure)


class TestFleetBehavior:
    def test_slack_monotone_decreasing(self, reference_result):
        # Degradation only accumulates: per-device slack never recovers.
        diffs = np.diff(reference_result.slack, axis=1)
        assert np.all(diffs <= 1e-12)

    def test_larger_delay_elements_alert_no_later(self, reference_result):
        alerts = reference_result.first_alert_times()
        for ci in range(alerts.shape[0] - 1):
            small, big = alerts[ci], alerts[ci + 1]
            both = ~np.isnan(small) & ~np.isnan(big)
            assert np.all(big[both] <= small[both])

    def test_failure_time_helpers(self, reference_result):
        ft = reference_result.failure_times()
        never = reference_result.failure < 0
        assert np.all(np.isnan(ft[never]))
        hit = ~never
        times = reference_result.times
        assert np.array_equal(ft[hit],
                              times[reference_result.failure[hit]])

    def test_first_warning_is_earliest_alert(self, reference_result):
        alerts = reference_result.first_alert_times()
        with np.errstate(invalid="ignore"):
            expected = np.nanmin(alerts, axis=0)
        got = reference_result.first_warning_times()
        assert np.array_equal(np.isnan(expected), np.isnan(got))
        mask = ~np.isnan(expected)
        assert np.array_equal(expected[mask], got[mask])

    def test_prediction_metrics_sane(self, reference_result):
        preds = predict_fleet(reference_result)
        m = preds.metrics()
        assert m["devices"] == 64
        assert 0.0 <= m["detection_rate"] <= 1.0
        assert 0.0 <= m["mispredict_rate"] <= 1.0
        assert m["failed"] == m["detected"] + m["missed"]


class TestFleetStudy:
    def test_cached_replay_identical(self, s27, tmp_path):
        cache = StageCache(tmp_path)
        first = run_fleet_study(s27, spec=SPEC, devices=48, cache=cache)
        replay = run_fleet_study(s27, spec=SPEC, devices=48, cache=cache)
        stages = replay.meta["stages"]
        assert all(info["cache"] == "hit" for info in stages.values())
        assert np.array_equal(first.artifact.result.slack,
                              replay.artifact.result.slack)
        assert first.artifact.metrics == replay.artifact.metrics

    def test_device_override_reuses_sta(self, s27, tmp_path):
        cache = StageCache(tmp_path)
        small = run_fleet_study(s27, spec=SPEC, devices=48, cache=cache)
        large = run_fleet_study(s27, spec=SPEC, devices=64, cache=cache)
        assert large.meta["stages"]["sta"]["cache"] == "hit"
        assert large.meta["stages"]["aging"]["cache"] == "miss"
        assert small.artifact.result.slack.shape[0] == 48
        assert large.artifact.result.slack.shape[0] == 64

    def test_summary_shape(self, s27):
        study = run_fleet_study(s27, spec=SPEC, devices=32)
        summary = study.summary()
        assert summary["devices"] == 32
        assert set(summary["distributions"]) >= {
            "detection_latency", "lead_time", "failure_time",
            "infant_failure_time", "wearout_failure_time",
            "infant_devices"}
        dist = fleet_distributions(study.artifact)
        assert dist["infant_devices"] == study.artifact.result \
            .population.infant_count
