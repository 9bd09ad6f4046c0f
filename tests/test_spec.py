"""JobSpec layer: round-trip, canonical fingerprints, validation.

The fingerprint matrix mirrors ``tests/test_pipeline_cache.py``: every
*semantic* field flip must change the fingerprint (two submissions with
different results must never dedupe onto each other), while execution
knobs (workers, sharding, process counts) must leave it unchanged.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.spec import (
    DEFAULT_CHECKPOINTS,
    FleetJob,
    FlowJob,
    JOB_TYPES,
    ReschedJob,
    ScenarioSpec,
    SpecError,
    SuiteJob,
    job_from_dict,
    job_from_json,
    load_job,
)


def example_jobs() -> dict[str, object]:
    return {
        "flow": FlowJob(circuit="s27", fast_ratio=2.5, pattern_cap=9),
        "suite": SuiteJob(names=("s27", "c17"), scale=0.6, workers=2),
        "fleet": FleetJob(circuit="s27", devices=64, jobs=2,
                          scenario=ScenarioSpec(seed=3)),
        "resched": ReschedJob(circuit="s27",
                              alerts=(((13, 2.0),), ((13, 0.5), (16, 1.0))),
                              max_gates=2),
    }


JOB_IDS = sorted(example_jobs())


@pytest.fixture(params=JOB_IDS)
def job(request):
    return example_jobs()[request.param]


class TestRoundTrip:
    def test_json_spec_json_identity(self, job):
        reparsed = job_from_json(job.to_json())
        assert reparsed == job
        assert reparsed.to_json() == job.to_json()

    def test_dict_round_trip_preserves_kind(self, job):
        document = json.loads(job.to_json())
        assert document["kind"] == job.kind
        assert type(job_from_dict(document)) is JOB_TYPES[job.kind]

    def test_defaults_round_trip(self):
        for cls in (FlowJob, FleetJob, ReschedJob):
            spec = cls(circuit="s27")
            assert job_from_json(spec.to_json()) == spec
        suite = SuiteJob(names=("s27",))
        assert job_from_json(suite.to_json()) == suite

    def test_save_load_file(self, job, tmp_path):
        path = tmp_path / "job.json"
        job.save(path)
        assert load_job(path) == job

    def test_scenario_nests_as_plain_document(self):
        spec = FleetJob(circuit="s27", scenario=ScenarioSpec(seed=5))
        document = json.loads(spec.to_json())
        assert document["scenario"]["seed"] == 5
        assert job_from_dict(document).scenario == spec.scenario


class TestFingerprint:
    def test_stable_across_key_reordering(self, job):
        document = job.to_dict()
        shuffled = dict(reversed(list(document.items())))
        assert job_from_dict(shuffled).fingerprint() == job.fingerprint()

    def test_stable_across_json_round_trip(self, job):
        assert job_from_json(job.to_json()).fingerprint() == \
            job.fingerprint()

    def test_distinct_across_kinds(self):
        jobs = example_jobs()
        prints = {jobs[k].fingerprint() for k in JOB_IDS}
        assert len(prints) == len(JOB_IDS)

    #: (kind, semantic field override) — every flip must change the
    #: fingerprint, mirroring the stage-cache invalidation matrix.
    SEMANTIC = [
        ("flow", {"circuit": "c17"}),
        ("flow", {"fast_ratio": 2.0}),
        ("flow", {"monitor_fraction": 0.5}),
        ("flow", {"pattern_cap": 4}),
        ("flow", {"atpg_seed": 11}),
        ("flow", {"with_schedules": False}),
        ("flow", {"with_coverage_schedules": True}),
        ("suite", {"names": ("s27",)}),
        ("suite", {"scale": 1.0}),
        ("suite", {"with_schedules": False}),
        ("suite", {"fast_ratio": 2.0}),
        ("suite", {"monitor_fraction": 0.5}),
        ("suite", {"atpg_seed": 11}),
        ("fleet", {"circuit": "c17"}),
        ("fleet", {"devices": 128}),
        ("fleet", {"scenario": ScenarioSpec(seed=4)}),
        ("resched", {"circuit": "c17"}),
        ("resched", {"alerts": (((13, 2.0),),)}),
        ("resched", {"scenario": ScenarioSpec()}),
        ("resched", {"max_gates": 1}),
        ("resched", {"atpg_seed": 3}),
    ]

    @pytest.mark.parametrize(
        "kind,override", SEMANTIC,
        ids=[f"{k}:{next(iter(o))}" for k, o in SEMANTIC])
    def test_semantic_field_changes_fingerprint(self, kind, override):
        base = example_jobs()[kind]
        assert replace(base, **override).fingerprint() != \
            base.fingerprint()

    #: Execution knobs: results are bit-identical, fingerprints equal.
    NON_SEMANTIC = [
        ("suite", {"workers": 8}),
        ("fleet", {"jobs": 16}),
    ]

    @pytest.mark.parametrize(
        "kind,override", NON_SEMANTIC,
        ids=[f"{k}:{next(iter(o))}" for k, o in NON_SEMANTIC])
    def test_execution_knob_keeps_fingerprint(self, kind, override):
        base = example_jobs()[kind]
        assert replace(base, **override).fingerprint() == \
            base.fingerprint()

    def test_alert_pair_order_is_canonicalized(self):
        a = ReschedJob(circuit="s27", alerts=(((16, 1.0), (13, 0.5)),))
        b = ReschedJob(circuit="s27", alerts=(((13, 0.5), (16, 1.0)),))
        assert a.alerts == b.alerts
        assert a.fingerprint() == b.fingerprint()


class TestValidation:
    def test_unknown_field_lists_known(self):
        # The retired engine selections and the suite executor switch
        # are unknown fields like any other.
        for kind, field_, value in (
                ("flow", "frobnicate", 1),
                ("flow", "engines", [["atpg", "reference"]]),
                ("resched", "engine", "cold"),
                ("suite", "sharded", True)):
            with pytest.raises(SpecError,
                               match=rf"unknown {kind} job field\(s\): "
                                     rf"{field_} \(known fields: "):
                target = {"names": ["s27"]} if kind == "suite" else {
                    "circuit": "s27"}
                job_from_dict({"kind": kind, **target, field_: value})

    def test_missing_kind_lists_kinds(self):
        with pytest.raises(SpecError,
                           match="fleet, flow, resched, suite"):
            job_from_dict({"circuit": "s27"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown job kind 'warp'"):
            job_from_dict({"kind": "warp"})

    def test_wrong_kind_for_class(self):
        with pytest.raises(SpecError, match="expected a 'flow' job"):
            FlowJob.from_dict({"kind": "fleet", "circuit": "s27"})

    def test_non_object_document(self):
        with pytest.raises(SpecError, match="JSON object"):
            job_from_dict([1, 2, 3])

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            job_from_json("{nope")

    def test_empty_circuit_rejected(self):
        with pytest.raises(SpecError, match="non-empty 'circuit'"):
            FlowJob(circuit="")

    def test_malformed_alerts_rejected(self):
        with pytest.raises(SpecError, match=r"alert #0"):
            ReschedJob(circuit="s27", alerts=("nope",))

    def test_unknown_profile_lists_known(self):
        with pytest.raises(SpecError, match="known: quick, paper, synth"):
            SuiteJob.from_profile("huge")

    def test_type_error_becomes_spec_error(self):
        with pytest.raises(SpecError, match="invalid flow job"):
            job_from_dict({"kind": "flow", "circuit": "s27",
                           "fast_ratio": "fast"})


class TestProfilesAndConfigs:
    def test_quick_profile_matches_run_config(self):
        from repro.experiments.runner import SuiteRunConfig

        job = SuiteJob.from_profile("quick")
        assert job.run_config() == SuiteRunConfig.quick()

    def test_synth_profile_skips_schedules(self):
        job = SuiteJob.from_profile("synth", count=3)
        assert len(job.names) == 3
        assert not job.with_schedules

    def test_profile_overrides_drop_none(self):
        job = SuiteJob.from_profile("quick", scale=None, workers=4)
        assert job.scale == 0.6
        assert job.workers == 4

    def test_flow_job_config_keeps_job_knobs_out(self):
        job = FlowJob(circuit="s27", fast_ratio=2.5)
        assert job.flow_config().fast_ratio == 2.5
        assert not [name for name in job.to_dict() if "jobs" in name]

    def test_default_checkpoints_are_geometric(self):
        ratios = {round(b / a, 6) for a, b in zip(DEFAULT_CHECKPOINTS,
                                                  DEFAULT_CHECKPOINTS[1:])}
        assert len(ratios) == 1
