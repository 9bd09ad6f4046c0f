"""Removed ``FlowConfig`` knobs and engine selectors stay removed."""

from __future__ import annotations

import warnings

import pytest

from repro.core.config import FlowConfig


class TestShimsRemoved:
    def test_legacy_keywords_rejected(self):
        """The PR-5/7 deprecation shims are gone: the legacy keywords
        fail construction instead of warning."""
        with pytest.raises(TypeError, match="atpg_engine"):
            FlowConfig(atpg_engine="matrix")
        with pytest.raises(TypeError, match="simulation_engine"):
            FlowConfig(simulation_engine="wordwave")

    @pytest.mark.parametrize("name", ["sigma_fraction", "inertial_ps",
                                      "structural_prefilter",
                                      "ilp_time_limit"])
    def test_removed_fields_rejected(self, name):
        """Knobs only tests ever set are gone; the stages use the
        paper's constants instead."""
        with pytest.raises(TypeError, match=name):
            FlowConfig(**{name: 1})

    def test_engine_keywords_rejected(self):
        """Detection and the fleet sweep each have one production engine;
        the oracles are separate functions called by name."""
        import repro.aging.fleet as fleet
        from repro.faults.detection import compute_detection_data

        with pytest.raises(TypeError, match="engine"):
            compute_detection_data(None, [], None, horizon=1.0,
                                   engine="incremental")
        with pytest.raises(TypeError, match="jobs"):
            fleet.simulate_fleet_reference(None, None, None, jobs=2)
        assert not hasattr(fleet, "simulate_fleet")
        assert not hasattr(fleet, "FLEET_ENGINES")

    def test_no_legacy_attributes(self):
        cfg = FlowConfig()
        assert not hasattr(cfg, "atpg_engine")
        assert not hasattr(cfg, "simulation_engine")


class TestNoDeprecationWarnings:
    def test_internal_flow_paths_are_warning_free(self, s27):
        """No internal caller relies on removed legacy spellings.

        Runs the staged pipeline end to end with DeprecationWarnings
        escalated to errors.
        """
        from repro.core.flow import HdfTestFlow

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = FlowConfig(atpg_seed=1)
            HdfTestFlow(s27, config).run(with_schedules=False)
