"""Removed ``FlowConfig`` engine keywords stay removed."""

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
