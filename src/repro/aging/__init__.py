"""Wear-out and early-life failure modeling.

The motivation of the paper (Sec. I/II-B): device delays degrade over the
lifetime through BTI/HCI/EM, while *marginal* young devices fail early with
rapidly magnifying small delays.  This package provides the analytic
degradation models, the lifetime simulation driving the programmable
monitors, and the failure predictor that turns monitor alerts into
remaining-margin estimates.
"""

from repro.aging.api import (
    DegradationModel,
    combined_delay_factors,
)
from repro.aging.core import active_models, aged_circuit, sample_workload
from repro.aging.degradation import (
    AgingScenario,
    BtiModel,
    EmModel,
    HciModel,
    aged_copy,
)
from repro.aging.fleet import (
    FleetPopulation,
    FleetResult,
    sample_population,
    simulate_fleet_reference,
    simulate_fleet_vectorized,
)
from repro.aging.hazard import WeibullHazard, WeibullMixture
from repro.aging.lifetime import LifetimeResult, LifetimeSimulator
from repro.aging.marginal import MarginalDeviceModel, inject_marginal_defects
from repro.aging.mitigation import (
    AdaptiveLifetimeResult,
    AdaptiveLifetimeSimulator,
    MitigationPolicy,
)
from repro.aging.prediction import (
    FailurePredictor,
    FleetPredictions,
    PredictionReport,
    predict_fleet,
)
from repro.aging.scenario import ScenarioSpec, VariationSpec

__all__ = [
    "DegradationModel",
    "combined_delay_factors",
    "active_models",
    "aged_circuit",
    "aged_copy",
    "sample_workload",
    "AgingScenario",
    "BtiModel",
    "HciModel",
    "EmModel",
    "LifetimeResult",
    "LifetimeSimulator",
    "MarginalDeviceModel",
    "inject_marginal_defects",
    "AdaptiveLifetimeResult",
    "AdaptiveLifetimeSimulator",
    "MitigationPolicy",
    "FailurePredictor",
    "PredictionReport",
    "FleetPopulation",
    "FleetResult",
    "FleetPredictions",
    "ScenarioSpec",
    "VariationSpec",
    "WeibullHazard",
    "WeibullMixture",
    "sample_population",
    "simulate_fleet_reference",
    "simulate_fleet_vectorized",
    "predict_fleet",
]
