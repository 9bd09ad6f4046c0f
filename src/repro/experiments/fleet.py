"""Fleet-scale Monte Carlo aging study.

Drives the ``aging`` pipeline stage over a device population and distils
the paper's population-level claims (Sec. II-B): how detection latency,
prediction lead time and mispredict rate distribute across a shipped
fleet, and how the infant-mortality sub-population differs from the
wear-out bulk.  The study runs as a two-stage pipeline (``sta`` →
``aging``) through the per-stage artifact cache, so repeated sweeps over
device counts or analysis settings reuse the timing artifacts, and an
identical (circuit, scenario, devices) run replays entirely from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.aging.scenario import ScenarioSpec
from repro.core.config import FlowConfig
from repro.core.pipeline import Pipeline
from repro.core.stages import AgingStage, FleetArtifact, StaStage, StageContext
from repro.experiments.artifact_cache import StageCache, cache_enabled
from repro.netlist.circuit import Circuit

#: The sta -> aging sub-pipeline; sharing StaStage with the Fig. 4 flow
#: means fleet runs amortize cached STA artifacts and vice versa.
FLEET_PIPELINE_STAGES = (StaStage, AgingStage)


@dataclass
class FleetStudy:
    """One fleet run: the stage artifact plus run/cache metadata."""

    circuit: str
    devices: int
    artifact: FleetArtifact
    meta: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        """JSON-able study digest (metrics + distributions)."""
        return {
            "circuit": self.circuit,
            "devices": self.devices,
            "metrics": self.artifact.metrics,
            "distributions": fleet_distributions(self.artifact),
            "stage_seconds": {
                name: round(info["seconds"], 6)
                for name, info in self.meta.get("stages", {}).items()
            },
            "cache": self.meta.get("cache"),
        }


def _percentiles(values: np.ndarray) -> dict[str, float] | None:
    values = values[~np.isnan(values)]
    if values.size == 0:
        return None
    pct = np.percentile(values, [5, 25, 50, 75, 95])
    return {
        "count": int(values.size),
        "mean": float(np.mean(values)),
        "p5": float(pct[0]), "p25": float(pct[1]), "p50": float(pct[2]),
        "p75": float(pct[3]), "p95": float(pct[4]),
    }


def fleet_distributions(artifact: FleetArtifact) -> dict[str, Any]:
    """Distribution summaries of the fleet outcome quantities.

    * ``detection_latency`` — device age at the first monitor alert;
    * ``lead_time`` — failure time minus first warning (detected devices);
    * ``failure_time`` — actual failure times across the population;
    * ``infant``/``wearout`` — failure-time split by mixture component.
    """
    result = artifact.result
    preds = artifact.predictions
    failure = preds.actual_failure
    infant = result.population.is_infant
    with np.errstate(invalid="ignore"):
        lead = preds.lead_time
    return {
        "detection_latency": _percentiles(preds.first_warning),
        "lead_time": _percentiles(lead),
        "failure_time": _percentiles(failure),
        "infant_failure_time": _percentiles(failure[infant]),
        "wearout_failure_time": _percentiles(failure[~infant]),
        "infant_devices": int(np.count_nonzero(infant)),
    }


def run_fleet_study(circuit: Circuit, *,
                    spec: ScenarioSpec | None = None,
                    devices: int = 1024,
                    jobs: int = 1,
                    config: FlowConfig | None = None,
                    cache: StageCache | None = None,
                    use_cache: bool | None = None) -> FleetStudy:
    """Run (or replay from cache) one fleet Monte Carlo study.

    ``jobs`` shards the population over worker processes (bit-identical);
    ``use_cache`` defaults to the ``REPRO_FLOW_CACHE`` environment toggle.
    """
    ctx = StageContext(circuit=circuit, config=config or FlowConfig(),
                       fleet_spec=spec, fleet_devices=devices,
                       fleet_jobs=jobs)
    if use_cache is None:
        use_cache = cache_enabled()
    store = cache if cache is not None else (
        StageCache() if use_cache else None)
    pipeline = Pipeline(tuple(s() for s in FLEET_PIPELINE_STAGES))
    artifacts, meta = pipeline.run(ctx, cache=store)
    artifact: FleetArtifact = artifacts["aging"]
    return FleetStudy(circuit=circuit.name, devices=devices,
                      artifact=artifact, meta=meta)
