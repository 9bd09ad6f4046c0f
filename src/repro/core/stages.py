"""Typed stages of the Fig. 4 flow.

Each paper step is a first-class :class:`Stage` object: a name, the
upstream stages it consumes, a typed output artifact dataclass, the
semantic :class:`~repro.core.config.FlowConfig` fields it reads, and a
per-stage ``CACHE_VERSION``.  The pipeline (:mod:`repro.core.pipeline`)
derives a content-addressed cache key for every stage from exactly these
declarations, so flipping one config knob invalidates precisely the stage
that reads it plus its downstream closure — nothing upstream.

Stage DAG (deps point left)::

    sta ──> faults ──────> simulation ──> classify ──> schedule
    atpg ─────────────────────^              sta ────────^
    (sta, atpg also feed simulation; sta feeds classify/schedule)

Each stage calls its one production implementation directly; the
retained alternatives (the incremental detection engine, the per-device
fleet loop) are reached through the functions' own ``engine=``
parameters, never through the flow.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.aging.fleet import (
    FleetResult,
    fleet_setup,
    sample_population,
    simulate_fleet_vectorized,
)
from repro.aging.prediction import FleetPredictions, predict_fleet
from repro.aging.scenario import ScenarioSpec
from repro.atpg.patterns import TestSet
from repro.atpg.transition import AtpgResult, generate_transition_tests
from repro.core.config import FlowConfig
from repro.faults.classify import (
    FaultClassification,
    StructuralFilterResult,
    classify_faults,
    structural_prefilter,
)
from repro.faults.detection import DetectionData, compute_detection_data
from repro.faults.models import SmallDelayFault
from repro.faults.universe import small_delay_fault_universe
from repro.monitors.insertion import MonitorPlacement, insert_monitors
from repro.monitors.monitor import MonitorConfigSet
from repro.netlist.circuit import Circuit
from repro.scheduling.baselines import (
    conventional_schedule,
    heuristic_schedule,
    proposed_schedule,
)
from repro.scheduling.schedule import ScheduleResult
from repro.timing.clock import ClockSpec
from repro.timing.sta import StaResult, run_sta
from repro.utils.profiling import StageTimer


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------
@dataclass
class StageContext:
    """Everything a stage may read while running one flow."""

    circuit: Circuit
    config: FlowConfig
    #: Externally supplied pattern set (bypasses the ATPG).
    test_set: TestSet | None = None
    with_schedules: bool = True
    with_coverage_schedules: bool = False
    #: Fleet Monte Carlo inputs (``aging`` stage only): scenario spec and
    #: population size.  ``None`` spec means the scenario defaults.
    fleet_spec: "ScenarioSpec | None" = None
    fleet_devices: int = 256
    #: Worker processes for the fleet sweep (1 = in-process; sharded runs
    #: are bit-identical, so this is not part of the cache key).
    fleet_jobs: int = 1
    #: Fine-grained profiling sink threaded into the stage internals
    #: (``pregrade``/``base_sim``/``random``/``step2``/... keys).
    timer: StageTimer | None = None
    #: Progress callback (the flow's ``progress=`` argument).
    note: Callable[[str], None] = lambda _msg: None


# ----------------------------------------------------------------------
# Typed artifacts
# ----------------------------------------------------------------------
@dataclass
class TimingArtifact:
    """Step 0: STA, clocking, monitor configurations and placement."""

    sta: StaResult
    clock: ClockSpec
    configs: MonitorConfigSet
    placement: MonitorPlacement


@dataclass
class FaultSetArtifact:
    """Step 1: fault universe after the topological screening."""

    universe_size: int
    prefilter: StructuralFilterResult | None
    faults: list[SmallDelayFault]


@dataclass
class PatternsArtifact:
    """Step 2: transition test set (generated or externally supplied)."""

    atpg: AtpgResult | None
    test_set: TestSet


@dataclass
class DetectionArtifact:
    """Steps 3+4: detection ranges under every monitor configuration."""

    data: DetectionData


@dataclass
class ClassificationArtifact:
    """Step 5: fault classification / target fault set."""

    classification: FaultClassification


@dataclass
class ScheduleArtifact:
    """Step 6: optimized test schedules (plus relaxed-coverage variants)."""

    schedules: dict[str, ScheduleResult]
    coverage_schedules: dict[float, ScheduleResult]


@dataclass
class FleetArtifact:
    """Fleet Monte Carlo: population aging traces plus batch predictions."""

    result: FleetResult
    predictions: FleetPredictions
    metrics: dict[str, Any]


# ----------------------------------------------------------------------
# Stage objects
# ----------------------------------------------------------------------
class Stage:
    """One registered pipeline stage.

    Subclasses declare ``name``, ``deps``, ``artifact_type``,
    ``config_fields`` (the semantic ``FlowConfig`` fields the stage
    reads — worker counts are deliberately absent) and bump
    ``CACHE_VERSION`` whenever their semantics change.
    """

    name: str = ""
    deps: tuple[str, ...] = ()
    artifact_type: type = object
    config_fields: tuple[str, ...] = ()
    CACHE_VERSION: int = 1

    def run(self, ctx: StageContext, inputs: dict[str, Any]) -> Any:
        raise NotImplementedError

    def cacheable(self, ctx: StageContext) -> bool:
        """Whether this stage's artifact may be persisted for ``ctx``."""
        return True

    def config_key(self, ctx: StageContext) -> dict[str, Any]:
        """JSON-able view of every semantic knob this stage reads."""
        out: dict[str, Any] = {}
        for name in self.config_fields:
            value = getattr(ctx.config, name)
            if isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out


class StaStage(Stage):
    name = "sta"
    deps = ()
    artifact_type = TimingArtifact
    config_fields = ("fast_ratio", "monitor_delay_fractions",
                     "monitor_fraction")

    def run(self, ctx: StageContext, inputs: dict[str, Any]) -> TimingArtifact:
        cfg = ctx.config
        ctx.note("static timing analysis")
        sta = run_sta(ctx.circuit)
        clock = ClockSpec(sta.clock_period, cfg.fast_ratio)
        configs = MonitorConfigSet(tuple(
            f * clock.t_nom for f in sorted(cfg.monitor_delay_fractions)))
        placement = insert_monitors(ctx.circuit, sta, configs,
                                    fraction=cfg.monitor_fraction)
        return TimingArtifact(sta=sta, clock=clock, configs=configs,
                              placement=placement)


class FaultsStage(Stage):
    name = "faults"
    deps = ("sta",)
    artifact_type = FaultSetArtifact
    config_fields = ("sigma_fraction", "n_sigma", "structural_prefilter")

    def run(self, ctx: StageContext,
            inputs: dict[str, Any]) -> FaultSetArtifact:
        cfg = ctx.config
        timing: TimingArtifact = inputs["sta"]
        ctx.note("fault universe")
        universe = small_delay_fault_universe(
            ctx.circuit, sigma_fraction=cfg.sigma_fraction,
            n_sigma=cfg.n_sigma)
        prefilter = None
        faults = universe
        if cfg.structural_prefilter:
            ctx.note("structural prefilter")
            prefilter = structural_prefilter(
                ctx.circuit, timing.sta, universe, timing.clock,
                timing.configs, timing.placement.monitored_gates)
            faults = prefilter.remaining
        return FaultSetArtifact(universe_size=len(universe),
                                prefilter=prefilter, faults=faults)


class AtpgStage(Stage):
    name = "atpg"
    deps = ()
    artifact_type = PatternsArtifact
    config_fields = ("atpg_seed", "pattern_cap")
    # v2: fault collapsing settles implied-untestable faults without a
    # PODEM search — an older stored AtpgResult carries the previous
    # untestable/aborted ledgers under the same key.
    CACHE_VERSION = 2

    def run(self, ctx: StageContext,
            inputs: dict[str, Any]) -> PatternsArtifact:
        cfg = ctx.config
        atpg = None
        test_set = ctx.test_set
        if test_set is None:
            ctx.note("transition-fault ATPG")
            atpg = generate_transition_tests(ctx.circuit, seed=cfg.atpg_seed,
                                             timer=ctx.timer)
            test_set = atpg.test_set
        if cfg.pattern_cap is not None and len(test_set) > cfg.pattern_cap:
            test_set = test_set.subset(range(cfg.pattern_cap))
        test_set = test_set.filled(seed=cfg.atpg_seed)
        return PatternsArtifact(atpg=atpg, test_set=test_set)

    def config_key(self, ctx: StageContext) -> dict[str, Any]:
        out = super().config_key(ctx)
        if ctx.test_set is not None:
            # External pattern sets are content-addressed so replays of the
            # same patterns still hit the cache.
            digest = hashlib.sha256()
            for p in ctx.test_set:
                digest.update(f"{p.launch}|{p.capture}\n".encode())
            out["external_test_set"] = digest.hexdigest()
        return out


class SimulationStage(Stage):
    name = "simulation"
    deps = ("sta", "faults", "atpg")
    artifact_type = DetectionArtifact
    config_fields = ("inertial_ps",)
    # v2: DetectionData._sched_cache became a bounded LruCache — older
    # pickled artifacts carry a plain dict there.
    # v3: the per-fault union memos gave way to the unpickled range table
    # (``DetectionData._table``).
    CACHE_VERSION = 3

    def run(self, ctx: StageContext,
            inputs: dict[str, Any]) -> DetectionArtifact:
        cfg = ctx.config
        timing: TimingArtifact = inputs["sta"]
        faults: FaultSetArtifact = inputs["faults"]
        patterns: PatternsArtifact = inputs["atpg"]
        ctx.note(f"fault simulation ({len(faults.faults)} faults x "
                 f"{len(patterns.test_set)} patterns)")
        data = compute_detection_data(
            ctx.circuit, faults.faults, patterns.test_set,
            horizon=timing.clock.t_nom,
            monitored_gates=timing.placement.monitored_gates,
            inertial=cfg.inertial_ps, timer=ctx.timer)
        return DetectionArtifact(data=data)


class ClassifyStage(Stage):
    name = "classify"
    deps = ("sta", "simulation")
    artifact_type = ClassificationArtifact
    config_fields = ()

    def run(self, ctx: StageContext,
            inputs: dict[str, Any]) -> ClassificationArtifact:
        timing: TimingArtifact = inputs["sta"]
        detection: DetectionArtifact = inputs["simulation"]
        ctx.note("fault classification")
        classification = classify_faults(detection.data, timing.clock,
                                         timing.configs)
        return ClassificationArtifact(classification=classification)


class ScheduleStage(Stage):
    name = "schedule"
    deps = ("sta", "simulation", "classify")
    artifact_type = ScheduleArtifact
    config_fields = ("ilp_time_limit", "coverage_targets")

    def run(self, ctx: StageContext,
            inputs: dict[str, Any]) -> ScheduleArtifact:
        cfg = ctx.config
        timing: TimingArtifact = inputs["sta"]
        data = inputs["simulation"].data
        classification = inputs["classify"].classification
        schedules: dict[str, ScheduleResult] = {}
        coverage_schedules: dict[float, ScheduleResult] = {}
        if ctx.with_schedules:
            ctx.note("schedule optimization (conv/heur/prop)")
            schedules["conv"] = conventional_schedule(
                data, classification, timing.clock,
                time_limit=cfg.ilp_time_limit, timer=ctx.timer)
            schedules["heur"] = heuristic_schedule(
                data, classification, timing.clock, timing.configs,
                timer=ctx.timer)
            schedules["prop"] = proposed_schedule(
                data, classification, timing.clock, timing.configs,
                time_limit=cfg.ilp_time_limit, timer=ctx.timer)
        if ctx.with_coverage_schedules:
            for cov in cfg.coverage_targets:
                ctx.note(f"schedule optimization (cov >= {cov:.0%})")
                coverage_schedules[cov] = proposed_schedule(
                    data, classification, timing.clock, timing.configs,
                    coverage=cov, time_limit=cfg.ilp_time_limit,
                    timer=ctx.timer)
        return ScheduleArtifact(schedules=schedules,
                                coverage_schedules=coverage_schedules)

    def config_key(self, ctx: StageContext) -> dict[str, Any]:
        out = super().config_key(ctx)
        out["with_schedules"] = ctx.with_schedules
        out["with_coverage_schedules"] = ctx.with_coverage_schedules
        return out


class AgingStage(Stage):
    """Fleet-scale Monte Carlo lifetime evaluation (not in the Fig. 4 flow).

    Consumes the cached ``sta`` artifact (clock, monitor placement) and
    runs the vectorized fleet kernel over a sampled device population;
    keyed by the scenario fingerprint and device count so repeated sweeps
    over analysis settings replay from the cache.
    """

    name = "aging"
    deps = ("sta",)
    artifact_type = FleetArtifact
    config_fields = ("monitor_delay_fractions",)

    def run(self, ctx: StageContext, inputs: dict[str, Any]) -> FleetArtifact:
        timing: TimingArtifact = inputs["sta"]
        spec = ctx.fleet_spec or ScenarioSpec()
        ctx.note(f"fleet aging ({ctx.fleet_devices} devices x "
                 f"{len(spec.checkpoints)} checkpoints)")
        population = sample_population(ctx.circuit, spec, ctx.fleet_devices)
        # The fleet operates at the scenario's clock margin (the timing
        # slack degradation has to eat through); monitor delay elements
        # scale with that operating period.  Placement reuses the cached
        # t=0 STA artifact — it only depends on path ranking.
        period = spec.clock_margin * timing.sta.critical_path
        configs = MonitorConfigSet(tuple(
            f * period
            for f in sorted(ctx.config.monitor_delay_fractions)))
        setup = fleet_setup(
            ctx.circuit, spec, clock_period=period,
            config_delays=tuple(configs),
            monitored_gates=timing.placement.monitored_gates)
        result = simulate_fleet_vectorized(ctx.circuit, spec, population,
                                           setup=setup, jobs=ctx.fleet_jobs)
        predictions = predict_fleet(result)
        return FleetArtifact(result=result, predictions=predictions,
                             metrics=predictions.metrics())

    def config_key(self, ctx: StageContext) -> dict[str, Any]:
        out = super().config_key(ctx)
        spec = ctx.fleet_spec or ScenarioSpec()
        out["scenario"] = spec.fingerprint()
        out["devices"] = ctx.fleet_devices
        return out


#: The Fig. 4 flow in topological order.
DEFAULT_STAGES: tuple[Stage, ...] = (
    StaStage(), FaultsStage(), AtpgStage(), SimulationStage(),
    ClassifyStage(), ScheduleStage(),
)
