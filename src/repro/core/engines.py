"""Engine registry: one place for every ``engine="..."`` switch.

Earlier PRs each grew their own engine toggle — one for the word-matrix
vs seed big-int ATPG grading, one for the event-driven vs
full-cone-resweep fault simulation, and the retained seed scheduling
pipeline in :mod:`repro.scheduling.reference`.  This module unifies
them: an :class:`EngineRegistry` maps ``(stage, engine-name)`` to an
adapter callable, each stage declares exactly one default, and
:class:`repro.core.config.FlowConfig` selects engines per stage through
its ``engines`` field — a tuple of ``(stage, engine)`` pairs.

The registry is also the single source of truth for *validation*: unknown
stage or engine names raise immediately with the registered alternatives
listed, both from ``FlowConfig`` and from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Engine:
    """One registered engine implementation for a pipeline stage."""

    stage: str
    name: str
    #: Adapter invoked by the owning stage; signature is stage-specific.
    fn: Callable[..., Any]
    #: One-line description shown in CLI/docs listings.
    doc: str = ""


@dataclass
class EngineRegistry:
    """Registered engines per stage, with one default engine per stage."""

    _engines: dict[str, dict[str, Engine]] = field(default_factory=dict)
    _defaults: dict[str, str] = field(default_factory=dict)

    def register(self, stage: str, name: str, fn: Callable[..., Any],
                 *, default: bool = False, doc: str = "") -> Engine:
        """Register ``fn`` as engine ``name`` of ``stage``."""
        per_stage = self._engines.setdefault(stage, {})
        if name in per_stage:
            raise ValueError(f"engine {name!r} already registered "
                             f"for stage {stage!r}")
        engine = Engine(stage=stage, name=name, fn=fn, doc=doc)
        per_stage[name] = engine
        if default or stage not in self._defaults:
            self._defaults[stage] = name
        return engine

    def stages(self) -> tuple[str, ...]:
        """Stages with at least one registered engine."""
        return tuple(sorted(self._engines))

    def names(self, stage: str) -> tuple[str, ...]:
        """Engine names registered for ``stage`` (error when none)."""
        self._require_stage(stage)
        return tuple(sorted(self._engines[stage]))

    def default(self, stage: str) -> str:
        self._require_stage(stage)
        return self._defaults[stage]

    def resolve(self, stage: str, name: str | None = None) -> Engine:
        """Look up ``name`` (or the stage default) with a helpful error."""
        self._require_stage(stage)
        per_stage = self._engines[stage]
        if name is None:
            name = self._defaults[stage]
        if name not in per_stage:
            known = ", ".join(sorted(per_stage))
            raise ValueError(f"unknown engine {name!r} for stage "
                             f"{stage!r} (registered: {known})")
        return per_stage[name]

    def _require_stage(self, stage: str) -> None:
        if stage not in self._engines:
            known = ", ".join(sorted(self._engines)) or "<none>"
            raise ValueError(f"stage {stage!r} has no registered engines "
                             f"(stages with engines: {known})")


def _atpg_adapter(engine_name: str) -> Callable[..., Any]:
    def run(circuit, *, seed, timer=None):
        from repro.atpg.transition import generate_transition_tests

        return generate_transition_tests(circuit, seed=seed,
                                         engine=engine_name, timer=timer)
    return run


def _simulation_adapter(engine_name: str) -> Callable[..., Any]:
    def run(circuit, faults, patterns, **kwargs):
        from repro.faults.detection import compute_detection_data

        return compute_detection_data(circuit, faults, patterns,
                                      engine=engine_name, **kwargs)
    return run


def _schedule_adapter():
    def run(data, targets, clock, configs, **kwargs):
        from repro.scheduling.schedule import optimize_schedule

        return optimize_schedule(data, targets, clock, configs, **kwargs)
    return run


def _resched_adapter(engine_name: str) -> Callable[..., Any]:
    def run(state, delta):
        from repro.scheduling.resched import RESCHED_ENGINES

        return RESCHED_ENGINES[engine_name](state, delta)
    return run


def _fleet_adapter(engine_name: str) -> Callable[..., Any]:
    def run(circuit, spec, population, **kwargs):
        from repro.aging.fleet import FLEET_ENGINES

        return FLEET_ENGINES[engine_name](circuit, spec, population,
                                          **kwargs)
    return run


def _build_default_registry() -> EngineRegistry:
    reg = EngineRegistry()
    reg.register("atpg", "matrix", _atpg_adapter("matrix"), default=True,
                 doc="packed fault×pattern big-int grading kernel")
    reg.register("atpg", "reference", _atpg_adapter("reference"),
                 doc="seed big-int grading pipeline, kept for cross-checks")
    reg.register("simulation", "wordwave",
                 _simulation_adapter("wordwave"), default=True,
                 doc="batched array-kernel timed waveform simulation (PR 6)")
    reg.register("simulation", "incremental",
                 _simulation_adapter("incremental"),
                 doc="event-driven incremental fault simulation (PR 1)")
    reg.register("simulation", "reference",
                 _simulation_adapter("reference"),
                 doc="seed full-cone resweep, bit-identical cross-check")
    reg.register("schedule", "bitset", _schedule_adapter(), default=True,
                 doc="packed-bitset two-step covering pipeline (PR 3)")
    reg.register("resched", "incremental", _resched_adapter("incremental"),
                 default=True,
                 doc="warm-started incremental alert re-solve (PR 9)")
    reg.register("resched", "cold", _resched_adapter("cold"),
                 doc="full cold re-solve per alert, the equivalence "
                     "yardstick and bench baseline")
    reg.register("aging", "vectorized", _fleet_adapter("vectorized"),
                 default=True,
                 doc="(gates, devices) block-kernel fleet Monte Carlo (PR 7)")
    reg.register("aging", "reference", _fleet_adapter("reference"),
                 doc="per-device Python loop, bit-identical semantics pin")
    return reg


#: Process-wide default registry used by :class:`FlowConfig` validation and
#: the pipeline stages.  Tests may build private registries instead.
ENGINES = _build_default_registry()
