"""The suite executor every table/figure driver replays through.

All table/figure drivers replay the same flow over the (scaled) evaluation
suite.  :func:`run_suite` decomposes the circuits it has not seen yet into
``(circuit, stage)`` work units (:func:`suite_plan`), drains them through
the shard scheduler (:func:`repro.experiments.shard.run_plan`) with
``workers`` cooperating processes, and assembles each circuit's
:class:`FlowResult` from the stage store
(:meth:`~repro.core.flow.HdfTestFlow.cached_result`).  Results are reused
at two levels:

* **in-process** — keyed by the semantic :class:`SuiteRunConfig` alone;
  the worker count is not part of it, results are bit-identical for any;
* **stage store** — the shared on-disk
  :class:`~repro.experiments.artifact_cache.StageCache` when the disk
  cache is enabled, so repeated invocations skip completed stages across
  processes and sessions and a killed run resumes from its finished units.
  With ``REPRO_FLOW_CACHE=0`` the drain coordinates through a temporary
  store that is removed when the call returns.

``run_suite(..., recompute_from=("schedule",))`` deletes the stored
artifacts of the named pipeline stages plus their downstream closure
before the drain — unknown stage names raise ``ValueError`` listing the
registered stages.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping

from repro.circuits.library import (
    QUICK_SUITE_NAMES,
    paper_suite,
    suite_circuit,
    suite_entry,
    synthetic_suite,
)
from repro.core.config import FlowConfig
from repro.core.flow import HdfTestFlow
from repro.core.pipeline import DEFAULT_PIPELINE
from repro.core.results import FlowResult
from repro.core.stages import StageContext
from repro.experiments.artifact_cache import StageCache, cache_enabled
from repro.experiments.shard import ShardPlan, ShardStats, WorkUnit, run_plan
from repro.utils.profiling import StageTimer


@dataclass(frozen=True)
class SuiteRunConfig:
    """Parameters of one suite replay."""

    names: tuple[str, ...] = tuple(e.name for e in paper_suite())
    scale: float = 1.0
    with_schedules: bool = True
    with_coverage_schedules: bool = False
    fast_ratio: float = 3.0
    monitor_fraction: float = 0.25
    atpg_seed: int = 7

    @classmethod
    def quick(cls, **overrides: object) -> "SuiteRunConfig":
        """Four small circuits at reduced scale — tests and CI benchmarks."""
        base = cls(names=tuple(QUICK_SUITE_NAMES), scale=0.6)
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def synth(cls, count: int = 120, *, start: int = 0,
              **overrides: object) -> "SuiteRunConfig":
        """A ``count``-circuit synthetic matrix (``syn0000``, ...).

        The sharded-suite workload: hundreds of small, deterministic
        circuits (see :func:`repro.circuits.library.synthetic_suite`).
        Schedules are off by default to keep the per-circuit flow cheap.
        """
        names = tuple(e.name for e in synthetic_suite(count, start=start))
        base = cls(names=names, scale=1.0, with_schedules=False)
        return replace(base, **overrides)  # type: ignore[arg-type]


_CACHE: dict[SuiteRunConfig, dict[str, FlowResult]] = {}


def clear_cache() -> None:
    _CACHE.clear()


def suite_flow(name: str, cfg: SuiteRunConfig) -> HdfTestFlow:
    """Build the flow for one suite circuit."""
    circuit = suite_circuit(name, scale=cfg.scale)
    return HdfTestFlow(circuit, FlowConfig(
        fast_ratio=cfg.fast_ratio,
        monitor_fraction=cfg.monitor_fraction,
        atpg_seed=cfg.atpg_seed,
        pattern_cap=suite_entry(name).pattern_budget(scale=cfg.scale),
    ))


def suite_plan(cfg: SuiteRunConfig, *, progress: bool = False,
               flows: Mapping[str, HdfTestFlow] | None = None
               ) -> ShardPlan:
    """Decompose a suite replay into stage work units.

    Builds one :class:`~repro.core.stages.StageContext` per circuit (the
    exact context a plain ``suite_flow(...).run()`` would use, so stage
    keys — and hence artifacts — are shared with it) and derives the unit
    DAG from the pipeline's descriptors.  ``flows`` (default: built from
    ``cfg``) lets the caller reuse circuits it already generated.
    """
    contexts: dict[str, StageContext] = {}
    units: list[WorkUnit] = []
    for name in cfg.names:
        entry = suite_entry(name)
        flow = flows[name] if flows is not None else suite_flow(name, cfg)
        ctx = flow.context(
            with_schedules=cfg.with_schedules,
            with_coverage_schedules=cfg.with_coverage_schedules)
        if progress:
            ctx.note = lambda m, _n=name: print(f"[{_n}] {m}")
        contexts[name] = ctx
        cost = float(entry.gates) * max(1, entry.patterns)
        for stage, key, deps in flow.pipeline.unit_descriptors(ctx):
            if not flow.pipeline.get(stage).cacheable(ctx):
                raise ValueError(
                    f"stage {stage!r} is not cacheable for {name!r}; "
                    f"sharded execution coordinates through the store")
            units.append(WorkUnit(circuit=name, stage=stage, key=key,
                                  deps=deps, cost=cost))

    def execute(unit: WorkUnit, inputs: dict[str, Any],
                timer: StageTimer) -> Any:
        ctx = contexts[unit.circuit]
        ctx.timer = timer
        return DEFAULT_PIPELINE.get(unit.stage).run(ctx, inputs)

    return ShardPlan(ShardPlan.order_units(units), execute)


@contextmanager
def _suite_store(store: StageCache | None) -> Iterator[StageCache]:
    """The given store, else the disk store, else a temporary one."""
    if store is not None:
        yield store
    elif cache_enabled():
        yield StageCache()
    else:
        with tempfile.TemporaryDirectory(prefix="repro-suite-") as tmp:
            yield StageCache(tmp)


def run_suite(config: SuiteRunConfig | None = None, *,
              workers: int = 1,
              store: StageCache | None = None,
              ttl: float | None = None,
              progress: bool = False,
              stats: ShardStats | None = None,
              recompute_from: tuple[str, ...] = ()
              ) -> dict[str, FlowResult]:
    """Run (or fetch cached) flow results for every circuit of the config.

    The circuits missing from the in-process memo are drained as stage
    work units by ``workers`` processes over ``store`` (default: the disk
    store when enabled, else a temporary one; ``ttl`` is the stale-claim
    age).  ``stats``, when given, accumulates the drain's unit counts,
    per-stage seconds, fine-grained timer split and wall clock.
    ``recompute_from`` forces the named pipeline stages plus everything
    downstream to recompute even when cached — unknown names raise
    ``ValueError`` listing the registered stages.
    """
    cfg = config or SuiteRunConfig()
    forced = (DEFAULT_PIPELINE.descendants(recompute_from)
              if recompute_from else set())
    memo = _CACHE.setdefault(cfg, {})
    pending = tuple(n for n in cfg.names if forced or n not in memo)
    if pending:
        flows = {name: suite_flow(name, cfg) for name in pending}
        plan = suite_plan(replace(cfg, names=pending), progress=progress,
                          flows=flows)
        with _suite_store(store) as disk:
            for unit in plan.units:
                if unit.stage in forced:
                    disk.delete(unit.key)
            run = run_plan(plan, workers=workers, store=disk, ttl=ttl)
            for name, flow in flows.items():
                result = flow.cached_result(
                    with_schedules=cfg.with_schedules,
                    with_coverage_schedules=cfg.with_coverage_schedules,
                    cache=disk)
                if result is None:
                    raise RuntimeError(
                        f"suite drain completed but {name!r} has missing "
                        f"stage artifacts — stage store at {disk.root} is "
                        f"inconsistent")
                memo[name] = result
        if stats is not None:
            stats.merge(run)
    return {name: memo[name] for name in cfg.names}
