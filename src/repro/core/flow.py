"""The complete HDF test flow (Fig. 4).

Steps, mirroring the paper:

1. **Topological analysis** — STA over the netlist timing; at-speed
   detectable faults (min slack < δ) and timing-redundant HDFs are removed
   from the initial fault list.
2. **Timing-accurate fault simulation** of the remaining sites against the
   (generated or supplied) transition test set.
3. **Detection ranges** from XOR-ed fault-free/faulty waveforms.
4. **Monitor analysis** — ranges under every delay-element configuration;
   faults becoming observable at nominal speed are *monitor at-speed
   detectable* and removed.
5. **Target fault set** Φ_tar — detectable only at FAST frequencies.
6. **Test schedule optimization** — two-step ILP selection of frequencies
   and (pattern, configuration) combinations, plus the conventional and
   heuristic baselines and relaxed-coverage variants (Table III).

Execution is staged: :meth:`HdfTestFlow.run` drives the typed pipeline of
:mod:`repro.core.pipeline` / :mod:`repro.core.stages`, which enables
per-stage artifact caching and resumable runs (pass ``cache=``).
``tests/test_pipeline_golden.py`` pins whole-flow results on small
circuits.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.atpg.patterns import TestSet
from repro.core.config import FlowConfig
from repro.core.pipeline import DEFAULT_PIPELINE, Pipeline, StageStore
from repro.core.results import FlowResult
from repro.core.stages import StageContext
from repro.netlist.circuit import Circuit
from repro.utils.profiling import StageTimer


class HdfTestFlow:
    """Runs the flow of Fig. 4 on one finalized circuit."""

    def __init__(self, circuit: Circuit,
                 config: FlowConfig | None = None, *,
                 pipeline: Pipeline | None = None) -> None:
        if not circuit.is_finalized:
            raise ValueError("circuit must be finalized")
        self.circuit = circuit
        self.config = config or FlowConfig()
        self.pipeline = pipeline or DEFAULT_PIPELINE

    def context(self, *, test_set: TestSet | None = None,
                with_schedules: bool = True,
                with_coverage_schedules: bool = False,
                progress: Callable[[str], None] | None = None,
                timer: StageTimer | None = None) -> StageContext:
        """The :class:`StageContext` a run with these arguments would use.

        Public so external schedulers (the suite runner's shard workers) can
        derive stage keys and execute individual stages against the same
        context the in-process pipeline would see.
        """
        return StageContext(
            circuit=self.circuit,
            config=self.config,
            test_set=test_set,
            with_schedules=with_schedules,
            with_coverage_schedules=with_coverage_schedules,
            timer=timer,
            note=progress or (lambda _msg: None))

    def run(self, *,
            test_set: TestSet | None = None,
            with_schedules: bool = True,
            with_coverage_schedules: bool = False,
            progress: Callable[[str], None] | None = None,
            timer: StageTimer | None = None,
            cache: StageStore | None = None,
            recompute_from: Iterable[str] = ()) -> FlowResult:
        """Execute the staged flow and return a :class:`FlowResult`.

        ``test_set`` bypasses the built-in ATPG (e.g. to replay an external
        pattern set); ``with_coverage_schedules`` additionally optimizes the
        relaxed-coverage schedules of Table III.  ``timer`` collects the
        fine-grained wall-clock split of the engine internals.  ``cache``
        (see :class:`repro.experiments.artifact_cache.StageCache`) enables
        per-stage artifact reuse; ``recompute_from`` forces the named
        stages — plus everything downstream — to recompute even on a hit.
        """
        ctx = self.context(test_set=test_set,
                           with_schedules=with_schedules,
                           with_coverage_schedules=with_coverage_schedules,
                           progress=progress, timer=timer)
        artifacts, meta = self.pipeline.run(ctx, cache=cache,
                                            recompute_from=recompute_from)
        return self._assemble(artifacts, meta)

    def cached_result(self, *,
                      test_set: TestSet | None = None,
                      with_schedules: bool = True,
                      with_coverage_schedules: bool = False,
                      cache: StageStore | None = None) -> FlowResult | None:
        """Whole-flow cache probe: the result iff every stage artifact is
        already in ``cache`` (the legacy whole-``FlowResult`` cache as a
        thin wrapper over the per-stage store)."""
        ctx = self.context(test_set=test_set,
                           with_schedules=with_schedules,
                           with_coverage_schedules=with_coverage_schedules,
                           progress=None, timer=None)
        artifacts = self.pipeline.cached_artifacts(ctx, cache)
        if artifacts is None:
            return None
        n = len(artifacts)
        meta = {
            "stages": {name: {"seconds": 0.0, "cache": "hit"}
                       for name in artifacts},
            "cache": {"hits": n, "misses": 0},
        }
        return self._assemble(artifacts, meta)

    def _assemble(self, artifacts: dict, meta: dict) -> FlowResult:
        timing = artifacts["sta"]
        faults = artifacts["faults"]
        patterns = artifacts["atpg"]
        detection = artifacts["simulation"]
        classification = artifacts["classify"]
        schedule = artifacts["schedule"]
        return FlowResult(
            circuit=self.circuit,
            sta=timing.sta,
            clock=timing.clock,
            configs=timing.configs,
            placement=timing.placement,
            universe_size=faults.universe_size,
            prefilter=faults.prefilter,
            atpg=patterns.atpg,
            test_set=patterns.test_set,
            data=detection.data,
            classification=classification.classification,
            schedules=dict(schedule.schedules),
            coverage_schedules=dict(schedule.coverage_schedules),
            meta=meta,
        )
