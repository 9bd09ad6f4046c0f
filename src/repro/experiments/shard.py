"""Sharded suite execution: stage work units over the shared stage store.

The fork pool in :mod:`repro.experiments.runner` fans out at whole-circuit
granularity, so a long pipeline stage on one big circuit serializes the
suite's tail while other workers idle.  This module decomposes a suite run
into **stage work units** — the serializable ``(circuit, stage,
upstream-keys)`` descriptors of
:meth:`repro.core.pipeline.Pipeline.unit_descriptors` — and turns the
Merkle-keyed :class:`~repro.experiments.artifact_cache.StageCache` into a
coordination substrate for any number of independent worker processes:

* **Readiness** is an artifact-presence check: a unit may run once every
  upstream stage key exists in the store.  Workers learn about remote
  progress purely through the filesystem, so the design is multi-process
  today and multi-host-shaped (any shared ``REPRO_CACHE_DIR`` works).
* **Claims** are lock-free: a worker claims a unit by exclusively creating
  ``claims/<key>.claim`` (atomic on POSIX), heartbeats the claim's mtime
  from a daemon thread while the stage runs, and releases it after the
  atomic artifact store.  A killed worker stops heartbeating; once the
  claim's age exceeds the TTL any other worker *steals* it with an atomic
  ``os.rename`` to a per-worker tombstone — exactly one thief wins — and
  re-runs the unit.  Claims only dedupe work: artifact writes are atomic
  and stage execution is deterministic, so the rare duplicated execution
  under claim races is waste, never corruption.
* **Scheduling** is dynamic and greedy: every worker scans the shared
  frontier in priority order (circuits sorted by estimated cost,
  longest-processing-time first; stages in topological order) and runs the
  first ready unclaimed unit.  Ready units are picked up the moment their
  upstream artifacts land, instead of pinning one circuit per worker.
* **Resumability** falls out: re-invoking the same suite recomputes
  nothing that already has an artifact, so a partially-completed (or
  killed) suite run picks up exactly the missing stage units.

``run_suite_sharded`` is the public entry point (surfaced as ``repro
suite --workers N``); ``timed_plan``/``run_plan`` drive the same
scheduler with simulated-duration units, which is how the perf guard
measures scheduler scaling independently of the host's core count.

Environment knobs: ``REPRO_CLAIM_TTL`` (stale-claim age in seconds,
default 30; heartbeats refresh at TTL/4, so it bounds how long a killed
worker's unit stays orphaned, not the longest stage duration).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.circuits.library import suite_entry, synthetic_suite
from repro.core.pipeline import DEFAULT_PIPELINE
from repro.core.results import FlowResult
from repro.core.stages import StageContext
from repro.experiments.artifact_cache import StageCache, cache_enabled
from repro.experiments.runner import SuiteRunConfig, suite_flow
from repro.utils.profiling import StageTimer

#: Default stale-claim TTL in seconds (override via ``REPRO_CLAIM_TTL``).
DEFAULT_CLAIM_TTL = 30.0


def default_claim_ttl() -> float:
    try:
        return max(0.05, float(os.environ.get("REPRO_CLAIM_TTL",
                                              DEFAULT_CLAIM_TTL)))
    except ValueError:
        return DEFAULT_CLAIM_TTL


# ----------------------------------------------------------------------
# Work units and plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkUnit:
    """One schedulable ``(circuit, stage)`` node of the suite DAG."""

    circuit: str
    stage: str
    #: Content-addressed artifact key (the unit is complete when present).
    key: str
    #: Upstream ``(stage name, artifact key)`` pairs (ready when all present).
    deps: tuple[tuple[str, str], ...]
    #: Scheduling priority / simulated duration (seconds for timed plans,
    #: a unitless cost estimate for suite plans).
    cost: float = 0.0


@dataclass
class ShardStats:
    """Aggregated accounting of one sharded run."""

    computed: int = 0
    hits: int = 0
    reclaimed: int = 0
    wait_s: float = 0.0
    worker_failures: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    timer: StageTimer = field(default_factory=StageTimer)

    def credit(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = (self.stage_seconds.get(stage, 0.0)
                                     + seconds)

    def merge(self, other: "ShardStats") -> None:
        self.computed += other.computed
        self.hits += other.hits
        self.reclaimed += other.reclaimed
        self.wait_s += other.wait_s
        self.worker_failures += other.worker_failures
        for stage, seconds in other.stage_seconds.items():
            self.credit(stage, seconds)
        self.timer.merge(other.timer)


class ShardPlan:
    """An ordered set of work units plus the executor that runs one.

    ``units`` are priority-ordered: circuits sorted by total estimated
    cost descending (LPT — big circuits start first, so no straggler is
    dispatched last into an otherwise-drained pool), stages in
    topological order within each circuit.
    """

    def __init__(self, units: Sequence[WorkUnit],
                 execute: Callable[[WorkUnit, StageTimer | None], Any],
                 *, label: str = "plan") -> None:
        self.units = tuple(units)
        self._execute = execute
        self.label = label

    def executor(self, store: StageCache, timer: StageTimer | None,
                 ) -> Callable[[WorkUnit], Any]:
        def run(unit: WorkUnit) -> Any:
            return self._execute(unit, timer)
        return run

    @staticmethod
    def order_units(units: Iterable[WorkUnit]) -> list[WorkUnit]:
        """LPT priority: costliest circuit first, stages in topo order."""
        units = list(units)
        by_circuit: dict[str, float] = {}
        for u in units:
            by_circuit[u.circuit] = by_circuit.get(u.circuit, 0.0) + u.cost
        rank = {name: (-total, name)
                for name, total in by_circuit.items()}
        # Stable sort keeps the per-circuit topological order intact.
        return sorted(units, key=lambda u: rank[u.circuit])


def suite_plan(cfg: SuiteRunConfig, *,
               store: StageCache,
               progress: bool = False) -> ShardPlan:
    """Decompose a suite replay into stage work units.

    Builds one :class:`~repro.core.stages.StageContext` per circuit (the
    exact context an in-process run would use, so stage keys — and hence
    artifacts — are shared with ``run_suite``) and derives the unit DAG
    from the pipeline's descriptors.
    """
    contexts: dict[str, StageContext] = {}
    units: list[WorkUnit] = []
    for name in cfg.names:
        entry = suite_entry(name)
        cap = entry.pattern_budget(scale=cfg.scale)
        flow = suite_flow(name, cfg, cap, stage_jobs=1)
        ctx = flow.context(
            with_schedules=cfg.with_schedules,
            with_coverage_schedules=cfg.with_coverage_schedules)
        contexts[name] = ctx
        cost = float(entry.gates) * max(1, entry.patterns)
        for stage, key, deps in flow.pipeline.unit_descriptors(ctx):
            if not flow.pipeline.get(stage).cacheable(ctx):
                raise ValueError(
                    f"stage {stage!r} is not cacheable for {name!r}; "
                    f"sharded execution coordinates through the store")
            units.append(WorkUnit(circuit=name, stage=stage, key=key,
                                  deps=deps, cost=cost))

    def execute(unit: WorkUnit, timer: StageTimer | None) -> Any:
        ctx = contexts[unit.circuit]
        ctx.timer = timer
        ctx.note = ((lambda m, _n=unit.circuit: print(f"[{_n}] {m}"))
                    if progress else (lambda _m: None))
        stage = DEFAULT_PIPELINE.get(unit.stage)
        inputs: dict[str, Any] = {}
        for dep_name, dep_key in unit.deps:
            artifact = store.load(dep_key)
            if artifact is None:
                raise RuntimeError(
                    f"upstream artifact {dep_name!r} of {unit.circuit!r} "
                    f"disappeared from the stage store mid-run")
            inputs[dep_name] = artifact
        return stage.run(ctx, inputs)

    return ShardPlan(ShardPlan.order_units(units), execute,
                     label=f"suite[{len(cfg.names)}]")


@dataclass(frozen=True)
class TimedStage:
    """A simulated-duration work unit spec for scheduler benchmarks."""

    circuit: str
    stage: str
    cost: float


#: Relative duration model of the six pipeline stages (measured shape of
#: the real flow: ATPG and simulation dominate, schedule is the mid cost).
STAGE_COST_WEIGHTS = {"sta": 0.05, "faults": 0.04, "atpg": 0.30,
                      "simulation": 0.40, "classify": 0.04,
                      "schedule": 0.17}


def suite_timed_specs(count: int, *,
                      serial_s: float = 12.0) -> list[TimedStage]:
    """Modeled stage durations for a ``count``-circuit synthetic matrix.

    Per-circuit cost tracks the structural size of the deterministic
    synthetic entries (gates x patterns), split across stages by
    :data:`STAGE_COST_WEIGHTS` and normalized so the serial total is
    ``serial_s``.  This is the workload of the suite scaling guard in
    ``tests/test_perf_smoke.py``.
    """
    entries = synthetic_suite(count)
    raw = {e.name: float(e.gates) * max(1, e.patterns) for e in entries}
    norm = serial_s / sum(raw.values())
    return [TimedStage(e.name, stage, raw[e.name] * norm * weight)
            for e in entries
            for stage, weight in STAGE_COST_WEIGHTS.items()]


def timed_plan(specs: Sequence[TimedStage], *, nonce: str,
               granularity: str = "stage",
               order: str = "lpt") -> ShardPlan:
    """A plan whose units sleep for their cost instead of running stages.

    This benchmarks the *scheduler* (claims, readiness, packing) with
    modeled stage durations, independent of host core count.  ``nonce``
    salts the unit keys so repeated benchmark runs never hit stale
    artifacts.  ``granularity="circuit"`` collapses each circuit into a
    single unit of summed cost and ``order="given"`` keeps spec order —
    together they model the old whole-circuit ``pool.imap`` dispatch for
    the granularity ablation.
    """
    if granularity not in ("stage", "circuit"):
        raise ValueError(f"unknown granularity {granularity!r}")
    if order not in ("lpt", "given"):
        raise ValueError(f"unknown order {order!r}")

    def key_of(circuit: str, stage: str) -> str:
        blob = f"timed|{nonce}|{circuit}|{stage}"
        return hashlib.sha256(blob.encode()).hexdigest()

    units: list[WorkUnit] = []
    if granularity == "circuit":
        totals: dict[str, float] = {}
        for s in specs:
            totals[s.circuit] = totals.get(s.circuit, 0.0) + s.cost
        units = [WorkUnit(circuit=name, stage="flow",
                          key=key_of(name, "flow"), deps=(), cost=cost)
                 for name, cost in totals.items()]
    else:
        per_circuit: dict[str, dict[str, TimedStage]] = {}
        for s in specs:
            per_circuit.setdefault(s.circuit, {})[s.stage] = s
        for name, stages in per_circuit.items():
            for stage_name in DEFAULT_PIPELINE.stages():
                spec = stages.get(stage_name)
                if spec is None:
                    continue
                deps = tuple(
                    (d, key_of(name, d))
                    for d in DEFAULT_PIPELINE.get(stage_name).deps
                    if d in stages)
                units.append(WorkUnit(circuit=name, stage=stage_name,
                                      key=key_of(name, stage_name),
                                      deps=deps, cost=spec.cost))

    def execute(unit: WorkUnit, _timer: StageTimer | None) -> Any:
        time.sleep(unit.cost)
        return {"circuit": unit.circuit, "stage": unit.stage,
                "cost": unit.cost}

    if order == "lpt":
        units = ShardPlan.order_units(units)
    return ShardPlan(units, execute, label=f"timed[{len(units)}]")


# ----------------------------------------------------------------------
# Claim board: lock-free unit claims in the shared store
# ----------------------------------------------------------------------
class _Heartbeat:
    """Thread refreshing a claim's mtime while its stage runs.

    Lifecycle is explicit: :meth:`cancel` stops the thread and joins it,
    so long-lived processes (the service orchestrator's workers) never
    accumulate heartbeat threads across units.  Threads are named
    ``repro-heartbeat-*`` so leaks are observable, and a heartbeat whose
    claim has vanished (released, or stolen after a stall) terminates
    itself on the next tick instead of spinning until process exit.
    """

    #: Live-thread name prefix (regression tests count against this).
    THREAD_PREFIX = "repro-heartbeat"

    def __init__(self, board: "ClaimBoard", key: str) -> None:
        self._board = board
        self._key = key
        self._stop = threading.Event()
        interval = max(0.05, board.ttl / 4.0)
        self._thread = threading.Thread(
            target=self._run, args=(interval,), daemon=True,
            name=f"{self.THREAD_PREFIX}-{key[:12]}")

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            if not self._board.refresh(self._key):
                return  # claim gone (released or stolen): stop refreshing

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def cancel(self) -> None:
        """Stop and join the refresher (idempotent).

        The join is bounded only to survive a pathologically hung
        ``os.utime`` (network filesystems); the thread observes the stop
        event within one wait slice, so the join normally returns in
        microseconds.
        """
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "_Heartbeat":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cancel()


class ClaimBoard:
    """Lock-free unit claims: exclusive-create, heartbeat, rename-steal.

    Lives in a ``claims/`` directory next to the versioned stage store.
    All operations are safe under arbitrary concurrency; the worst a race
    can produce is one duplicated (idempotent) stage execution.
    """

    def __init__(self, root: Path, *, ttl: float | None = None,
                 worker: str | None = None) -> None:
        self.root = Path(root)
        self.ttl = default_claim_ttl() if ttl is None else max(0.05, ttl)
        self.worker = worker or f"pid{os.getpid()}"
        self._seq = itertools.count()
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def for_store(cls, store: StageCache, *, ttl: float | None = None,
                  worker: str | None = None) -> "ClaimBoard":
        return cls(Path(store.root) / "claims", ttl=ttl, worker=worker)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.claim"

    def try_claim(self, key: str) -> bool:
        """Atomically claim ``key``; False when somebody else holds it."""
        try:
            fd = os.open(self._path(key),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({"worker": self.worker,
                                 "claimed_at": time.time()}))
        return True

    def release(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def refresh(self, key: str) -> bool:
        """Heartbeat: bump the claim's mtime.

        Returns False when the claim no longer exists (released or
        stolen) so the heartbeat thread can retire itself.
        """
        try:
            os.utime(self._path(key))
        except OSError:
            return False
        return True

    def age(self, key: str) -> float | None:
        """Seconds since the claim's last heartbeat, or None if absent."""
        try:
            return max(0.0, time.time() - self._path(key).stat().st_mtime)
        except OSError:
            return None

    def heartbeat(self, key: str) -> _Heartbeat:
        return _Heartbeat(self, key).start()

    def reclaim_if_stale(self, key: str) -> bool:
        """Steal an expired claim; True iff *this* board won the steal.

        The steal is an atomic ``os.rename`` of the claim file to a
        per-worker tombstone: under contention exactly one renamer
        succeeds, so a dead worker's unit is re-run once, not N times.
        If the rename lands on a claim that turned out to be fresh (the
        stale holder released and another worker re-claimed inside our
        stat/rename window), the tombstone is linked back when possible
        and the steal is reported as lost.
        """
        path = self._path(key)
        age = self.age(key)
        if age is None or age <= self.ttl:
            return False
        tomb = path.with_name(
            f"{path.name}.stale-{self.worker}-{next(self._seq)}")
        try:
            os.rename(path, tomb)
        except OSError:
            return False  # another thief won, or the holder finished
        try:
            stolen_age = max(0.0, time.time() - tomb.stat().st_mtime)
            if stolen_age <= self.ttl:
                # Mis-steal of a freshly re-created claim: restore it
                # unless the slot was re-claimed in the meantime.
                try:
                    os.link(tomb, path)
                except OSError:
                    pass
                os.unlink(tomb)
                return False
            os.unlink(tomb)
        except OSError:
            pass
        return True


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
def drain_units(plan: ShardPlan, store: StageCache, board: ClaimBoard, *,
                timer: StageTimer | None = None,
                poll: float = 0.02) -> ShardStats:
    """Run ready units from ``plan`` until every unit has an artifact.

    The scan is restarted from the top after each completed unit so the
    LPT priority order is honored; when no unit is ready (all claimed
    elsewhere or blocked on upstreams) the worker sleeps ``poll`` seconds
    — with a capped exponential backoff — and rescans, reclaiming any
    claim whose heartbeat has gone stale.
    """
    stats = ShardStats(timer=timer or StageTimer())
    execute = plan.executor(store, stats.timer)
    done: set[str] = set()
    remaining: dict[str, WorkUnit] = {u.key: u for u in plan.units}
    backoff = poll

    def have(key: str) -> bool:
        if key in done:
            return True
        if store.contains(key):
            done.add(key)
            return True
        return False

    while remaining:
        advanced = False
        for key, unit in list(remaining.items()):
            if have(key):
                del remaining[key]
                stats.hits += 1
                advanced = True
                continue
            if not all(have(k) for _, k in unit.deps):
                continue
            claimed = board.try_claim(key)
            if not claimed and board.reclaim_if_stale(key):
                stats.reclaimed += 1
                claimed = board.try_claim(key)
            if not claimed:
                continue
            if have(key):
                # Raced with a finishing worker between probe and claim.
                board.release(key)
                del remaining[key]
                stats.hits += 1
                advanced = True
                continue
            t0 = time.perf_counter()
            try:
                # The context manager stops *and joins* the heartbeat on
                # unit completion (or failure) before the claim is
                # released — no thread outlives its unit.
                with board.heartbeat(key):
                    artifact = execute(unit)
                    store.store(key, artifact)
            finally:
                board.release(key)
            stats.credit(unit.stage, time.perf_counter() - t0)
            done.add(key)
            del remaining[key]
            stats.computed += 1
            advanced = True
            break  # rescan from the top: honor the LPT priority order
        if remaining and not advanced:
            time.sleep(backoff)
            stats.wait_s += backoff
            backoff = min(backoff * 2.0, max(poll, 0.25))
        else:
            backoff = poll
    return stats


# ----------------------------------------------------------------------
# Multi-process driver
# ----------------------------------------------------------------------
#: Inherited by forked workers (plan objects hold closures, so they ride
#: the fork instead of a pickle).
_FORK_STATE: tuple[ShardPlan, StageCache, float, float] | None = None


def _worker_main(seat: int, queue) -> None:
    assert _FORK_STATE is not None
    plan, store, ttl, poll = _FORK_STATE
    board = ClaimBoard.for_store(store, ttl=ttl,
                                 worker=f"w{seat}-pid{os.getpid()}")
    try:
        stats = drain_units(plan, store, board, poll=poll)
    except BaseException as exc:  # surface the cause to the parent
        queue.put(("error", seat, f"{type(exc).__name__}: {exc}"))
        raise
    queue.put(("stats", seat, stats))


def run_plan(plan: ShardPlan, *, workers: int = 1,
             store: StageCache, ttl: float | None = None,
             poll: float = 0.02) -> ShardStats:
    """Drain a plan with ``workers`` cooperating processes.

    Worker processes are forked (they inherit the plan copy-on-write);
    without the fork start method — or with ``workers <= 1`` — the plan
    drains in-process, which still goes through the claim board and the
    store, so resumability and crash reclamation behave identically.

    A worker that dies mid-run is tolerated as long as the survivors
    complete the plan (its claimed units are reclaimed after the TTL);
    if the plan is left incomplete, the first worker error is raised.
    """
    ttl = default_claim_ttl() if ttl is None else ttl
    workers = max(1, int(workers))
    if workers == 1 or "fork" not in mp.get_all_start_methods():
        board = ClaimBoard.for_store(store, ttl=ttl)
        return drain_units(plan, store, board, poll=poll)

    global _FORK_STATE
    ctx = mp.get_context("fork")
    queue = ctx.SimpleQueue()
    _FORK_STATE = (plan, store, ttl, poll)
    try:
        procs = [ctx.Process(target=_worker_main, args=(seat, queue))
                 for seat in range(workers)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
    finally:
        _FORK_STATE = None

    stats = ShardStats()
    errors: list[str] = []
    while not queue.empty():
        kind, _seat, payload = queue.get()
        if kind == "stats":
            stats.merge(payload)
        else:
            errors.append(payload)
    stats.worker_failures = sum(1 for p in procs if p.exitcode != 0)
    incomplete = [u for u in plan.units if not store.contains(u.key)]
    if incomplete:
        detail = errors[0] if errors else (
            f"worker exit codes {[p.exitcode for p in procs]}")
        raise RuntimeError(
            f"sharded run left {len(incomplete)} unit(s) incomplete "
            f"({detail}); re-invoke to resume from the stage store")
    return stats


@dataclass
class ShardReport:
    """Outcome of one sharded suite run."""

    results: dict[str, FlowResult]
    stats: ShardStats
    workers: int
    wall_s: float


def run_suite_sharded(config: SuiteRunConfig | None = None, *,
                      workers: int = 1,
                      store: StageCache | None = None,
                      ttl: float | None = None,
                      progress: bool = False,
                      timer: StageTimer | None = None) -> ShardReport:
    """Run a suite as stage work units over the shared stage store.

    Functionally equivalent to :func:`repro.experiments.runner.run_suite`
    (same stage keys, bit-identical ``FlowResult``s) but decomposed at
    stage granularity: ``workers`` independent processes claim ready
    units dynamically, and a re-invocation resumes from whatever stage
    artifacts already exist.  Requires the stage store — it *is* the
    coordination substrate — so ``REPRO_FLOW_CACHE=0`` raises unless an
    explicit ``store`` is passed.
    """
    cfg = config or SuiteRunConfig()
    if store is None:
        if not cache_enabled():
            raise RuntimeError(
                "the sharded suite runner coordinates through the stage "
                "store; unset REPRO_FLOW_CACHE=0 or pass store=")
        store = StageCache()
    plan = suite_plan(cfg, store=store, progress=progress)
    t0 = time.perf_counter()
    stats = run_plan(plan, workers=workers, store=store, ttl=ttl)
    wall = time.perf_counter() - t0
    if timer is not None:
        timer.merge(stats.timer)

    results: dict[str, FlowResult] = {}
    for name in cfg.names:
        cap = suite_entry(name).pattern_budget(scale=cfg.scale)
        result = suite_flow(name, cfg, cap, 1).cached_result(
            with_schedules=cfg.with_schedules,
            with_coverage_schedules=cfg.with_coverage_schedules,
            cache=store)
        if result is None:
            raise RuntimeError(
                f"sharded run completed but {name!r} has missing stage "
                f"artifacts — stage store at {store.root} is inconsistent")
        results[name] = result
    return ShardReport(results=results, stats=stats,
                       workers=max(1, int(workers)), wall_s=wall)


def run_suite_sharded_job(job, *, store: StageCache | None = None,
                          ttl: float | None = None,
                          progress: bool = False,
                          timer: StageTimer | None = None) -> ShardReport:
    """Execute a declarative :class:`repro.core.spec.SuiteJob`, sharded.

    The facade's sharded-suite path
    (:func:`repro.service.orchestrator.run_job`): the job's semantic
    fields become the :class:`SuiteRunConfig`, its non-semantic
    ``workers`` field sizes the cooperating process pool.
    """
    return run_suite_sharded(job.run_config(),
                             workers=job.workers or 1, store=store,
                             ttl=ttl, progress=progress, timer=timer)
