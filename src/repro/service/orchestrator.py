"""Job orchestration: one execution path for the CLI and the service.

Two layers:

* :func:`run_job` — the **synchronous facade**.  Takes any
  :class:`repro.core.spec.JobSpec`, resolves the circuit(s), runs the
  right pipeline (flow / suite / fleet / resched) against the shared
  stage store and returns a :class:`JobOutcome` carrying both the rich
  in-process value (``FlowResult``, the per-circuit results, ...) and a
  JSON-able ``payload``.  Every CLI verb goes through this function, so
  the CLI and the HTTP service are provably the same code path.
* :class:`Orchestrator` — the **async job queue** behind the HTTP
  server.  Submissions are deduped on the spec fingerprint: an
  identical in-flight job is joined (the follower resolves when the
  primary finishes, marked ``cache="dedup"``), and a repeat submission
  after completion re-executes through the stage store, where every
  stage hits — the interactive (< 50 ms class) replay path guarded by
  ``tests/test_perf_smoke.py``.  Worker tasks fan CPU work out via a thread
  executor; a suite job with ``workers > 1`` additionally forks that many
  shard workers (:func:`repro.experiments.runner.run_suite`).  Progress
  events (queued / started / per-stage timings from the
  ``StageTimer``-backed pipeline meta / done) stream to any number of
  listeners per job.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.spec import (
    FleetJob,
    FlowJob,
    JobSpec,
    ReschedJob,
    SpecError,
    SuiteJob,
)

#: Sentinel: "use the environment-default stage store" (REPRO_FLOW_CACHE
#: / REPRO_CACHE_DIR), as opposed to ``None`` = "no store".
ENV_STORE = object()

Progress = Callable[[dict], None]


def resolve_circuit(spec: str):
    """Resolve a job's circuit field: file path, embedded or suite name."""
    from repro.circuits.library import (
        PAPER_SUITE,
        embedded_circuit,
        suite_circuit,
    )
    from repro.netlist.bench import load_bench
    from repro.netlist.verilog import load_verilog

    path = Path(spec)
    if path.suffix == ".bench" and path.exists():
        return load_bench(path)
    if path.suffix in (".v", ".sv") and path.exists():
        return load_verilog(path)
    try:
        return embedded_circuit(spec)
    except KeyError:
        pass
    if spec in {e.name for e in PAPER_SUITE}:
        return suite_circuit(spec)
    raise SpecError(f"cannot resolve circuit {spec!r} "
                    f"(not a file, embedded or suite name)")


def _env_store(store):
    if store is ENV_STORE:
        from repro.experiments.artifact_cache import StageCache, cache_enabled

        return StageCache() if cache_enabled() else None
    return store


def _meta_cache_status(meta: dict, store) -> str:
    """Stage meta → outcome cache label (all-hit replay vs fresh work)."""
    if store is None:
        return "uncached"
    counts = meta.get("cache", {})
    if counts.get("misses", 0) == 0 and counts.get("hits", 0) > 0:
        return "hit"
    return "miss"


@dataclass
class JobOutcome:
    """What one facade execution produced."""

    spec: JobSpec
    fingerprint: str
    #: Rich in-process value: FlowResult, dict[str, FlowResult] (suite),
    #: FleetStudy or the resched replay dict.
    value: Any
    #: JSON-able result document (what the HTTP API serves).
    payload: dict
    #: Pipeline meta (per-stage seconds + cache status) when applicable.
    meta: dict
    seconds: float
    #: "hit" (served from the stage store), "miss" (computed),
    #: "uncached" (no store) or "dedup" (joined an in-flight run).
    cache: str


# ----------------------------------------------------------------------
# Per-kind executors (the one true code path per job type)
# ----------------------------------------------------------------------
def _emit_stage_events(meta: dict, progress: Progress | None) -> None:
    if progress is None:
        return
    for name, info in meta.get("stages", {}).items():
        progress({"event": "stage", "stage": name,
                  "seconds": round(info.get("seconds", 0.0), 6),
                  "cache": info.get("cache", "?")})


def _note(progress: Progress | None):
    if progress is None:
        return None
    return lambda m: progress({"event": "log", "message": str(m)})


def _execute_flow(job: FlowJob, store, recompute_from, progress,
                  timer, options) -> tuple[Any, dict, dict, str]:
    from repro.core.flow import HdfTestFlow

    circuit = resolve_circuit(job.circuit)
    result = HdfTestFlow(circuit, job.flow_config()).run(
        with_schedules=job.with_schedules,
        with_coverage_schedules=job.with_coverage_schedules,
        progress=_note(progress), timer=timer,
        cache=store, recompute_from=recompute_from)
    _emit_stage_events(result.meta, progress)
    payload = {
        "circuit": circuit.name,
        "table1": result.table1_row(),
        "stages": result.meta.get("stages", {}),
    }
    if job.with_schedules:
        payload["table2"] = result.table2_row()
    return result, payload, result.meta, _meta_cache_status(result.meta,
                                                           store)


def _execute_suite(job: SuiteJob, store, recompute_from, progress,
                   timer, options) -> tuple[Any, dict, dict, str]:
    from repro.experiments.runner import run_suite
    from repro.experiments.shard import ShardStats

    stats = ShardStats()
    results = run_suite(
        job.run_config(), workers=job.workers, store=store,
        ttl=options.get("claim_ttl"),
        progress=bool(options.get("shard_progress")), stats=stats,
        recompute_from=recompute_from)
    if timer is not None:
        timer.merge(stats.timer)
    payload = {
        "circuits": list(job.names),
        "workers": stats.workers,
        "wall_s": round(stats.wall_s, 4),
        "units": {"computed": stats.computed, "cached": stats.hits,
                  "reclaimed": stats.reclaimed,
                  "worker_failures": stats.worker_failures},
        "idle_wait_s": round(stats.wait_s, 4),
        "stage_seconds": {k: round(v, 4)
                          for k, v in sorted(stats.stage_seconds.items())},
        "results": {
            name: {"faults": res.classification.num_faults,
                   "target": len(res.classification.target),
                   "gain_percent": round(
                       res.classification.coverage_gain_percent, 2)}
            for name, res in results.items()},
    }
    if progress is not None:
        progress({"event": "suite", **{k: v for k, v in payload.items()
                                       if k != "results"}})
    meta = {"cache": {"hits": stats.hits, "misses": stats.computed}}
    if store is None:
        cache = "uncached"
    else:
        # Memo or store replays compute nothing.
        cache = "miss" if stats.computed else "hit"
    return results, payload, meta, cache


def _execute_fleet(job: FleetJob, store, recompute_from, progress,
                   timer, options) -> tuple[Any, dict, dict, str]:
    from repro.experiments.fleet import run_fleet_study

    circuit = resolve_circuit(job.circuit)
    study = run_fleet_study(circuit, spec=job.scenario,
                            devices=job.devices, jobs=job.jobs, cache=store)
    _emit_stage_events(study.meta, progress)
    payload = {
        "scenario": job.scenario.fingerprint(),
        **study.summary(),
    }
    return study, payload, study.meta, _meta_cache_status(study.meta,
                                                          store)


def _execute_resched(job: ReschedJob, store, recompute_from, progress,
                     timer, options) -> tuple[Any, dict, dict, str]:
    from repro.core.flow import HdfTestFlow
    from repro.experiments.resched import (
        ALERT_CHECKPOINTS,
        DEFAULT_SPEC,
        alert_stream_for_state,
        replay_alert_events,
    )
    from repro.scheduling.resched import (
        apply_alert,
        prepare_state_for_result,
    )

    circuit = resolve_circuit(job.circuit)
    result = HdfTestFlow(circuit, job.flow_config()).run(
        with_schedules=False, progress=_note(progress), timer=timer,
        cache=store, recompute_from=recompute_from)
    _emit_stage_events(result.meta, progress)
    state = prepare_state_for_result(result)
    if job.alerts:
        alerts = job.alert_deltas()
    else:
        alerts = alert_stream_for_state(
            circuit, state, spec=job.scenario or DEFAULT_SPEC,
            checkpoints=ALERT_CHECKPOINTS, max_gates=job.max_gates)
    base = state.schedule
    initial = {
        "circuit": circuit.name, "alerts": len(alerts), "targets": len(state.targets),
        "frequencies": base.num_frequencies,
        "entries": base.num_entries, "covered": len(base.covered),
    }
    events, summary = replay_alert_events(
        state, alerts, apply_alert,
        progress=(lambda ev: progress({"event": "alert", **ev}))
        if progress is not None else None)
    summary = {"circuit": circuit.name, **summary}
    payload = {"initial": initial, "events": events, "summary": summary}
    value = {"state": state, "alerts": alerts, **payload}
    return value, payload, result.meta, _meta_cache_status(result.meta,
                                                           store)


_EXECUTORS: dict[type, Callable] = {
    FlowJob: _execute_flow,
    SuiteJob: _execute_suite,
    FleetJob: _execute_fleet,
    ReschedJob: _execute_resched,
}


def run_job(spec: JobSpec, *,
            store=ENV_STORE,
            recompute_from: tuple[str, ...] = (),
            progress: Progress | None = None,
            timer=None,
            **options: Any) -> JobOutcome:
    """Execute one job synchronously — the facade behind every CLI verb.

    ``store`` is the stage store (default: the ``REPRO_FLOW_CACHE``
    environment store; ``None`` disables caching).  ``recompute_from``
    forces the named pipeline stages plus downstream to recompute — it
    is an *execution option*, deliberately not part of the spec, so a
    deduped/cached submission can never silently skip a requested
    recompute.  Extra keyword ``options`` are per-kind execution knobs
    (``claim_ttl``, ``shard_progress`` for suites).
    """
    executor = _EXECUTORS.get(type(spec))
    if executor is None:
        raise SpecError(f"no executor for job type {type(spec).__name__}")
    store = _env_store(store)
    t0 = time.perf_counter()
    value, payload, meta, cache = executor(
        spec, store, tuple(recompute_from), progress, timer,
        dict(options))
    seconds = time.perf_counter() - t0
    return JobOutcome(spec=spec, fingerprint=spec.fingerprint(),
                      value=value, payload=payload, meta=meta,
                      seconds=seconds, cache=cache)


# ----------------------------------------------------------------------
# Async orchestration (the service layer)
# ----------------------------------------------------------------------
_TERMINAL = frozenset({"done", "failed", "cancelled"})

#: Finished (done, failed or cancelled) job records an orchestrator keeps,
#: payloads and event logs included; beyond it the records that finished
#: first are evicted and their ids answer 404.  Queued and running
#: records are never evicted.
MAX_FINISHED_JOBS = 1000


@dataclass
class JobRecord:
    """One submission: bookkeeping + event log.

    Event appends and state flips happen under the orchestrator's lock
    and notify its condition, so plain HTTP handler threads can wait on
    progress without touching the asyncio loop.
    """

    id: str
    spec: JobSpec
    fingerprint: str
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    seconds: float = 0.0
    cache: str = ""
    #: Primary job id this submission was deduped onto (followers only).
    dedup_of: str | None = None
    error: str | None = None
    payload: dict | None = None
    events: list[dict] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def status(self) -> dict:
        return {
            "id": self.id, "kind": self.spec.kind,
            "fingerprint": self.fingerprint, "state": self.state,
            "cache": self.cache, "dedup_of": self.dedup_of,
            "seconds": round(self.seconds, 6), "error": self.error,
            "events": len(self.events),
        }


class Orchestrator:
    """Asyncio job queue with fingerprint dedupe over the stage store.

    Create, then ``await start()`` inside a running loop.  ``submit``
    either enqueues a new primary, attaches a follower to an identical
    in-flight primary, or (identical fingerprint already completed)
    enqueues a re-run that replays all-hit from the stage store.
    """

    def __init__(self, *, store=ENV_STORE, workers: int = 2):
        self._store = _env_store(store)
        self._workers = max(1, int(workers))
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._records: dict[str, JobRecord] = {}  # in submission order
        self._inflight: dict[str, str] = {}      # fingerprint -> primary id
        self._followers: dict[str, list[str]] = {}
        self._finished: deque[str] = deque()     # terminal ids, oldest first
        self._seq = 0
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._tasks: list[asyncio.Task] = []
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-job")

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        for _ in range(self._workers):
            self._tasks.append(loop.create_task(self._worker()))

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- submission / queries -------------------------------------------
    def _push_event(self, record: JobRecord, event: dict) -> None:
        with self._cond:
            record.events.append({"seq": len(record.events),
                                  "job": record.id, **event})
            self._cond.notify_all()

    async def submit(self, spec: JobSpec) -> JobRecord:
        fingerprint = spec.fingerprint()
        with self._cond:
            self._seq += 1
            record = JobRecord(id=f"job-{self._seq:04d}", spec=spec,
                               fingerprint=fingerprint)
            self._records[record.id] = record
            primary_id = self._inflight.get(fingerprint)
            if primary_id is not None:
                record.dedup_of = primary_id
                self._followers.setdefault(primary_id, []).append(
                    record.id)
            else:
                self._inflight[fingerprint] = record.id
        self._push_event(record, {"event": "queued",
                                  "kind": spec.kind,
                                  "fingerprint": fingerprint,
                                  "dedup_of": record.dedup_of})
        if record.dedup_of is None:
            await self._queue.put(record.id)
        return record

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def jobs(self) -> list[dict]:
        with self._lock:
            return [record.status() for record in self._records.values()]

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued job (running jobs finish; followers detach).

        Cancelling a queued primary promotes its first follower to
        primary and queues it; the other followers join the new primary.
        """
        with self._cond:
            record = self._records.get(job_id)
            if record is None or record.terminal:
                return False
            if record.state != "queued":
                return False
            record.state = "cancelled"
            record.finished_at = time.time()
            promoted = None
            if record.dedup_of is not None:
                peers = self._followers.get(record.dedup_of, [])
                if job_id in peers:
                    peers.remove(job_id)
            elif self._inflight.get(record.fingerprint) == job_id:
                # Followers must not wait on a primary that never runs:
                # the first one becomes the primary, the rest follow it.
                followers = self._followers.pop(job_id, [])
                if followers:
                    promoted, *rest = followers
                    self._records[promoted].dedup_of = None
                    for fid in rest:
                        self._records[fid].dedup_of = promoted
                    if rest:
                        self._followers[promoted] = rest
                    self._inflight[record.fingerprint] = promoted
                else:
                    del self._inflight[record.fingerprint]
            self._retire(job_id)
            self._cond.notify_all()
        self._push_event(record, {"event": "cancelled"})
        if promoted is not None:
            await self._queue.put(promoted)
        return True

    def _retire(self, *job_ids: str) -> None:
        """Count records as finished and evict the oldest finished ones
        beyond :data:`MAX_FINISHED_JOBS`.  The caller holds the lock."""
        self._finished.extend(job_ids)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self._records[self._finished.popleft()]

    # -- streaming ------------------------------------------------------
    def events_since(self, job_id: str, since: int = 0
                     ) -> tuple[list[dict], bool]:
        """Events after ``since`` plus whether the job is terminal (an
        evicted job reads as terminal with no further events)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return [], True
            return list(record.events[since:]), record.terminal

    def wait_events(self, job_id: str, since: int,
                    timeout: float = 10.0) -> tuple[list[dict], bool]:
        """Block (handler thread) until new events arrive or timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                return [], True
            while len(record.events) <= since and not record.terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return list(record.events[since:]), record.terminal

    # -- execution ------------------------------------------------------
    def _finish(self, record: JobRecord, *, payload: dict | None,
                cache: str, seconds: float, error: str | None) -> None:
        with self._cond:
            record.payload = payload
            record.cache = cache
            record.seconds = seconds
            record.error = error
            record.state = "failed" if error else "done"
            record.finished_at = time.time()
            if self._inflight.get(record.fingerprint) == record.id:
                del self._inflight[record.fingerprint]
            followers = self._followers.pop(record.id, [])
            follower_records = [self._records[i] for i in followers]
            for frec in follower_records:
                frec.payload = payload
                frec.cache = "dedup"
                frec.seconds = seconds
                frec.error = error
                frec.state = record.state
                frec.started_at = record.started_at
                frec.finished_at = record.finished_at
            self._retire(record.id, *followers)
            self._cond.notify_all()
        terminal_event = ({"event": "failed", "error": error} if error
                          else {"event": "done", "cache": cache,
                                "seconds": round(seconds, 6)})
        self._push_event(record, terminal_event)
        for frec in follower_records:
            self._push_event(frec, {**terminal_event,
                                    "cache": "dedup",
                                    "dedup_of": record.id})

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job_id = await self._queue.get()
            record = self.get(job_id)
            if record is None or record.terminal:
                continue
            with self._cond:
                record.state = "running"
                record.started_at = time.time()
                self._cond.notify_all()
            self._push_event(record, {"event": "started"})

            def progress(event: dict, _record=record) -> None:
                # Called from the executor thread: append directly, the
                # event log is lock-protected (no loop hop needed).
                self._push_event(_record, event)

            try:
                outcome = await loop.run_in_executor(
                    self._executor,
                    lambda r=record, p=progress: run_job(
                        r.spec, store=self._store, progress=p))
            except Exception as exc:  # noqa: BLE001 — report, don't die
                self._finish(record, payload=None, cache="",
                             seconds=0.0,
                             error=f"{type(exc).__name__}: {exc}")
            else:
                self._finish(record, payload=outcome.payload,
                             cache=outcome.cache,
                             seconds=outcome.seconds, error=None)
