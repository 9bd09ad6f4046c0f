"""Command-line interface.

Subcommands:

* ``flow``    — run the complete HDF test flow on a ``.bench`` / ``.v``
  netlist (or a named built-in circuit) and print the paper-style summary.
* ``tables``  — regenerate Table I/II/III over the (scaled) paper suite.
* ``fig3``    — print the HDF-coverage-vs-f_max sweep for one circuit.
* ``aging``   — lifetime simulation with monitor alerts and failure
  prediction for a circuit (optionally driven by a ``--scenario`` JSON
  spec).
* ``fleet``   — fleet-scale Monte Carlo aging study over a device
  population (same scenario schema, ``--devices``/``--jobs``).
* ``suite``   — sharded suite runner: decompose a suite into stage work
  units over the shared stage store and drain them with ``--workers N``
  cooperating processes (resumable; see ``docs/ALGORITHMS.md`` §15).
* ``resched`` — replay an in-field monitor alert stream (JSON file or a
  ``ScenarioSpec``-driven synthetic generator) through the adaptive
  rescheduling engine and print per-alert re-solve latencies.
* ``serve``   — start the HDF-flow service: a stdlib HTTP/JSON API over
  the async job orchestrator (submit/status/stream/result/cancel),
  deduping identical jobs against the shared stage store.
* ``submit``  — send a declarative job document (``{"kind": "flow",
  ...}``, see :mod:`repro.core.spec`) to a running service.
* ``generate``— emit a synthetic benchmark circuit as ``.bench``.
* ``bench``   — re-measure the perf-baseline workloads and print current
  vs committed (``BENCH_detection.json`` / ``BENCH_schedule.json`` /
  ``BENCH_atpg.json`` / ``BENCH_resched.json`` / ``BENCH_suite.json`` /
  ``BENCH_service.json``) deltas.

The ``flow``/``tables``/``fleet``/``resched``/``suite`` verbs all build
a typed :mod:`repro.core.spec` job and execute it through
:func:`repro.service.orchestrator.run_job` — the same code path the
service runs, so CLI results and service results are interchangeable.

Examples::

    python -m repro flow s27
    python -m repro flow my_design.bench --monitor-fraction 0.5
    python -m repro tables --suite s9234 s13207 --scale 0.6 --jobs 4
    python -m repro fig3 s13207
    python -m repro aging s27 --marginal 2
    python -m repro suite --profile synth --count 40 --workers 4
    python -m repro resched s9234 --alerts alerts.json
    python -m repro serve --port 8732
    python -m repro submit job.json --wait
    python -m repro generate demo.bench --gates 200 --ffs 32
    python -m repro bench --stage atpg
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.core import FlowConfig, HdfTestFlow
from repro.netlist.bench import save_bench
from repro.netlist.circuit import Circuit


def _load_circuit(spec: str) -> Circuit:
    """Resolve a circuit argument: file path, embedded or suite name."""
    from repro.core.spec import SpecError
    from repro.service.orchestrator import resolve_circuit

    try:
        return resolve_circuit(spec)
    except SpecError as exc:
        raise SystemExit(f"error: {exc}")


def _flow_config(args: argparse.Namespace) -> FlowConfig:
    return FlowConfig(
        fast_ratio=args.fast_ratio,
        monitor_fraction=args.monitor_fraction,
        pattern_cap=args.pattern_cap,
        atpg_seed=args.seed,
    )


def _run_job(job, **options):
    """Execute one job through the service facade, SystemExit on spec
    errors (the CLI's error convention)."""
    from repro.core.spec import SpecError
    from repro.service.orchestrator import run_job

    try:
        return run_job(job, **options)
    except SpecError as exc:
        raise SystemExit(f"error: {exc}")


def _recompute_from(args: argparse.Namespace) -> tuple[str, ...]:
    """Validated ``--recompute-from`` stage names (downstream is implied)."""
    from repro.core import DEFAULT_PIPELINE

    names = tuple(getattr(args, "recompute_from", None) or ())
    if names:
        try:
            DEFAULT_PIPELINE.descendants(names)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    return names


def _stage_cache(args: argparse.Namespace):
    from repro.experiments.artifact_cache import StageCache, cache_enabled

    if getattr(args, "no_cache", False) or not cache_enabled():
        return None
    return StageCache()


def _print_stage_meta(meta: dict) -> None:
    for name, info in meta.get("stages", {}).items():
        print(f"  [stage] {name:<10s} {info['seconds']:8.3f} s  "
              f"{info['cache']}", file=sys.stderr)


def _verbose_progress(event: dict) -> None:
    """Facade progress events → the CLI's stderr log lines."""
    if event.get("event") == "log":
        print(f"  [flow] {event['message']}", file=sys.stderr)


def cmd_flow(args: argparse.Namespace) -> int:
    from repro.core.spec import FlowJob
    from repro.experiments.reporting import format_table

    job = FlowJob(circuit=args.circuit,
                  fast_ratio=args.fast_ratio,
                  monitor_fraction=args.monitor_fraction,
                  pattern_cap=args.pattern_cap,
                  atpg_seed=args.seed,
                  with_schedules=True)
    outcome = _run_job(job,
                       store=_stage_cache(args),
                       recompute_from=_recompute_from(args),
                       progress=_verbose_progress if args.verbose else None)
    result = outcome.value
    if args.verbose:
        _print_stage_meta(result.meta)
    print(format_table([result.table1_row()], title="HDF coverage"))
    print(format_table([result.table2_row()], title="Schedule optimization"))
    prop = result.schedules["prop"]
    if args.show_schedule:
        for e in prop.entries:
            cfg = "FF-only" if e.config < 0 else f"d={result.configs[e.config]:.1f}ps"
            print(f"  t={e.period:9.2f} ps  pattern #{e.pattern:<4d}  {cfg}")
    if args.export:
        from repro.scheduling.export import save_schedule, write_tester_program

        out = Path(args.export)
        save_schedule(prop, out)
        program = write_tester_program(prop, result.configs,
                                       circuit_name=result.circuit.name,
                                       t_nom=result.clock.t_nom)
        out.with_suffix(".fast").write_text(program)
        print(f"exported schedule to {out} and {out.with_suffix('.fast')}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.circuits.library import paper_suite
    from repro.core.spec import SuiteJob
    from repro.experiments.reporting import format_table
    from repro.experiments.table1 import table1_rows
    from repro.experiments.table2 import table2_rows
    from repro.experiments.table3 import table3_rows

    names = tuple(args.suite) if args.suite else tuple(
        e.name for e in paper_suite())
    job = SuiteJob(names=names, scale=args.scale, with_schedules=True,
                   with_coverage_schedules=args.table3,
                   workers=max(1, args.jobs) if args.jobs is not None
                   else None)
    # The facade run warms the in-process suite cache (honoring any
    # forced recompute); the table drivers below reuse those results.
    _run_job(job, recompute_from=_recompute_from(args))
    cfg = job.run_config()
    print(format_table(table1_rows(cfg), title="Table I"))
    print(format_table(table2_rows(cfg), title="Table II"))
    if args.table3:
        print(format_table(table3_rows(cfg), title="Table III"))
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.fig3 import fig3_series
    from repro.experiments.reporting import format_table

    circuit = _load_circuit(args.circuit)
    result = HdfTestFlow(circuit, _flow_config(args)).run(
        with_schedules=False, cache=_stage_cache(args))
    rows = [
        {"fmax/fnom": p.fmax_ratio,
         "conv_%": round(100 * p.conv_coverage, 1),
         "prop_%": round(100 * p.prop_coverage, 1)}
        for p in fig3_series(result)
    ]
    print(format_table(rows, title=f"Fig. 3 — {circuit.name}"))
    return 0


def cmd_aging(args: argparse.Namespace) -> int:
    from repro.aging import (
        AgingScenario,
        FailurePredictor,
        LifetimeSimulator,
        inject_marginal_defects,
    )
    from repro.monitors import MonitorConfigSet, insert_monitors
    from repro.timing import ClockSpec, run_sta

    circuit = _load_circuit(args.circuit)
    spec = None
    if args.scenario:
        from repro.aging.scenario import ScenarioSpec

        spec = ScenarioSpec.load(args.scenario)
    sta = run_sta(circuit)
    margin = spec.clock_margin if spec is not None else args.margin
    clock = ClockSpec(margin * sta.critical_path)
    configs = MonitorConfigSet.paper_default(clock.t_nom)
    placement = insert_monitors(circuit, sta, configs,
                                fraction=args.monitor_fraction)
    marginal = (inject_marginal_defects(circuit, count=args.marginal,
                                        seed=args.seed)
                if args.marginal else None)
    scenario = (spec.aging_scenario() if spec is not None
                else AgingScenario(seed=args.seed))
    sim = LifetimeSimulator(circuit, clock, placement,
                            scenario=scenario,
                            marginal=marginal, seed=args.seed)
    times = (list(spec.checkpoints) if spec is not None
             else [0.25 * 2 ** k for k in range(args.steps)])
    result = sim.run(times)
    for p in result.points:
        alerting = [f"d{ci}" for ci, hit in p.alerts.items() if hit]
        print(f"t={p.t:8.2f}  cpl={p.critical_path:9.1f} ps  "
              f"slack={p.slack:8.1f} ps  alerts={','.join(alerting) or '-'}"
              f"{'  FAILED' if p.failed else ''}")
    print("prediction:", FailurePredictor().predict(result).summary())
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.core.spec import FleetJob, ScenarioSpec
    from repro.experiments.reporting import format_table
    from repro.service.orchestrator import ENV_STORE

    spec = (ScenarioSpec.load(args.scenario) if args.scenario
            else ScenarioSpec())
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    job = FleetJob(circuit=args.circuit, scenario=spec,
                   devices=args.devices, jobs=args.jobs)
    outcome = _run_job(job, store=None if args.no_cache else ENV_STORE)
    study = outcome.value
    summary = study.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    m = summary["metrics"]
    print(f"fleet: {study.circuit}  devices={study.devices}  "
          f"scenario={spec.fingerprint()}")
    print(f"failed={m['failed']}  detected={m['detected']}  "
          f"missed={m['missed']}  false_alarms={m['false_alarms']}  "
          f"infant={summary['distributions']['infant_devices']}")
    print(f"detection_rate={m['detection_rate']:.3f}  "
          f"mispredict_rate={m['mispredict_rate']:.3f}  "
          f"mean_lead_time={m['mean_lead_time']:.3f}")
    rows = [
        {"quantity": name, "count": stats["count"],
         "mean": round(stats["mean"], 3), "p5": round(stats["p5"], 3),
         "p50": round(stats["p50"], 3), "p95": round(stats["p95"], 3)}
        for name, stats in summary["distributions"].items()
        if isinstance(stats, dict)
    ]
    print(format_table(rows, title="Fleet distributions (lifetime units)"))
    secs = summary["stage_seconds"]
    if secs:
        print("stages:", "  ".join(f"{k}={v:.3f}s"
                                   for k, v in secs.items()))
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.core.spec import SuiteJob
    from repro.experiments.reporting import format_table

    job = SuiteJob.from_profile(
        args.profile, count=args.count,
        scale=args.scale,
        with_schedules=True if args.schedules else None,
        workers=args.workers, sharded=True)
    try:
        report = _run_job(job, claim_ttl=args.claim_ttl,
                          shard_progress=args.progress).value
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stats = report.stats
    print(f"suite: {len(job.names)} circuits  profile={args.profile}  "
          f"workers={report.workers}  wall={report.wall_s:.3f}s")
    print(f"units: computed={stats.computed}  cached={stats.hits}  "
          f"reclaimed={stats.reclaimed}  "
          f"worker_failures={stats.worker_failures}  "
          f"idle_wait={stats.wait_s:.3f}s")
    if stats.stage_seconds:
        print("stages:", "  ".join(
            f"{k}={v:.3f}s" for k, v in sorted(stats.stage_seconds.items())))
    if len(job.names) <= 16:
        rows = [
            {"circuit": name,
             "faults": res.classification.num_faults,
             "target": len(res.classification.target),
             "gain_%": round(res.classification.coverage_gain_percent, 2)}
            for name, res in report.results.items()
        ]
        print(format_table(rows, title="Suite results"))
    else:
        total = sum(len(r.classification.target)
                    for r in report.results.values())
        print(f"aggregate: {total} target faults across "
              f"{len(report.results)} circuits")
    return 0


def cmd_resched(args: argparse.Namespace) -> int:
    import json

    from repro.core.spec import ReschedJob, ScenarioSpec, SpecError

    try:
        job = ReschedJob(
            circuit=args.circuit,
            fast_ratio=args.fast_ratio,
            monitor_fraction=args.monitor_fraction,
            pattern_cap=args.pattern_cap,
            atpg_seed=args.seed,
            alerts=(ReschedJob.alerts_from_deltas(
                _load_alert_stream(args.alerts)) if args.alerts else ()),
            scenario=(ScenarioSpec.load(args.scenario)
                      if args.scenario else None),
            max_gates=args.max_gates)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcome = _run_job(job, store=_stage_cache(args),
                       recompute_from=_recompute_from(args))
    initial = outcome.payload["initial"]
    events = outcome.payload["events"]
    summary = outcome.payload["summary"]
    print(f"resched: {initial['circuit']}  "
          f"alerts={initial['alerts']}  "
          f"targets={initial['targets']}  "
          f"initial: freqs={initial['frequencies']} "
          f"entries={initial['entries']} covered={initial['covered']}")
    if not args.json:
        for e in events:
            print(f"  #{e['alert']:<3d} "
                  f"gates={','.join(map(str, e['gates'])) or '-':<12s} "
                  f"{e['ms']:8.2f} ms  {e['path']:<18s} "
                  f"freqs={e['frequencies']:<3d} "
                  f"entries={e['entries']:<4d} "
                  f"covered={e['covered']}")
        print(f"summary: median={summary['median_ms']:.2f} ms  "
              f"max={summary['max_ms']:.2f} ms  "
              f"total={summary['total_s']:.3f} s")
    else:
        print(json.dumps({"summary": summary, "events": events}, indent=2))
    return 0


def _load_alert_stream(path: str):
    from repro.scheduling.resched import load_alert_stream

    return load_alert_stream(path)


def cmd_generate(args: argparse.Namespace) -> int:
    profile = CircuitProfile(
        name=Path(args.output).stem, n_gates=args.gates, n_ffs=args.ffs,
        n_inputs=args.inputs, n_outputs=args.outputs, depth=args.depth,
        seed=args.seed)
    circuit = generate_circuit(profile)
    save_bench(circuit, args.output)
    print(f"wrote {args.output}: {circuit.stats()}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.orchestrator import ENV_STORE
    from repro.service.server import serve

    try:
        service = serve(host=args.host, port=args.port,
                        store=None if args.no_cache else ENV_STORE,
                        workers=args.workers)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(f"repro service listening on {service.url}  "
          f"(workers={args.workers}, "
          f"cache={'off' if args.no_cache else 'on'})")
    print("POST /jobs — submit; GET /jobs/<id> /result /stream; "
          "Ctrl-C to stop", file=sys.stderr)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.shutdown()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json
    import time
    from urllib import error, request

    try:
        document = json.loads(Path(args.job).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read job document {args.job}: {exc}",
              file=sys.stderr)
        return 1
    base = args.url.rstrip("/")
    try:
        req = request.Request(
            f"{base}/jobs", data=json.dumps(document).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with request.urlopen(req) as resp:
            submitted = json.loads(resp.read())
    except error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        print(f"error: service rejected the job ({exc.code}): {detail}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach the service at {base}: {exc}",
              file=sys.stderr)
        return 1
    job_id = submitted["id"]
    dedup = (f"  deduped onto {submitted['dedup_of']}"
             if submitted.get("deduped") else "")
    print(f"submitted {job_id}  kind={submitted['kind']}  "
          f"fingerprint={submitted['fingerprint']}{dedup}")
    if args.stream:
        try:
            with request.urlopen(f"{base}/jobs/{job_id}/stream") as resp:
                for raw in resp:
                    line = raw.strip()
                    if line:
                        print(line.decode())
        except BrokenPipeError:
            # Downstream consumer (e.g. ``submit --stream | head``) closed
            # stdout; the job keeps running server-side.
            return 0
    if args.wait or args.stream:
        while True:
            with request.urlopen(f"{base}/jobs/{job_id}") as resp:
                status = json.loads(resp.read())
            if status["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.2)
        if status["state"] != "done":
            print(f"error: job {job_id} {status['state']}: "
                  f"{status.get('error')}", file=sys.stderr)
            return 1
        with request.urlopen(f"{base}/jobs/{job_id}/result") as resp:
            result = json.loads(resp.read())
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _bench_detection_engines(res) -> dict[str, float]:
    """Best-of-two wall clock of every detection engine."""
    import time

    from repro.faults.detection import compute_detection_data

    out: dict[str, float] = {}
    for engine in ("reference", "incremental", "wordwave"):
        best = float("inf")
        for _ in range(2):   # warm-up + measured (plan/cone caches fill once)
            t0 = time.perf_counter()
            compute_detection_data(
                res.circuit, res.data.faults, res.test_set,
                horizon=res.clock.t_nom,
                monitored_gates=res.placement.monitored_gates,
                inertial=FlowConfig().inertial_ps,
                engine=engine)
            best = min(best, time.perf_counter() - t0)
        out[engine] = best
    return out


def _bench_detection_current(res) -> float:
    return _bench_detection_engines(res)["wordwave"]


def _bench_schedule_current(res) -> float:
    import time

    from repro.scheduling.baselines import conventional_targets
    from repro.scheduling.schedule import optimize_schedule

    cls_ = res.classification
    jobs = [(conventional_targets(cls_), None, "ilp", 1.0),
            (cls_.target, res.configs, "greedy", 1.0),
            (cls_.target, res.configs, "ilp", 1.0),
            (cls_.target, res.configs, "ilp", 0.95),
            (cls_.target, res.configs, "ilp", 0.90)]
    best = float("inf")
    for _ in range(2):
        res.data._sched_cache.clear()
        res.data._det_range.clear()
        t0 = time.perf_counter()
        for targets, configs, solver, cov in jobs:
            optimize_schedule(res.data, targets, res.clock, configs,
                              solver=solver, coverage=cov)
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_atpg_current(res) -> float:
    import time

    from repro.atpg.transition import generate_transition_tests

    best = float("inf")
    for _ in range(2):       # warm-up + measured (cone caches fill once)
        t0 = time.perf_counter()
        generate_transition_tests(res.circuit, seed=FlowConfig().atpg_seed,
                                  engine="matrix")
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_resched_current(res) -> float:
    """Incremental alert-burst replay seconds (the committed workload)."""
    from repro.experiments.resched import replay_result

    replay = replay_result(res)
    if not replay.cost_equal:
        print(f"warning: incremental schedules diverged from cold on "
              f"{res.circuit.name}", file=sys.stderr)
    return replay.total_s


def _bench_fleet_current(name: str) -> float:
    """Re-time the committed fleet workload for one circuit name.

    Unlike the other bench stages this does not need flow results — the
    fleet workload is the ``sta -> aging`` pipeline itself, uncached.
    """
    from repro.experiments.fleet import bench_fleet_seconds

    return bench_fleet_seconds(_load_circuit(name))


def _bench_suite_rows(baseline: dict) -> list[dict]:
    """Re-measure the committed sharded-suite smoke matrix (real flows).

    Each worker count replays the committed synthetic smoke suite on a
    fresh throwaway stage store, so the measurement is always a cold
    sharded run — comparable to the committed numbers.
    """
    import tempfile

    from repro.experiments.artifact_cache import StageCache
    from repro.experiments.runner import SuiteRunConfig
    from repro.experiments.shard import run_suite_sharded

    smoke = baseline.get("smoke")
    if not smoke:
        print("warning: BENCH_suite.json has no 'smoke' section; "
              "re-run benchmarks/test_bench_suite.py", file=sys.stderr)
        return []
    cfg = SuiteRunConfig(names=tuple(smoke["names"]),
                         scale=smoke.get("scale", 1.0),
                         with_schedules=False)
    rows = []
    for w_str, committed in sorted(smoke["workers"].items(),
                                   key=lambda kv: int(kv[0])):
        with tempfile.TemporaryDirectory() as td:
            report = run_suite_sharded(cfg, workers=int(w_str),
                                       store=StageCache(td))
        rows.append({
            "stage": "suite", "circuit": f"smoke w={w_str}",
            "committed_s": f"{committed:.3f}",
            "current_s": f"{report.wall_s:.3f}",
            "delta_percent": round(
                100.0 * (report.wall_s - committed) / committed, 1),
        })
    return rows


def _bench_service_rows(baseline: dict) -> list[dict]:
    """Re-measure the committed service workload (cold + cached replay).

    Runs the committed job document cold on a throwaway stage store,
    then re-submits it: every stage hits, so the replay latency is the
    interactive dedupe path measured by
    ``benchmarks/test_bench_service.py``.
    """
    import tempfile
    import time

    from repro.core.spec import job_from_dict
    from repro.experiments.artifact_cache import StageCache
    from repro.service.orchestrator import run_job

    document = baseline.get("job")
    if not document:
        print("warning: BENCH_service.json has no 'job' section; "
              "re-run benchmarks/test_bench_service.py", file=sys.stderr)
        return []
    job = job_from_dict(document)
    repeats = max(1, int(baseline.get("repeats", 5)))
    with tempfile.TemporaryDirectory() as td:
        store = StageCache(td)
        t0 = time.perf_counter()
        run_job(job, store=store)
        cold_s = time.perf_counter() - t0
        lat = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            outcome = run_job(job, store=store)
            lat.append(time.perf_counter() - t0)
            if outcome.cache != "hit":
                print(f"warning: service replay was {outcome.cache!r}, "
                      f"not a stage-store hit", file=sys.stderr)
        lat.sort()
    hit_s = lat[len(lat) // 2]
    committed_hit_s = baseline["hit_median_ms"] / 1000.0
    return [
        {"stage": "service", "circuit": f"{job.kind}:cold",
         "committed_s": f"{baseline['cold_s']:.4f}",
         "current_s": f"{cold_s:.4f}",
         "delta_percent": round(
             100.0 * (cold_s - baseline["cold_s"])
             / baseline["cold_s"], 1)},
        {"stage": "service", "circuit": f"{job.kind}:hit",
         "committed_s": f"{committed_hit_s:.4f}",
         "current_s": f"{hit_s:.4f}",
         "delta_percent": round(
             100.0 * (hit_s - committed_hit_s) / committed_hit_s, 1)},
    ]


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.reporting import format_table
    from repro.experiments.runner import SuiteRunConfig, run_suite

    root = args.root or Path(__file__).resolve().parents[2]
    stages = {
        "detection": (root / "BENCH_detection.json", _bench_detection_current),
        "schedule": (root / "BENCH_schedule.json", _bench_schedule_current),
        "atpg": (root / "BENCH_atpg.json", _bench_atpg_current),
        "fleet": (root / "BENCH_fleet.json", _bench_fleet_current),
        "resched": (root / "BENCH_resched.json", _bench_resched_current),
        "suite": (root / "BENCH_suite.json", None),
        "service": (root / "BENCH_service.json", None),
    }
    # The detection workload is the pipeline's "simulation" stage; accept
    # either spelling.
    stage_arg = "detection" if args.stage == "simulation" else args.stage
    if stage_arg != "all":
        if stage_arg not in stages:
            known = ", ".join(stages)
            print(f"error: unknown bench stage {args.stage!r} "
                  f"(registered stages: {known})", file=sys.stderr)
            return 2
        stages = {stage_arg: stages[stage_arg]}

    rows = []
    engine_rows = []
    cache_rows: dict[str, dict] = {}
    memo_sources: dict[str, object] = {}
    seen_results: set[int] = set()

    def _tally(results) -> None:
        # Per-pipeline-stage wall clock and cache hit/miss counters,
        # aggregated across the suite replays backing the measurements.
        for name, res in results.items():
            memo_sources.setdefault(name, res)
            if id(res) in seen_results:
                continue
            seen_results.add(id(res))
            meta = getattr(res, "meta", None) or {}
            for sname, info in meta.get("stages", {}).items():
                row = cache_rows.setdefault(sname, {
                    "stage": sname, "hits": 0, "misses": 0, "seconds": 0.0})
                row["seconds"] += info.get("seconds", 0.0)
                if info.get("cache") == "hit":
                    row["hits"] += 1
                elif info.get("cache") == "miss":
                    row["misses"] += 1
    for stage, (path, measure) in stages.items():
        if not path.exists():
            print(f"warning: no committed {path.name}; "
                  f"run the benchmarks first", file=sys.stderr)
            continue
        baseline = json.loads(path.read_text())
        if baseline.get("profile") != "quick":
            print(f"warning: {path.name} was recorded with profile "
                  f"{baseline.get('profile')!r}, not 'quick'; deltas are "
                  f"not comparable", file=sys.stderr)
        if stage in ("suite", "service"):
            # These baselines have their own schemas (workers-keyed
            # smoke matrix / committed job document) — re-measure them
            # instead of the per-circuit loop below.
            rows.extend(_bench_suite_rows(baseline) if stage == "suite"
                        else _bench_service_rows(baseline))
            continue
        names = tuple(baseline["circuits"])
        if stage != "fleet":
            # The fleet workload is a standalone pipeline; every other
            # stage re-measures against the suite's cached flow results.
            results = run_suite(SuiteRunConfig.quick(names=names,
                                                     with_schedules=False))
            _tally(results)
        committed_total = current_total = 0.0
        for name in names:
            committed = baseline["circuits"][name]["total_s"]
            if stage == "fleet":
                current = measure(name)
            elif stage == "detection":
                engines = _bench_detection_engines(results[name])
                current = engines["wordwave"]
                engine_rows.append({
                    "circuit": name,
                    "reference_s": f"{engines['reference']:.3f}",
                    "incremental_s": f"{engines['incremental']:.3f}",
                    "wordwave_s": f"{engines['wordwave']:.3f}",
                    "speedup_vs_ref": round(
                        engines["reference"] / engines["wordwave"], 2),
                    "speedup_vs_inc": round(
                        engines["incremental"] / engines["wordwave"], 2),
                })
            else:
                current = measure(results[name])
            committed_total += committed
            current_total += current
            rows.append({
                "stage": stage, "circuit": name,
                "committed_s": f"{committed:.3f}",
                "current_s": f"{current:.3f}",
                "delta_percent": round(
                    100.0 * (current - committed) / committed, 1),
            })
        rows.append({
            "stage": stage, "circuit": "total",
            "committed_s": f"{committed_total:.3f}",
            "current_s": f"{current_total:.3f}",
            "delta_percent": round(
                100.0 * (current_total - committed_total) / committed_total,
                1),
        })
    if not rows:
        return 1
    print(format_table(rows, title="Perf baselines: current vs committed"))
    if engine_rows:
        print(format_table(
            engine_rows,
            title="Simulation engines: reference vs incremental vs wordwave"))
    if cache_rows:
        stage_rows = [{"stage": r["stage"], "hits": r["hits"],
                       "misses": r["misses"],
                       "seconds": f"{r['seconds']:.3f}"}
                      for r in cache_rows.values()]
        print(format_table(stage_rows,
                           title="Stage cache (suite replay)"))
    if memo_sources:
        # Read after the measurements: the schedule/resched workloads are
        # what exercise the DetectionData schedule-candidate memo.
        memo_rows = []
        for name, res in sorted(memo_sources.items()):
            data = getattr(res, "data", None)
            if data is None:        # stubbed results in unit tests
                continue
            memo_rows.append({"circuit": name, **data._sched_cache.stats()})
        if memo_rows:
            totals = {"circuit": "total"}
            for key in ("hits", "misses", "evictions", "size"):
                totals[key] = sum(r[key] for r in memo_rows)
            totals["maxsize"] = memo_rows[0]["maxsize"]
            memo_rows.append(totals)
            print(format_table(
                memo_rows,
                title="Schedule memo (DetectionData._sched_cache)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Programmable delay monitors for wear-out and "
                    "early-life failure prediction (DATE 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flow_args(p):
        p.add_argument("circuit", help=".bench/.v file, embedded (s27, c17) "
                                       "or suite circuit name")
        p.add_argument("--fast-ratio", type=float, default=3.0)
        p.add_argument("--monitor-fraction", type=float, default=0.25)
        p.add_argument("--pattern-cap", type=int, default=None)
        p.add_argument("--seed", type=int, default=7)

    def add_cache_args(p):
        p.add_argument("--recompute-from", nargs="+", metavar="STAGE",
                       default=None,
                       help="force these pipeline stages (and everything "
                            "downstream) to recompute even when cached")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk stage cache for this run")

    p_flow = sub.add_parser("flow", help="run the full HDF test flow")
    add_flow_args(p_flow)
    add_cache_args(p_flow)
    p_flow.add_argument("--show-schedule", action="store_true")
    p_flow.add_argument("--export", metavar="FILE.json", default=None,
                        help="write the schedule as JSON plus a .fast "
                             "tester program")
    p_flow.add_argument("--verbose", action="store_true")
    p_flow.set_defaults(func=cmd_flow)

    p_tables = sub.add_parser("tables", help="regenerate Tables I-III")
    p_tables.add_argument("--suite", nargs="*", default=None,
                          help="subset of suite circuit names")
    p_tables.add_argument("--scale", type=float, default=1.0)
    p_tables.add_argument("--table3", action="store_true",
                          help="also compute the coverage-target sweep")
    p_tables.add_argument("--jobs", type=int, default=None,
                          help="worker processes across suite circuits "
                               "(default: REPRO_JOBS or 1)")
    p_tables.add_argument("--recompute-from", nargs="+", metavar="STAGE",
                          default=None,
                          help="force these pipeline stages (and everything "
                               "downstream) to recompute even when cached")
    p_tables.set_defaults(func=cmd_tables)

    p_fig3 = sub.add_parser("fig3", help="coverage vs f_max sweep")
    add_flow_args(p_fig3)
    p_fig3.set_defaults(func=cmd_fig3)

    p_aging = sub.add_parser("aging", help="lifetime simulation + prediction")
    p_aging.add_argument("circuit")
    p_aging.add_argument("--scenario", metavar="FILE.json", default=None,
                         help="ScenarioSpec JSON file; overrides --margin "
                              "and --steps (degradation laws, clock margin "
                              "and checkpoints come from the spec)")
    p_aging.add_argument("--monitor-fraction", type=float, default=1.0)
    p_aging.add_argument("--marginal", type=int, default=0,
                         help="number of weak gates to inject")
    p_aging.add_argument("--margin", type=float, default=1.15,
                         help="clock margin over the critical path")
    p_aging.add_argument("--steps", type=int, default=9)
    p_aging.add_argument("--seed", type=int, default=1)
    p_aging.set_defaults(func=cmd_aging)

    p_fleet = sub.add_parser(
        "fleet", help="fleet-scale Monte Carlo aging study")
    p_fleet.add_argument("circuit")
    p_fleet.add_argument("--scenario", metavar="FILE.json", default=None,
                         help="ScenarioSpec JSON file (same schema as "
                              "'repro aging --scenario'; defaults used "
                              "when omitted)")
    p_fleet.add_argument("--devices", type=int, default=1024,
                         help="population size (default 1024)")
    p_fleet.add_argument("--jobs", type=int, default=1,
                         help="worker processes sharding the population "
                              "(results are bit-identical to --jobs 1)")
    p_fleet.add_argument("--seed", type=int, default=None,
                         help="override the scenario's population seed")
    p_fleet.add_argument("--json", action="store_true",
                         help="print the full study summary as JSON")
    p_fleet.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk stage cache for this run")
    p_fleet.set_defaults(func=cmd_fleet)

    p_suite = sub.add_parser(
        "suite", help="sharded suite runner over the shared stage store")
    p_suite.add_argument("--workers", type=int, default=1,
                         help="cooperating worker processes claiming stage "
                              "work units (default 1 = in-process)")
    p_suite.add_argument("--profile", default="quick",
                         choices=("quick", "paper", "synth"),
                         help="suite to run: quick (4 circuits), paper "
                              "(12 circuits), synth (--count synthetic "
                              "circuits)")
    p_suite.add_argument("--count", type=int, default=40,
                         help="synthetic matrix size for --profile synth "
                              "(default 40)")
    p_suite.add_argument("--scale", type=float, default=None,
                         help="override the profile's circuit scale")
    p_suite.add_argument("--schedules", action="store_true",
                         help="also optimize test schedules (synth profile "
                              "skips them by default)")
    p_suite.add_argument("--claim-ttl", type=float, default=None,
                         help="stale-claim reclamation TTL in seconds "
                              "(default: REPRO_CLAIM_TTL or 30)")
    p_suite.add_argument("--progress", action="store_true",
                         help="print per-circuit stage progress")
    p_suite.set_defaults(func=cmd_suite)

    p_resched = sub.add_parser(
        "resched", help="replay an in-field alert stream against the "
                        "adaptive rescheduling engine")
    add_flow_args(p_resched)
    add_cache_args(p_resched)
    p_resched.add_argument("--alerts", metavar="FILE.json", default=None,
                           help="JSON alert stream (list of events: "
                                "{'gate': G, 'shift_ps': S}, bursts as "
                                "lists, or {'shifts': {G: S}}); default: "
                                "a scenario-driven synthetic stream")
    p_resched.add_argument("--scenario", metavar="FILE.json", default=None,
                           help="ScenarioSpec JSON driving the synthetic "
                                "alert generator (ignored with --alerts)")
    p_resched.add_argument("--max-gates", type=int, default=1,
                           help="alert granularity: gates per synthetic "
                                "alert event (default 1)")
    p_resched.add_argument("--json", action="store_true",
                           help="print per-alert events and the summary "
                                "as JSON")
    p_resched.set_defaults(func=cmd_resched)

    p_serve = sub.add_parser(
        "serve", help="start the HDF-flow service (HTTP/JSON job API "
                      "over the async orchestrator)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8732)
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent job executor threads (default 2)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="run without the shared stage store (every "
                              "job recomputes; in-flight dedupe still "
                              "applies)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="send a job document to a running service")
    p_submit.add_argument("job", metavar="JOB.json",
                          help="job document file: {'kind': 'flow'|"
                               "'suite'|'fleet'|'resched', ...} (see "
                               "repro.core.spec)")
    p_submit.add_argument("--url", default="http://127.0.0.1:8732",
                          help="service base URL (default "
                               "http://127.0.0.1:8732)")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job finishes and print "
                               "the result payload")
    p_submit.add_argument("--stream", action="store_true",
                          help="stream progress events as they happen "
                               "(implies --wait)")
    p_submit.set_defaults(func=cmd_submit)

    p_gen = sub.add_parser("generate", help="emit a synthetic .bench circuit")
    p_gen.add_argument("output")
    p_gen.add_argument("--gates", type=int, default=120)
    p_gen.add_argument("--ffs", type=int, default=24)
    p_gen.add_argument("--inputs", type=int, default=12)
    p_gen.add_argument("--outputs", type=int, default=8)
    p_gen.add_argument("--depth", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser(
        "bench", help="re-measure perf baselines and print deltas")
    p_bench.add_argument("--stage", default="all",
                         help="bench workload to re-measure: all, detection "
                              "(alias: simulation, adds the per-engine "
                              "delta table), schedule, atpg, fleet, "
                              "resched, suite or service (unknown names "
                              "are rejected with the registered list)")
    p_bench.add_argument("--root", type=Path, default=None,
                         help="directory holding the BENCH_*.json baselines "
                              "(default: the repo root)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
