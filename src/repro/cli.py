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
* ``suite``   — suite runner: decompose a suite into stage work units
  over the stage store and drain them with ``--workers N`` cooperating
  processes (resumable; see ``docs/ALGORITHMS.md`` §15).
* ``resched`` — replay an in-field monitor alert stream (JSON file or a
  ``ScenarioSpec``-driven synthetic generator) through the adaptive
  rescheduling engine and print per-alert re-solve latencies.
* ``serve``   — start the HDF-flow service: a stdlib HTTP/JSON API over
  the async job orchestrator (submit/status/stream/result/cancel),
  deduping identical jobs against the shared stage store.
* ``submit``  — send a declarative job document (``{"kind": "flow",
  ...}``, see :mod:`repro.core.spec`) to a running service.
* ``generate``— emit a synthetic benchmark circuit as ``.bench``.

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
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.core import HdfTestFlow
from repro.core.config import (
    DEFAULT_ATPG_SEED,
    DEFAULT_COVERAGE_FRACTION,
    DEFAULT_FAST_RATIO,
)
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


def _flow_job(cls, args: argparse.Namespace, **fields):
    """The ``cls`` job of a flow-parameter verb (``flow``/``fig3``/``resched``).

    The job validates the flow flags; an invalid value prints ``error: …``
    and gives ``None``, on which the verb exits with status 2.
    """
    try:
        return cls(circuit=args.circuit, fast_ratio=args.fast_ratio,
                   monitor_fraction=args.monitor_fraction,
                   pattern_cap=args.pattern_cap, atpg_seed=args.seed,
                   **fields)
    except ValueError as exc:   # SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return None


def _load_scenario(path: str):
    """``ScenarioSpec.load(path)``; a missing or invalid file prints
    ``error: …`` and gives ``None``, on which the verb exits with status 2.
    """
    from repro.core.spec import ScenarioSpec

    try:
        return ScenarioSpec.load(path)
    except (OSError, ValueError) as exc:   # SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return None


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

    job = _flow_job(FlowJob, args, with_schedules=True)
    if job is None:
        return 2
    outcome = _run_job(job,
                       store=_stage_cache(args),
                       recompute_from=_recompute_from(args),
                       progress=_verbose_progress if args.verbose else None)
    result = outcome.value
    if args.verbose:
        _print_stage_meta(result.meta)
        memo = result.data._sched_cache.stats()
        print("  [memo] " + " ".join(f"{k}={v}" for k, v in memo.items()),
              file=sys.stderr)
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
                   workers=max(1, args.jobs))
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
    from repro.core.spec import FlowJob
    from repro.experiments.fig3 import fig3_series
    from repro.experiments.reporting import format_table

    job = _flow_job(FlowJob, args)
    if job is None:
        return 2
    circuit = _load_circuit(args.circuit)
    result = HdfTestFlow(circuit, job.flow_config()).run(
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
        spec = _load_scenario(args.scenario)
        if spec is None:
            return 2
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

    spec = _load_scenario(args.scenario) if args.scenario else ScenarioSpec()
    if spec is None:
        return 2
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
        workers=args.workers)
    try:
        payload = _run_job(job, claim_ttl=args.claim_ttl,
                           shard_progress=args.progress).payload
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = payload["units"]
    print(f"suite: {len(job.names)} circuits  profile={args.profile}  "
          f"workers={payload['workers']}  wall={payload['wall_s']:.3f}s")
    print(f"units: computed={units['computed']}  cached={units['cached']}  "
          f"reclaimed={units['reclaimed']}  "
          f"worker_failures={units['worker_failures']}  "
          f"idle_wait={payload['idle_wait_s']:.3f}s")
    if payload["stage_seconds"]:
        print("stages:", "  ".join(
            f"{k}={v:.3f}s" for k, v in payload["stage_seconds"].items()))
    results = payload["results"]
    if len(job.names) <= 16:
        rows = [
            {"circuit": name, "faults": row["faults"],
             "target": row["target"], "gain_%": row["gain_percent"]}
            for name, row in results.items()
        ]
        print(format_table(rows, title="Suite results"))
    else:
        total = sum(row["target"] for row in results.values())
        print(f"aggregate: {total} target faults across "
              f"{len(results)} circuits")
    return 0


def cmd_resched(args: argparse.Namespace) -> int:
    import json

    from repro.core.spec import ReschedJob, ScenarioSpec

    try:
        alerts = (ReschedJob.alerts_from_deltas(
            _load_alert_stream(args.alerts)) if args.alerts else ())
        scenario = (ScenarioSpec.load(args.scenario)
                    if args.scenario else None)
    except (OSError, ValueError) as exc:   # SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    job = _flow_job(ReschedJob, args, alerts=alerts, scenario=scenario,
                    max_gates=args.max_gates)
    if job is None:
        return 2
    try:
        outcome = _run_job(job, store=_stage_cache(args),
                           recompute_from=_recompute_from(args))
    except ValueError as exc:       # e.g. an alert on an unknown gate
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Programmable delay monitors for wear-out and "
                    "early-life failure prediction (DATE 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flow_args(p):
        p.add_argument("circuit", help=".bench/.v file, embedded (s27, c17) "
                                       "or suite circuit name")
        p.add_argument("--fast-ratio", type=float,
                       default=DEFAULT_FAST_RATIO)
        p.add_argument("--monitor-fraction", type=float,
                       default=DEFAULT_COVERAGE_FRACTION)
        p.add_argument("--pattern-cap", type=int, default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_ATPG_SEED)

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
    p_tables.add_argument("--jobs", type=int, default=1,
                          help="worker processes draining the suite's "
                               "stage work units (default 1)")
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
        "suite", help="suite runner over the shared stage store")
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
