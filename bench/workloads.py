"""The benchmark's four workloads, each run in a fresh process.

    python bench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE

``bench/run.py`` starts this script once per workload (with
``PYTHONPATH=src`` and the disk cache off) and reads ``FILE``.  A run
sets up its inputs several times (``setup_s`` is the median), runs one
whole pass or round (the service: requests until the deadline), and
then repeats the workload's operations until ``--seconds`` have passed,
stopping at the first operation boundary after that.

Latency.  Operations are grouped into the cost clusters that what they
run puts them in: the flow workloads' operation is a whole pass (one
group); an alert is grouped by its circuit (repairs or ILP re-solves);
a request is a replay (a store read, whatever the circuit) or a fresh
job, grouped by its circuit.  ``latency_p50_ms`` and ``latency_p90_ms``
are the geometric means over the groups of each group's median and 90th
percentile.  The clusters' costs differ by up to 50x, so a percentile
over all operations falls on the edge between two clusters wherever
their shares of the traffic put it, and then reads the one or two
operations at that edge.

Host speed.  Reported times (``setup_s`` and the latencies) are scaled
to a reference host speed by a probe loop timed between operations
(``PROBE_REF_MS``); ``groups`` and ``setup_s_all`` keep the raw times
and ``host_speed`` the probe medians.

Seeds.  Every input is generated here from the seed; the program only
receives the generated inputs (``.bench`` text, pattern vectors, alert
streams, job documents).  Seed 0 reproduces the suite's own circuits.
Any other seed renames every net of every netlist, and re-draws the
order of the service's requests.  Line order is kept, so gate indices,
and with them all the work and every result, are the same for every
seed, while every content hash differs and no result can carry over
from one seed to another.  Re-drawing circuit, pattern or scenario
seeds instead would change the work itself (PODEM aborts and ILP solves
are heavy-tailed) on top of the host's run-to-run spread.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import StoreProxy, Tracer, proxy_pipeline, self_times  # noqa: E402

from repro.atpg.patterns import PatternPair, TestSet, random_test_set  # noqa: E402
from repro.circuits.generators import CircuitProfile, generate_circuit  # noqa: E402
from repro.circuits.library import (  # noqa: E402
    QUICK_SUITE_NAMES,
    suite_circuit,
    suite_entry,
)
from repro.core.config import FlowConfig  # noqa: E402
from repro.core.flow import HdfTestFlow  # noqa: E402
from repro.core.pipeline import DEFAULT_PIPELINE  # noqa: E402
from repro.core.spec import FlowJob  # noqa: E402
from repro.experiments.artifact_cache import StageCache  # noqa: E402
from repro.experiments.resched import (  # noqa: E402
    DEFAULT_SPEC,
    alert_stream_for_state,
)
from repro.netlist.bench import parse_bench, write_bench  # noqa: E402
from repro.scheduling.resched import (  # noqa: E402
    apply_alert,
    cold_schedule_result,
    prepare_state_for_result,
)
from repro.service.orchestrator import (  # noqa: E402
    Orchestrator,
    resolve_circuit,
    run_job,
)
from repro.utils.profiling import StageTimer  # noqa: E402

#: A run sets up at least ``SETUP_REPEATS[0]`` and at most
#: ``SETUP_REPEATS[1]`` times, repeating until ``SETUP_BUDGET_S`` have
#: passed; ``setup_s`` reports their median.  The host's speed wanders
#: over seconds, so a set-up of milliseconds is repeated over a few
#: seconds, not a few hundred milliseconds, for its median to be steady.
#: One of seconds (the service warms eight flows) runs twice, which keeps
#: a run of every workload within its time.
SETUP_REPEATS = (2, 200)
SETUP_BUDGET_S = 3.0

#: The host's speed drifts from second to second and by up to 2x over an
#: hour, alike for the program and for a plain Python loop on the same
#: CPU (see bench/README.md, Calibration).  A run therefore times
#: ``probe_ms`` between its operations, never during one, and scales each
#: time it reports by ``PROBE_REF_MS`` over the median probe time of the
#: same phase (set-up or run): the times read as they would on a host
#: where the probe takes ``PROBE_REF_MS``.  The probe is the benchmark's
#: own code, the same for every commit of the program.
PROBE_REF_MS = 12.0
#: The service probes this long before a request is due, when no job is
#: in flight.
PROBE_SLACK_S = 0.05

#: One state per (circuit, scenario) and round of ``resched-alerts``;
#: each replays its single-gate alert stream (``alert_stream_for_state``).
RESCHED_SCENARIOS = tuple(replace(DEFAULT_SPEC, seed=7 + k, gate_seed=7 + k)
                          for k in range(5))


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
_NAME = re.compile(r"[\w.\[\]$]+")


def relabel(text: str, rng: random.Random | None) -> str:
    """Rename every net of a ``.bench`` text; line order is kept.

    Gate indices follow line order, so the renamed netlist is the same
    circuit to every algorithm while its content hash differs.
    """
    if rng is None:
        return text
    names: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            names.append(line.split("=", 1)[0].strip())
        elif "(" in line:
            names.append(line[line.index("(") + 1:line.rindex(")")].strip())
    unique = list(dict.fromkeys(names))
    fresh = [f"n{k}" for k in range(len(unique))]
    rng.shuffle(fresh)
    mapping = dict(zip(unique, fresh))
    body = "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith("#"))
    return _NAME.sub(lambda m: mapping.get(m.group(0), m.group(0)),
                     body) + "\n"


def probe_ms() -> float:
    """The time of one fixed pure-Python loop, in ms."""
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return 1000.0 * (time.perf_counter() - t0)


def seed_rng(seed: int) -> random.Random | None:
    return random.Random(seed) if seed else None


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method), or the single value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def group_summary(values: list[float]) -> dict:
    """Count, median, 90th percentile and mean of one group's latencies.

    Per-layer times are means over passes or rounds, so the mean is kept
    to compare them with.
    """
    return {"n": len(values), "p50_ms": statistics.median(values),
            "p90_ms": percentile(values, 90),
            "mean_ms": statistics.fmean(values)}


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (Linux; no-op elsewhere)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set size since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(results) -> dict[str, int]:
    """Table I ``prop`` and Table II ``freq_prop``/``pc_opti`` summed."""
    return {
        "hdf_detected": sum(r.table1_row()["prop"] for r in results),
        "test_freqs": sum(r.table2_row()["freq_prop"] for r in results),
        "test_entries": sum(r.table2_row()["pc_opti"] for r in results),
    }


@dataclass
class Outcome:
    """What one measured run produced."""

    #: Group -> the latency in ms of each of its operations in the run.
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    quality: dict[str, int] = field(default_factory=dict)
    #: Peak RSS over the first pass or round (the service: the run) --
    #: the same work in every run, however many passes fit the window.
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    #: ``probe_ms`` times taken between operations.
    probes: list[float] = field(default_factory=list)

    def record(self, group: str, ms: float) -> None:
        self.samples.setdefault(group, []).append(ms)

    def probe(self) -> float:
        """Take one probe; returns the seconds it took."""
        t0 = time.perf_counter()
        self.probes.append(probe_ms())
        return time.perf_counter() - t0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


# ----------------------------------------------------------------------
# flow-cold and analysis-large: passes of whole flows
# ----------------------------------------------------------------------
#: StageTimer key -> per-layer metric, per pipeline stage.
_TIMER_METRICS = {
    "atpg": {"podem": "atpg.podem_s", "random": "atpg.random_s",
             "grade": "atpg.grade_s", "compact": "atpg.compact_s"},
    "simulation": {"base_sim": "simulation.base_sim_s",
                   "faulty_sim": "simulation.faulty_sim_s",
                   "site_inject": "simulation.site_inject_s",
                   "intervals": "simulation.intervals_s"},
    "schedule": {"discretize": "scheduling.discretize_s",
                 "target_ranges": "scheduling.target_ranges_s",
                 "step1": "scheduling.step1_s",
                 "step1/presolve": "scheduling.step1_presolve_s",
                 "step2": "scheduling.step2_s"},
}


class FlowPasses:
    """Passes over a circuit set; one operation is one whole pass.

    A pass parses each netlist and runs the full staged flow with
    conv/heur/prop schedules, in one process, with no stage store.  The
    pass, not one circuit's flow, is the operation: the largest circuit
    takes most of a pass, and a percentile over the circuits' flows
    would leave it out.
    """

    names: tuple[str, ...] = ()
    scale: float = 1.0
    #: Random pattern pairs per circuit (0: the flow runs its ATPG).
    patterns: int = 0

    def circuits(self) -> list[tuple]:
        """``(name, circuit, pattern cap, pattern seed)`` per circuit."""
        out = []
        for name in self.names:
            entry = suite_entry(name)
            out.append((name, suite_circuit(name, scale=self.scale),
                        entry.pattern_budget(scale=self.scale), entry.seed))
        return out

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        rng = seed_rng(seed)
        inputs = []
        for name, circuit, cap, pattern_seed in self.circuits():
            pairs = None
            if self.patterns:
                pairs = [(p.launch, p.capture) for p in random_test_set(
                    circuit, self.patterns, seed=pattern_seed)]
                cap = None
            inputs.append({"name": name, "pairs": pairs, "cap": cap,
                           "text": relabel(write_bench(circuit), rng)})
        return inputs

    def _flow(self, item: dict, tracer: Tracer | None,
              timer: StageTimer | None):
        if tracer is None:
            circuit = parse_bench(item["text"], name=item["name"])
            pipeline = None
        else:
            with tracer.span("netlist.parse"):
                circuit = parse_bench(item["text"], name=item["name"])
            pipeline = proxy_pipeline(tracer)
        test_set = None
        if item["pairs"] is not None:
            test_set = TestSet(circuit, [PatternPair(a, b)
                                         for a, b in item["pairs"]])
        flow = HdfTestFlow(circuit, FlowConfig(pattern_cap=item["cap"]),
                           pipeline=pipeline)
        return flow.run(test_set=test_set, timer=timer)

    def run(self, inputs: list[dict], seconds: float,
            tracer: Tracer | None) -> Outcome:
        out = Outcome()
        first: dict[str, tuple] = {}
        first_results = []
        passes = 0
        pass_traces: set[str] = set()
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            t_pass = time.perf_counter()
            complete = True
            with (tracer.span("pass", trace=tracer.new_trace("pass"))
                  if tracer else nullcontext()) as pass_span:
                for item in inputs:
                    # After the first pass a run stops at the first flow
                    # boundary past its deadline, not at the end of a pass.
                    if passes and time.perf_counter() >= deadline:
                        complete = False
                        break
                    # The probe between two flows is not part of the pass.
                    t_pass += out.probe()
                    out.attempted += 1
                    timer = StageTimer() if tracer else None
                    try:
                        with (tracer.span("flow", circuit=item["name"])
                              if tracer else nullcontext()):
                            result = self._flow(item, tracer, timer)
                    except Exception:  # noqa: BLE001 - count and go on
                        out.fail(1, traceback.format_exc())
                        continue
                    rows = (result.table1_row(), result.table2_row())
                    prop = result.schedules["prop"]
                    if not prop.covered >= result.classification.target:
                        out.fail(1, f"{item['name']}: prop schedule leaves "
                                    f"targets uncovered")
                    elif first.setdefault(item["name"], rows) != rows:
                        out.fail(1, f"{item['name']}: pass {passes + 1} "
                                    f"rows differ from pass 1")
                    if not passes:
                        first_results.append(result)
            if pass_span is not None:
                pass_span["attrs"]["complete"] = complete
            if not complete:
                break
            out.record("pass", 1000.0 * (time.perf_counter() - t_pass))
            passes += 1
            if pass_span is not None:
                pass_traces.add(pass_span["trace"])
            if passes == 1:
                out.peak_rss_mb = peak_rss_mb()
        out.quality = quality(first_results)
        out.extras = {"passes": passes}
        if tracer is not None:
            out.layers = flow_layers(
                [s for s in tracer.spans if s["trace"] in pass_traces],
                first_results, passes)
        return out


class FlowCold(FlowPasses):
    """Fig. 4 flow with ATPG and conv/heur/prop schedules.

    The quick suite at the quick profile's scale with the suite's
    pattern budgets: ATPG takes over 90 % of a pass.
    """

    names = tuple(QUICK_SUITE_NAMES)
    scale = 0.6


class AnalysisLarge(FlowPasses):
    """The same flow with ATPG bypassed by seeded random pattern sets.

    Circuits of 1.6-4.1k gates, ~6x the quick suite's working set, where
    simulation and step-1 presolve + ILP dominate.
    """

    names = ("s13207", "s38584", "p89k")
    scale = 4.0
    patterns = 64


def flow_layers(spans: list[dict], results, passes: int) -> dict:
    """Per-pass layer metrics of the flow workloads from their spans."""
    own = self_times(spans)
    layers: dict[str, float] = {}

    def credit(name: str, value: float) -> None:
        layers[name] = layers.get(name, 0.0) + value / passes

    for s in spans:
        if s["name"].startswith("pipeline.") or s["name"] == "netlist.parse":
            credit(f"{s['name']}_s", own[s["span"]])
        stage = s["name"].removeprefix("pipeline.")
        for key, info in s["attrs"].get("timer", {}).items():
            metric = _TIMER_METRICS.get(stage, {}).get(key)
            if metric is not None:
                credit(metric, info["seconds"])
            if stage == "atpg" and key in ("podem", "grade"):
                credit(f"atpg.{key}_calls", info["count"])
    atpg = [r.atpg for r in results if r.atpg is not None]
    faults = sum(len(a.faults) for a in atpg)
    layers.update({
        "atpg.patterns": sum(len(a.test_set) for a in atpg),
        "atpg.aborted": sum(len(a.aborted) for a in atpg),
        "atpg.detected_ratio": (sum(len(a.detected) for a in atpg) / faults
                                if faults else 0.0),
        "simulation.fault_pattern_pairs": sum(
            len(r.data.faults) * len(r.data.patterns) for r in results),
        "simulation.detected_ratio": (
            sum(len(r.data.ranges) for r in results)
            / max(1, sum(len(r.data.faults) for r in results))),
        "scheduling.targets": sum(len(r.classification.target)
                                  for r in results),
    })
    return layers


# ----------------------------------------------------------------------
# resched-alerts
# ----------------------------------------------------------------------
class ReschedAlerts:
    """Rounds of alert replays; one operation is one ``apply_alert``.

    Set-up runs the fixed-pattern flow on every circuit and prepares one
    ``ScheduleState`` per (circuit, scenario) with its alert stream.  A
    round replays every state's stream; the states of the first round
    come from set-up, later rounds prepare them afresh, since alerts
    change a state.  After the first round a run stops at the first
    stream boundary past its deadline.
    """

    names = ("s9234", "s13207", "s38584", "p89k")
    scale = 1.0
    patterns = 32
    scenarios = RESCHED_SCENARIOS

    def circuits(self) -> list[tuple]:
        """``(name, circuit, pattern seed)`` per circuit."""
        return [(name, suite_circuit(name, scale=self.scale),
                 suite_entry(name).seed) for name in self.names]

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = seed_rng(seed)
        results = []
        for name, generated, pattern_seed in self.circuits():
            pairs = [(p.launch, p.capture) for p in random_test_set(
                generated, self.patterns, seed=pattern_seed)]
            circuit = parse_bench(relabel(write_bench(generated), rng),
                                  name=name)
            test_set = TestSet(circuit, [PatternPair(a, b)
                                         for a, b in pairs])
            results.append(HdfTestFlow(circuit, FlowConfig()).run(
                test_set=test_set, with_schedules=False))
        order = [(r, k) for k in range(len(self.scenarios))
                 for r in range(len(results))]
        t0 = time.perf_counter()
        states = [prepare_state_for_result(results[r]) for r, _k in order]
        prep_s = time.perf_counter() - t0
        alerts = [alert_stream_for_state(results[r].circuit, state,
                                         spec=self.scenarios[k])
                  for (r, k), state in zip(order, states)]
        return {"results": results, "order": order, "states": states,
                "alerts": alerts, "prep_s": prep_s}

    def run(self, inputs: dict, seconds: float,
            tracer: Tracer | None) -> Outcome:
        out = Outcome()
        results = inputs["results"]
        order = inputs["order"]
        first: dict[tuple[int, int], tuple] = {}
        finals = []
        paths: dict[str, int] = {}
        alert_s = 0.0
        streams = 0
        deadline = time.perf_counter() + seconds
        while streams < len(order) or time.perf_counter() < deadline:
            n = streams % len(order)
            r, k = order[n]
            res = results[r]
            if streams < len(order):
                state = inputs["states"][n]
            else:
                with (tracer.span("resched.prep",
                                  trace=tracer.new_trace("prep"),
                                  circuit=res.circuit.name, scenario=k)
                      if tracer else nullcontext()):
                    state = prepare_state_for_result(res)
            streams += 1
            alerts = inputs["alerts"][n]
            out.attempted += len(alerts)
            try:
                for delta in alerts:
                    t0 = time.perf_counter()
                    with (tracer.span("resched.apply_alert",
                                      trace=tracer.new_trace("alert"))
                          if tracer else nullcontext()) as span:
                        step = apply_alert(state, delta)
                    dt = time.perf_counter() - t0
                    alert_s += dt
                    out.record(res.circuit.name, 1000.0 * dt)
                    path = step.fast_path or step.stats.get(
                        "step1_path", "other")
                    paths[path] = paths.get(path, 0) + 1
                    if span is not None:
                        span["attrs"].update(
                            path=path, grid=step.stats.get("grid"),
                            dirty_faults=step.stats.get("dirty_faults"))
            except Exception:  # noqa: BLE001 - count and go on
                out.fail(len(alerts), traceback.format_exc())
            else:
                problem = self._check(state, first, (r, k))
                if problem:
                    out.fail(len(alerts), f"{res.circuit.name} scenario "
                                          f"{k}: {problem}")
                if streams <= len(order):
                    finals.append(state.schedule)
            if streams == len(order):
                out.peak_rss_mb = peak_rss_mb()
            out.probe()
        out.quality = {
            "hdf_detected": sum(len(s.covered) for s in finals),
            "test_freqs": sum(s.num_frequencies for s in finals),
            "test_entries": sum(s.num_entries for s in finals),
        }
        rounds = streams / len(order)
        out.extras = {"rounds": rounds, "states_per_round": len(order),
                      "paths": paths}
        if tracer is not None:
            # One round's state preparation, as timed in set-up.
            out.layers = {"resched.prep_s": inputs["prep_s"],
                          "resched.apply_alert_s": alert_s / rounds,
                          "resched.alerts": out.attempted / rounds}
            for path, count in paths.items():
                out.layers[f"resched.path.{path}"] = count / rounds
        return out

    @staticmethod
    def _check(state, first: dict, key) -> str | None:
        """Incremental schedule == cold re-solve, covering every target."""
        sched = state.schedule
        cold = cold_schedule_result(state)
        if (sched.num_frequencies, sched.covered) != \
                (cold.num_frequencies, cold.covered):
            return (f"incremental cost {sched.num_frequencies} freqs / "
                    f"{len(sched.covered)} covered != cold "
                    f"{cold.num_frequencies} / {len(cold.covered)}")
        coverable = {f for f, rng in state.fault_ranges.items()
                     if not rng.is_empty}
        if not sched.covered >= coverable:
            return "schedule leaves coverable targets uncovered"
        summary = (sched.num_frequencies, sched.num_entries, sched.covered)
        if first.setdefault(key, summary) != summary:
            return "final schedule differs from round 1"
        return None


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
class ServiceMix:
    """An open loop of flow jobs against an in-process ``Orchestrator``.

    Set-up writes the circuits as ``.bench`` files and warms a fresh
    stage store with every replayed spec (each circuit at two ATPG
    seeds).  The timed part sends requests at ``rate`` per second,
    constant spacing, to one orchestrator over that store until the
    deadline, then waits for the queue to drain.  In every block of
    ``fresh_every`` requests one is fresh (a new ATPG seed on one of the
    ``fresh_gates`` circuits, in turn) and computes its flow and writes
    the store; the others replay the warm specs in turn.  The seed draws
    the order of the warm specs and the fresh request's place in the
    blocks, the same in every block, so fresh jobs arrive evenly spaced
    in every seed: a place drawn per block would put two fresh jobs
    back to back in some seeds and not in others, and the runs would
    differ by how bursty each seed's traffic is.  A request's latency
    runs from when it was due to when its job record finished.
    """

    gates = (60, 90, 120, 160)
    warm_seeds = (7, 8)
    fresh_gates = (60, 90)
    #: ATPG seeds of fresh specs count up from here, apart from the warm.
    fresh_seed = 100
    pattern_cap = 16
    rate = 5.0
    fresh_every = 10
    workers = 2
    #: Longest wait for the queue to drain after the last request.
    drain_s = 60.0

    def __init__(self) -> None:
        self._setups = 0

    def circuit(self, gates: int):
        return generate_circuit(CircuitProfile(
            name=f"svc{gates}", n_gates=gates, n_ffs=gates // 6,
            n_inputs=max(6, gates // 10), n_outputs=4, depth=8, seed=gates))

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = seed_rng(seed)
        root = workdir / f"setup-{self._setups}"
        self._setups += 1
        root.mkdir(parents=True)
        paths = {}
        for gates in self.gates:
            path = root / f"svc{gates}.bench"
            path.write_text(relabel(write_bench(self.circuit(gates)), rng))
            paths[gates] = str(path)
        store = StageCache(root / "store")
        warm = {}
        for gates, path in paths.items():
            for atpg_seed in self.warm_seeds:
                spec = FlowJob(circuit=path, atpg_seed=atpg_seed,
                               pattern_cap=self.pattern_cap)
                payload = run_job(spec, store=store).payload
                warm[spec] = (gates, (payload["table1"], payload["table2"]))
        return {"seed": seed, "store": store, "paths": paths, "warm": warm}

    def requests(self, inputs: dict) -> Iterator[tuple]:
        """The endless request mix: ``(spec, kind, gates)`` per request."""
        rng = seed_rng(inputs["seed"])
        warm = list(inputs["warm"])
        fresh_at = self.fresh_every - 1
        if rng is not None:
            rng.shuffle(warm)
            fresh_at = rng.randrange(self.fresh_every)
        replays = itertools.cycle(warm)
        for block in itertools.count():
            for i in range(self.fresh_every):
                if i == fresh_at:
                    gates = self.fresh_gates[block % len(self.fresh_gates)]
                    yield (FlowJob(circuit=inputs["paths"][gates],
                                   atpg_seed=self.fresh_seed + block,
                                   pattern_cap=self.pattern_cap),
                           "fresh", gates)
                else:
                    spec = next(replays)
                    yield spec, "replay", inputs["warm"][spec][0]

    def run(self, inputs: dict, seconds: float,
            tracer: Tracer | None) -> Outcome:
        store = (inputs["store"] if tracer is None
                 else StoreProxy(inputs["store"], tracer))
        out = Outcome()
        sent, depth_end = asyncio.run(self._drive(
            self.requests(inputs), store, time.perf_counter() + seconds, out))
        out.peak_rss_mb = peak_rss_mb()
        out.attempted = len(sent)
        delivered: dict[str, dict] = {}
        hit_ms = []
        for (spec, kind, gates), due, _late, rec in sent:
            if rec.state != "done" or rec.finished_at is None:
                out.fail(1, f"{kind} job {rec.id} ended {rec.state}: "
                            f"{rec.error}")
                continue
            latency = 1000.0 * (rec.finished_at - due)
            out.record("replay" if kind == "replay" else f"fresh/{gates}",
                       latency)
            if kind == "replay":
                hit_ms.append(latency)
                rows = (rec.payload["table1"], rec.payload["table2"])
                if rows != inputs["warm"][spec][1]:
                    out.fail(1, f"replay {rec.id} payload differs from "
                                f"its warm-up run")
                delivered.setdefault(rec.fingerprint, rec.payload)
        # Fresh jobs differ with the number that fit the run; the warm
        # specs are the same in every run.
        out.quality = {
            "hdf_detected": sum(p["table1"]["prop"]
                                for p in delivered.values()),
            "test_freqs": sum(p["table2"]["freq_prop"]
                              for p in delivered.values()),
            "test_entries": sum(p["table2"]["pc_opti"]
                                for p in delivered.values()),
        }
        late_ms = [1000.0 * late for _req, _due, late, _rec in sent]
        out.extras = {
            "rate_per_s": self.rate, "requests": len(sent),
            "fresh": sum(req[1] == "fresh" for req, *_ in sent),
            "generator_late_max_ms": max(late_ms),
            "queue_depth_end": depth_end,
        }
        if tracer is not None:
            out.layers = service_layers(tracer, sent, inputs["store"],
                                        hit_ms, late_ms, depth_end)
        return out

    async def _drive(self, requests, store, stop_at: float, out: Outcome):
        """Send ``requests`` open-loop, then wait for the queue to drain.

        The first request is always sent; no later one once
        ``time.perf_counter()`` passes ``stop_at``.  ``PROBE_SLACK_S``
        before a request is due the loop takes a probe if no job is in
        flight.  Returns ``(request, due, late, record)``
        per request sent and the number of jobs not yet finished when the
        last one was sent.
        """
        orch = Orchestrator(store=store, workers=self.workers)
        await orch.start()
        sent = []
        try:
            t0 = time.time() + 0.05
            for i, request in enumerate(requests):
                if sent and time.perf_counter() >= stop_at:
                    break
                due = t0 + i / self.rate
                early = due - PROBE_SLACK_S - time.time()
                if early > 0:
                    await asyncio.sleep(early)
                    if all(rec.terminal for *_r, rec in sent):
                        out.probe()
                delay = due - time.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                late = max(0.0, time.time() - due)
                sent.append((request, due, late,
                             await orch.submit(request[0])))
            depth_end = sum(not rec.terminal for *_r, rec in sent)
            deadline = time.time() + self.drain_s
            while (any(not rec.terminal for *_r, rec in sent)
                   and time.time() < deadline):
                await asyncio.sleep(0.005)
        finally:
            await orch.close()
        return sent, depth_end


def service_layers(tracer: Tracer, sent, stage_cache, hit_ms, late_ms,
                   depth_end) -> dict:
    """Per-request traces from job records plus the store spans.

    Counts and times are per request; latencies are over all requests.
    """
    offset = time.time() - time.perf_counter()
    keys_of: dict[str, set[str]] = {}
    for (spec, _kind, _gates), *_ in sent:
        fp = spec.fingerprint()
        if fp not in keys_of:
            ctx = HdfTestFlow(resolve_circuit(spec.circuit),
                              spec.flow_config()).context(
                with_schedules=spec.with_schedules)
            keys_of[fp] = set(DEFAULT_PIPELINE.stage_keys(ctx).values())
    records = [rec for *_r, rec in sent]
    exec_spans = []
    stage_s: dict[str, float] = {}
    for (_spec, kind, _gates), due, _late, rec in sent:
        if rec.finished_at is None:
            continue
        trace = tracer.new_trace("request")
        root = tracer.add("service.request", due - offset,
                          rec.finished_at - offset, trace=trace,
                          job=rec.id, kind=kind, cache=rec.cache)
        if rec.started_at is None:
            continue
        tracer.add("service.queue_wait", rec.submitted_at - offset,
                   rec.started_at - offset, trace=trace,
                   parent=root["span"])
        if rec.dedup_of is None:
            exec_spans.append((tracer.add(
                "service.exec", rec.started_at - offset,
                rec.finished_at - offset, trace=trace, parent=root["span"]),
                keys_of[rec.fingerprint]))
            for name, info in (rec.payload or {}).get("stages", {}).items():
                stage_s[name] = stage_s.get(name, 0.0) + info["seconds"]
    # A job runs on one worker thread from start to end, so a store span
    # belongs to the exec span that covers it in time and owns its key.
    loads = stores = hits = 0
    load_s = store_s = 0.0
    loaded: list[str] = []
    stored: list[str] = []
    for s in tracer.spans:
        if not s["name"].startswith("store."):
            continue
        key = s["attrs"]["key"]
        owners = [e for e, keys in exec_spans
                  if key in keys and e["start"] <= s["start"] <= e["end"]]
        if owners:
            s["trace"], s["parent"] = owners[0]["trace"], owners[0]["span"]
        if s["name"] == "store.load":
            loads += 1
            load_s += s["end"] - s["start"]
            if s["attrs"]["hit"]:
                hits += 1
                loaded.append(key)
        else:
            stores += 1
            store_s += s["end"] - s["start"]
            stored.append(key)
    # Entry sizes are listed after the run, outside every timed span.
    sizes = {p.stem: p.stat().st_size for p in stage_cache.root.rglob("*.pkl")}
    waits = [1000.0 * (r.started_at - r.submitted_at) for r in records
             if r.started_at is not None and r.dedup_of is None]
    execs = [1000.0 * r.seconds for r in records
             if r.state == "done" and r.dedup_of is None]
    n = len(sent)
    layers = {f"pipeline.{name}_s": value / n
              for name, value in stage_s.items()}
    layers.update({
        "store.loads": loads / n, "store.stores": stores / n,
        "store.load_s": load_s / n, "store.store_s": store_s / n,
        "store.load_bytes": sum(sizes.get(k, 0) for k in loaded) / n,
        "store.store_bytes": sum(sizes.get(k, 0) for k in stored) / n,
        "store.hit_ratio": hits / loads if loads else 0.0,
        "service.queue_wait_p50_ms": statistics.median(waits),
        "service.queue_wait_p95_ms": percentile(waits, 95),
        "service.exec_p50_ms": statistics.median(execs),
        "service.hit_latency_p50_ms": (statistics.median(hit_ms)
                                       if hit_ms else 0.0),
        "service.dedup": sum(r.dedup_of is not None for r in records) / n,
        "service.generator_late_max_ms": max(late_ms),
        "service.queue_depth_end": depth_end,
    })
    return layers


WORKLOADS = {
    "flow-cold": FlowCold,
    "analysis-large": AnalysisLarge,
    "resched-alerts": ReschedAlerts,
    "service-mix": ServiceMix,
}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Set up, run and summarize one workload; returns the result dict.

    ``workdir`` holds the run's temporary files and is removed at the
    end; a traced run writes ``trace.jsonl`` next to it.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s: list[float] = []
        setup_probes: list[float] = []
        inputs = None
        least, most = SETUP_REPEATS
        budget_end = time.perf_counter() + SETUP_BUDGET_S
        while len(setup_s) < least or (len(setup_s) < most and
                                       time.perf_counter() < budget_end):
            inputs = None
            gc.collect()
            t0 = time.perf_counter()
            inputs = workload.setup(seed, workdir)
            setup_s.append(time.perf_counter() - t0)
            setup_probes.append(probe_ms())
        # The set-up heap is shared by every operation: freezing it keeps
        # collections triggered inside timed operations from rescanning
        # it, which otherwise lands at random alerts and requests.
        gc.collect()
        gc.freeze()
        reset_peak_rss()
        tracer = Tracer() if trace else None
        out = workload.run(inputs, seconds, tracer)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    groups = {g: group_summary(v) for g, v in sorted(out.samples.items())}
    host = {"probe_ref_ms": PROBE_REF_MS,
            "setup_probe_ms": statistics.median(setup_probes),
            "run_probe_ms": (statistics.median(out.probes) if out.probes
                             else statistics.median(setup_probes)),
            "run_probes": len(out.probes)}
    setup_scale = PROBE_REF_MS / host["setup_probe_ms"]
    run_scale = PROBE_REF_MS / host["run_probe_ms"]

    def across_groups(key: str) -> float:
        values = [g[key] for g in groups.values()]
        return run_scale * statistics.geometric_mean(values) if values else 0.0

    metrics = {
        "setup_s": (setup_scale * statistics.median(setup_s), "s"),
        "latency_p50_ms": (across_groups("p50_ms"), "ms"),
        "latency_p90_ms": (across_groups("p90_ms"), "ms"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "hdf_detected": (out.quality.get("hdf_detected", 0), "count"),
        "test_freqs": (out.quality.get("test_freqs", 0), "count"),
        "test_entries": (out.quality.get("test_entries", 0), "count"),
    }
    if tracer is not None:
        tracer.write(workdir.parent / "trace.jsonl")
    return {
        "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": out.attempted, "failed": out.failed,
        "errors": out.errors,
        "samples": sum(len(v) for v in out.samples.values()),
        "setup_s_all": setup_s, "groups": groups, "host_speed": host,
        "extras": out.extras,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "layers": out.layers,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace), args.workdir)
    result["workload"] = args.workload
    args.result.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
