"""Alert-burst replay harness for the warm and cold alert re-solvers.

One replay drives two independent :class:`ScheduleState`s over the same
deterministic alert stream — the ``incremental`` engine against the
``cold`` full-recompute baseline — records per-alert latencies and
re-solve paths, and asserts the schedules stay cost-equal alert by
alert.  ``benchmarks/test_bench_resched.py`` persists the aggregate to
``BENCH_resched.json``; ``repro bench --stage resched`` and the
``pytest -m perf`` guard in ``tests/test_perf_smoke.py`` replay the same
workload against the committed numbers.

Workload shape: single-gate alerts (``max_gates=1`` — one programmable
delay monitor raises one alert) on a densified checkpoint grid (42
points, 12 per lifetime octave), restricted to gates actually carrying
target faults so every alert forces a real re-solve.  Everything derives
from the spec's seeds, so replays are reproducible across hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from repro.aging.scenario import ScenarioSpec
from repro.scheduling.resched import (
    apply_alert,
    apply_alert_cold,
    prepare_state_for_result,
    scenario_alert_stream,
)

#: Dense lifetime grid of the bench replay: 12 checkpoints per octave
#: (the scenario default uses 2) so a quick-profile circuit raises
#: 14-16 single-gate alerts instead of a handful.
ALERT_CHECKPOINTS = tuple(0.25 * 2 ** (k / 6.0) for k in range(42))

#: Spec of the committed bench workload (seeds pin the gate population
#: and the degradation draw).
DEFAULT_SPEC = ScenarioSpec(gate_seed=7, seed=7)

#: Per-gate shift (ps) below which no alert is raised.
ALERT_THRESHOLD_PS = 0.5


@dataclass
class ReschedReplay:
    """One circuit's alert-burst replay: latencies plus equivalence."""

    circuit: str
    alerts: int
    prep_s: float
    #: Per-alert wall clock of the incremental engine, seconds.
    latencies_s: list[float] = field(default_factory=list)
    #: Per-alert wall clock of the cold baseline, seconds.
    cold_s: list[float] = field(default_factory=list)
    #: Histogram of the warm step-1 paths taken.
    paths: dict[str, int] = field(default_factory=dict)
    #: Incremental cost == cold cost at every alert.
    cost_equal: bool = True

    @property
    def median_ms(self) -> float:
        return 1000.0 * median(self.latencies_s) if self.latencies_s else 0.0

    @property
    def max_ms(self) -> float:
        return 1000.0 * max(self.latencies_s) if self.latencies_s else 0.0

    @property
    def total_s(self) -> float:
        return sum(self.latencies_s)

    @property
    def cold_total_s(self) -> float:
        return sum(self.cold_s)

    @property
    def speedup(self) -> float:
        return self.cold_total_s / self.total_s if self.total_s else 0.0


def alert_stream_for_state(circuit, state, *,
                           spec: ScenarioSpec = DEFAULT_SPEC,
                           checkpoints=ALERT_CHECKPOINTS,
                           max_gates: int = 1):
    """The bench alert stream: single-gate alerts on fault-carrying gates."""
    return scenario_alert_stream(
        circuit, spec, checkpoints=checkpoints,
        threshold_ps=ALERT_THRESHOLD_PS, max_gates=max_gates,
        gates=state.gate_faults.keys())


def replay_alert_events(state, alerts, solve, *,
                        progress=None) -> tuple[list[dict], dict]:
    """Replay ``alerts`` against one state through ``solve``.

    The CLI/service replay loop (``repro resched`` and the facade's
    resched executor share it): ``solve`` is :func:`apply_alert` or a
    function with its signature (tests pass :func:`apply_alert_cold`).
    Returns the per-alert event records and the latency summary;
    ``progress`` receives each event as it lands.
    """
    events: list[dict] = []
    for k, delta in enumerate(alerts):
        out = solve(state, delta)
        sched = out.schedule
        path = out.fast_path or out.stats.get("step1_path", "?")
        event = {
            "alert": k, "gates": sorted(delta.gates),
            "ms": round(1000.0 * out.seconds, 3), "path": path,
            "frequencies": sched.num_frequencies,
            "entries": sched.num_entries, "covered": len(sched.covered),
        }
        events.append(event)
        if progress is not None:
            progress(event)
    lat = sorted(e["ms"] for e in events)
    summary = {
        "alerts": len(events),
        "median_ms": round(lat[len(lat) // 2], 3) if lat else 0.0,
        "max_ms": max(lat) if lat else 0.0,
        "total_s": round(sum(lat) / 1000.0, 4),
    }
    return events, summary


def replay_result(res, *, spec: ScenarioSpec = DEFAULT_SPEC,
                  checkpoints=ALERT_CHECKPOINTS,
                  max_gates: int = 1) -> ReschedReplay:
    """Race the two engines over one flow result's alert stream.

    Two independent states replay the identical stream (the incremental
    engine must not benefit from the cold solver's refreshed caches, and
    vice versa); the cold state is prepared second so allocator warm-up
    penalizes neither side systematically.
    """
    t0 = perf_counter()
    st_inc = prepare_state_for_result(res)
    st_cold = prepare_state_for_result(res)
    prep_s = perf_counter() - t0
    alerts = alert_stream_for_state(res.circuit, st_inc, spec=spec,
                                    checkpoints=checkpoints,
                                    max_gates=max_gates)
    replay = ReschedReplay(circuit=res.circuit.name, alerts=len(alerts),
                           prep_s=round(prep_s, 4))
    for delta in alerts:
        out_inc = apply_alert(st_inc, delta)
        out_cold = apply_alert_cold(st_cold, delta)
        replay.latencies_s.append(out_inc.seconds)
        replay.cold_s.append(out_cold.seconds)
        path = out_inc.fast_path or out_inc.stats.get("step1_path", "?")
        replay.paths[path] = replay.paths.get(path, 0) + 1
        if (out_inc.cost != out_cold.cost
                or out_inc.schedule.covered != out_cold.schedule.covered):
            replay.cost_equal = False
    return replay


def replay_record(replay: ReschedReplay, res) -> dict:
    """JSON record of one replay for ``BENCH_resched.json``."""
    return {
        "gates": len(res.circuit.gates),
        "faults": len(res.data.faults),
        "targets": len(res.classification.target),
        "alerts": replay.alerts,
        "prep_s": replay.prep_s,
        "median_ms": round(replay.median_ms, 3),
        "max_ms": round(replay.max_ms, 3),
        "total_s": round(replay.total_s, 4),
        "cold_total_s": round(replay.cold_total_s, 4),
        "speedup": round(replay.speedup, 2),
        "paths": dict(sorted(replay.paths.items())),
        "cost_equal": replay.cost_equal,
    }


def aggregate_totals(replays) -> dict:
    """Aggregate metrics across circuits (sums race sums, not medians)."""
    replays = list(replays)
    lat = sorted(s for r in replays for s in r.latencies_s)
    inc = sum(r.total_s for r in replays)
    cold = sum(r.cold_total_s for r in replays)
    return {
        "alerts": sum(r.alerts for r in replays),
        "incremental_s": round(inc, 4),
        "cold_s": round(cold, 4),
        "speedup": round(cold / inc, 2) if inc else 0.0,
        "median_ms": round(1000.0 * median(lat), 3) if lat else 0.0,
        "max_ms": round(1000.0 * max(lat), 3) if lat else 0.0,
        "cost_equal": all(r.cost_equal for r in replays),
    }
