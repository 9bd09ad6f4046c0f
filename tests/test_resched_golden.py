"""Golden pin of the in-field rescheduler, alert by alert.

``tests/data/resched_golden.json`` records, on s27, c17, gen60 and the
quick-suite s9234, what :func:`apply_alert` does with the deterministic
bench alert stream (:func:`alert_stream_for_state`), and on s27 and
gen60 also with a stream that pushes faults out of the observable
window and back (:func:`push_stream`), and on all four the bench stream
with every second alert applied by :func:`apply_alert_cold` (the
``*/interleaved`` cases: a cold refresh between warm re-solves is what
exercises the state a cold solve leaves behind).  For the initial
schedule and after every alert it holds:

* the fast path (``empty-delta``/``no-dirty-faults``) or the step-1 path
  (``structure``, ``repair``, ``greedy-certified``, ...);
* the delta-discretization path ``stats["grid"]`` (``patched``,
  ``remapped`` or ``unchanged``);
* the schedule: periods, the sorted ``(period, pattern, config)``
  entries and the covered-fault count;
* the target faults whose current range ``state.fault_ranges[f]`` is
  non-empty (``bench/workloads.py`` checks coverage against it).

A refactor of the rescheduler must keep every record: a different grid
path or step-1 path changes what later alerts reuse, and a different
optimum changes the schedule the field applies.  Beside the pin,
:func:`test_ranges_follow_the_shift_definition` checks every current
range against its definition, ``(I_FF ∪ ⋃(I_mon + d)) + s`` clipped to
the window, after each alert of all three kinds of stream.

Regenerate (only for a deliberate, reviewed behaviour change) with::

    PYTHONPATH=src python tests/test_resched_golden.py
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    os.environ.setdefault("REPRO_FLOW_CACHE", "0")

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.circuits.library import embedded_circuit
from repro.core import FlowConfig, HdfTestFlow
from repro.experiments.resched import alert_stream_for_state
from repro.experiments.runner import SuiteRunConfig, run_suite
from repro.scheduling import resched
from repro.scheduling.resched import (
    AlertDelta,
    apply_alert,
    apply_alert_cold,
    cold_schedule_result,
    prepare_state_for_result,
)
from repro.scheduling.setcover import CoverProblem, presolve_cover

GOLDEN_FILE = Path(__file__).resolve().parent / "data" / "resched_golden.json"


def _small(build):
    return lambda: HdfTestFlow(build(), FlowConfig(atpg_seed=3)).run(
        with_schedules=False)


def _quick(name):
    # The configuration of tests/test_resched.py, so one test session
    # runs the quick flows once.
    return lambda: run_suite(SuiteRunConfig.quick(
        names=("s9234", "s13207"), with_schedules=False))[name]


def push_stream(res, state) -> list[AlertDelta]:
    """Shifts far past the window and back: one gate's faults leave it,
    a repeat leaves them outside (nothing to patch), a small burst and
    healing shift move two gates, every fault leaves and all but the
    first gate return, then the first gate returns too."""
    gates = sorted(state.gate_faults)
    g = (gates * 3)[:3]
    far = 1.0e4
    return [AlertDelta.from_mapping(m) for m in (
        {g[0]: far}, {g[0]: far}, {g[1]: 0.25, g[2]: -0.25},
        {x: far for x in gates}, {x: -far for x in gates},
        {g[0]: -2 * far})]


def bench_stream(res, state) -> list[AlertDelta]:
    return alert_stream_for_state(res.circuit, state)


def fine_stream(res, state) -> list[AlertDelta]:
    """Shifts of a fraction of a picosecond to a picosecond, then their
    reversal; then one fault's range moved across ``t_nom`` so that its
    start moves in small steps while its clipped end stays put."""
    gates = sorted(state.gate_faults)[:6]
    up = [{g: 0.25 * (1 + k % 4)} for k, g in enumerate(gates)]
    g = gates[0]
    span = res.data.table.combined(state.config_delays).interval_set(
        state.gate_faults[g][0]).span
    across = res.clock.t_nom - span.midpoint
    return [AlertDelta.from_mapping(m) for m in
            up + [{g: -s for g, s in m.items()} for m in up]
            + [{g: across}, {g: 0.5}, {g: 0.25}, {g: -across - 0.75}]]


S27 = _small(lambda: embedded_circuit("s27"))
GEN60 = _small(lambda: generate_circuit(CircuitProfile(
    name="gen60", n_gates=60, n_ffs=12, n_inputs=8, n_outputs=4, depth=7,
    seed=5, endpoint_side_gates=1, short_path_ppo_fraction=0.3)))

C17 = _small(lambda: embedded_circuit("c17"))
S9234 = _quick("s9234")

#: Case name -> (flow result builder, alert stream of a fresh state[,
#: interleaved]).
CASES = {
    "s27": (S27, bench_stream),
    "c17": (C17, bench_stream),
    "gen60": (GEN60, bench_stream),
    "s9234": (S9234, bench_stream),
    "s27/push": (S27, push_stream),
    "gen60/push": (GEN60, push_stream),
    "s27/interleaved": (S27, bench_stream, True),
    "c17/interleaved": (C17, bench_stream, True),
    "gen60/interleaved": (GEN60, bench_stream, True),
    "s9234/interleaved": (S9234, bench_stream, True),
}


def _record(state, out=None) -> dict:
    sched = state.schedule
    return {
        "fast_path": out.fast_path if out else None,
        "step1_path": out.stats.get("step1_path") if out else None,
        "grid": out.stats.get("grid") if out else None,
        "periods": list(sched.periods),
        "entries": [[e.period, e.pattern, e.config]
                    for e in sorted(sched.entries)],
        "covered": len(sched.covered),
        "coverable": sorted(f for f, rng in state.fault_ranges.items()
                            if not rng.is_empty),
    }


def replay(build, stream, interleaved: bool = False) -> list[dict]:
    """The initial record, then one record per alert of the stream.

    ``interleaved`` applies every second alert (the 2nd, 4th, ...) with
    :func:`apply_alert_cold` instead of :func:`apply_alert`.
    """
    res = build()
    state = prepare_state_for_result(res)
    alerts = stream(res, state)
    records = [_record(state)]
    for k, delta in enumerate(alerts):
        apply = apply_alert_cold if interleaved and k % 2 else apply_alert
        records.append(_record(state, apply(state, delta)))
    return records


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text())["cases"]


@pytest.mark.parametrize("case", list(CASES))
def test_replay_matches_golden(golden, case):
    want = golden[case]
    got = replay(*CASES[case])
    assert len(got) == len(want), case
    assert len(want) > 1, f"{case}: the stream raised no alert"
    for k, (g, w) in enumerate(zip(got, want)):
        for key in w:
            assert g[key] == w[key], (case, k - 1, key)


@pytest.mark.parametrize("build", [S27, GEN60], ids=["s27", "gen60"])
def test_ranges_follow_the_shift_definition(build):
    res = build()
    lo, hi = res.clock.t_min, res.clock.t_nom
    for stream in (bench_stream, push_stream, fine_stream):
        state = prepare_state_for_result(res)
        combined = res.data.table.combined(state.config_delays)
        for delta in stream(res, state):
            apply_alert(state, delta)
            for f, rng in state.fault_ranges.items():
                s = state.shifts.get(state.fault_gate[f], 0.0)
                want = combined.interval_set(f).shifted(s).clipped(lo, hi)
                assert rng == want, (stream.__name__, delta, f)


@pytest.mark.parametrize("build", [S27, C17, GEN60],
                         ids=["s27", "c17", "gen60"])
def test_cold_candidates_leave_no_dominance_witness(build):
    """A cold solve keeps no presolve reduction for the next warm one:
    its candidates are dominance-pruned, so presolve over them records
    no witness to replay."""
    res = build()
    state = prepare_state_for_result(res)

    def witnesses():
        cand_set = state.cand_set
        red = presolve_cover(CoverProblem.from_matrix(
            cand_set.matrix, cand_set.fault_ids))
        return tuple((int.from_bytes(d, "little"), int.from_bytes(k, "little"))
                     for d, k in red.dominators)

    assert state.cand_set.matrix.shape[0]
    assert witnesses() == ()
    assert state.reduction is None
    for delta in bench_stream(res, state):
        apply_alert_cold(state, delta)
        assert witnesses() == (), delta
        assert state.reduction is None


def test_period_prev_is_bounded(monkeypatch):
    """Every new step-2 period adds a ``period_prev`` key; like the step-2
    memo it keeps only the ``STEP2_CACHE_SIZE`` most recent, and the
    evictions leave every schedule cost-equal to a cold re-solve."""
    cap = 4
    monkeypatch.setattr(resched, "STEP2_CACHE_SIZE", cap)
    res = S27()
    state = prepare_state_for_result(res)
    periods = set(state.schedule.periods)
    for delta in fine_stream(res, state):
        out = apply_alert(state, delta)
        periods.update(out.schedule.periods)
        assert len(state.period_prev) <= cap, delta
        cold = cold_schedule_result(state)
        assert out.cost == (cold.num_frequencies, len(cold.covered)), delta
        assert out.schedule.num_entries == cold.num_entries, delta
    assert len(periods) > cap, "the stream must visit more periods than fit"


if __name__ == "__main__":  # pragma: no cover
    payload = {"cases": {name: replay(*case)
                         for name, case in CASES.items()}}
    text = json.dumps(payload, indent=1)
    # One line per innermost list keeps the file small and diffs readable.
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(text + "\n")
    print(f"wrote {GOLDEN_FILE}")
