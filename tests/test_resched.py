"""Adaptive rescheduling engine: equivalence, fast paths, IO, registry.

The load-bearing contract is *lossless warm-starting*: after any alert
delta the incremental engine's schedule must cost-match a cold re-solve
of the same shifted problem — asserted here with a randomized seeded
delta suite over the quick-profile circuits (>= 50 deltas) plus a
deterministic scenario replay on the small golden circuits, both racing
:func:`apply_alert` against :func:`apply_alert_cold` step by step and
against the warm-start-free :func:`cold_schedule_result` yardstick at
the end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.runner import SuiteRunConfig, run_suite
from repro.scheduling.resched import (
    AlertDelta,
    apply_alert,
    apply_alert_cold,
    cold_schedule_result,
    load_alert_stream,
    prepare_state_for_result,
    scenario_alert_stream,
)
from repro.scheduling.schedule import pattern_config_rows
from repro.utils.bitset import matrix_bits

QUICK_CIRCUITS = ("s9234", "s13207")
#: Seeded random deltas per quick circuit (2 x 25 = 50 total).
DELTAS_PER_CIRCUIT = 25


@pytest.fixture(scope="module")
def quick_results():
    """Quick-profile flow results for the randomized equivalence suite."""
    return run_suite(SuiteRunConfig.quick(names=QUICK_CIRCUITS,
                                          with_schedules=False))


def _assert_cost_equal(out_inc, out_cold, ctx):
    assert out_inc.cost == out_cold.cost, ctx
    assert out_inc.schedule.covered == out_cold.schedule.covered, ctx


def _random_delta(rng, gates):
    n = int(rng.integers(1, 4))
    picked = rng.choice(gates, size=min(n, len(gates)), replace=False)
    shifts = {}
    for g in picked:
        s = float(rng.uniform(0.5, 5.0))
        if rng.random() < 0.2:
            s = -s          # occasional healing / recalibration shift
        shifts[int(g)] = s
    return AlertDelta.from_mapping(shifts)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("name,seed", [("s9234", 11), ("s13207", 12)])
    def test_seeded_deltas_cost_equal_to_cold(self, quick_results, name,
                                              seed):
        res = quick_results[name]
        st_inc = prepare_state_for_result(res)
        st_cold = prepare_state_for_result(res)
        rng = np.random.default_rng(seed)
        gates = np.array(sorted(st_inc.gate_faults))
        for k in range(DELTAS_PER_CIRCUIT):
            delta = _random_delta(rng, gates)
            out_inc = apply_alert(st_inc, delta)
            out_cold = apply_alert_cold(st_cold, delta)
            _assert_cost_equal(out_inc, out_cold, (name, k, delta))
        # Final cross-check against a solve sharing no machinery with
        # either state (fresh discretization + stock optimizer).
        reference = cold_schedule_result(st_inc)
        assert (st_inc.schedule.num_frequencies
                == reference.num_frequencies), name
        assert st_inc.schedule.covered == reference.covered, name

    def test_scenario_stream_cost_equal_on_golden(self, flow_result_small):
        from repro.aging.scenario import ScenarioSpec

        st_inc = prepare_state_for_result(flow_result_small)
        st_cold = prepare_state_for_result(flow_result_small)
        spec = ScenarioSpec(gate_seed=3, seed=3)
        alerts = scenario_alert_stream(
            flow_result_small.circuit, spec,
            gates=st_inc.gate_faults.keys())
        assert alerts, "scenario produced no alerts on gen60"
        for k, delta in enumerate(alerts):
            out_inc = apply_alert(st_inc, delta)
            out_cold = apply_alert_cold(st_cold, delta)
            _assert_cost_equal(out_inc, out_cold, ("gen60", k))
            assert out_inc.stats["step1_path"] in (
                "structure", "repair", "greedy-certified",
                "warm-presolve-ilp", "presolve-ilp", "greedy"), out_inc.stats


class TestFastPaths:
    def test_empty_delta_returns_previous_schedule_object(
            self, flow_result_s27):
        state = prepare_state_for_result(flow_result_s27)
        before = state.schedule
        out = apply_alert(state, AlertDelta(shifts=()))
        assert out.fast_path == "empty-delta"
        assert out.schedule is before       # no rebuild, same object
        assert out.stats["grid"] is None

    def test_alert_on_faultless_gate_is_a_noop(self, flow_result_s27):
        state = prepare_state_for_result(flow_result_s27)
        free = next(g for g in range(len(flow_result_s27.circuit.gates))
                    if g not in state.gate_faults)
        before = state.schedule
        out = apply_alert(state, AlertDelta.from_mapping({free: 3.0}))
        assert out.fast_path == "no-dirty-faults"
        assert out.schedule is before

    def test_repeated_alert_reuses_caches(self, flow_result_s27):
        state = prepare_state_for_result(flow_result_s27)
        gate = next(iter(state.gate_faults))
        # First round trip populates the caches at both operating points;
        # the second must replay every step-2 subproblem from the memo.
        apply_alert(state, AlertDelta.from_mapping({gate: 1.0}))
        apply_alert(state, AlertDelta.from_mapping({gate: -1.0}))
        hits_before = state.step2_cache.hits
        out_up = apply_alert(state, AlertDelta.from_mapping({gate: 1.0}))
        out_dn = apply_alert(state, AlertDelta.from_mapping({gate: -1.0}))
        assert state.step2_cache.hits > hits_before
        assert out_up.stats["step2_misses"] == 0
        assert out_dn.stats["step2_misses"] == 0

    def test_caches_are_bounded(self, flow_result_s27):
        from repro.scheduling.resched import (
            COMBO_CACHE_SIZE,
            STEP2_CACHE_SIZE,
        )

        state = prepare_state_for_result(flow_result_s27)
        assert state.step2_cache.maxsize == STEP2_CACHE_SIZE
        assert state.combo_cache.maxsize == COMBO_CACHE_SIZE


class TestComboMemo:
    def test_combo_hits_match_cold_subset_builder(self, flow_result_s27):
        state = prepare_state_for_result(flow_result_s27)
        gate = next(iter(state.gate_faults))
        apply_alert(state, AlertDelta.from_mapping({gate: 2.0}))
        from repro.scheduling.resched import _fault_combo_hits, _step2_table

        fault_set = frozenset(state.fault_ids)
        table = _step2_table(state)
        for period in state.schedule.periods:
            keys, matrix, elements = pattern_config_rows(
                table, fault_set, period, state.configs)
            expected = {k: {elements[b] for b in bits}
                        for k, bits in zip(keys, matrix_bits(matrix))}
            got: dict = {}
            for f in fault_set:
                for key in _fault_combo_hits(state, period, f):
                    got.setdefault(key, set()).add(f)
            assert got == expected, period


class TestAlertDelta:
    def test_from_mapping_drops_zero_shifts(self):
        d = AlertDelta.from_mapping({3: 0.0, 5: 1.5})
        assert d.shifts == ((5, 1.5),)
        assert d.gates == frozenset({5})
        assert not d.is_empty

    def test_from_mapping_canonical_order(self):
        a = AlertDelta.from_mapping({9: 1.0, 2: 0.5})
        b = AlertDelta.from_mapping({2: 0.5, 9: 1.0})
        assert a == b
        assert a.shifts == ((2, 0.5), (9, 1.0))

    def test_all_zero_is_empty(self):
        assert AlertDelta.from_mapping({1: 0.0}).is_empty


class TestAlertStreamIO:
    def test_load_all_three_event_forms(self, tmp_path):
        path = tmp_path / "alerts.json"
        path.write_text(json.dumps([
            {"gate": 12, "shift_ps": 4.0},
            [{"gate": 7, "shift_ps": 1.5}, {"gate": 7, "shift_ps": 0.5},
             {"gate": 3, "shift_ps": 2.0}],
            {"shifts": {"12": 4.0, "7": 1.5}},
        ]))
        stream = load_alert_stream(path)
        assert stream[0] == AlertDelta.from_mapping({12: 4.0})
        assert stream[1] == AlertDelta.from_mapping({7: 2.0, 3: 2.0})
        assert stream[2] == AlertDelta.from_mapping({12: 4.0, 7: 1.5})

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "alerts.json"
        path.write_text(json.dumps({"gate": 1, "shift_ps": 1.0}))
        with pytest.raises(ValueError, match="JSON list"):
            load_alert_stream(path)

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "alerts.json"
        path.write_text(json.dumps([[1, 2, 3]]))
        with pytest.raises(ValueError, match="malformed"):
            load_alert_stream(path)

    @pytest.mark.parametrize("event", [
        {"gate": 1}, {"shift_ps": 1.0}, {"gate": None, "shift_ps": 1.0},
        {"shifts": [1, 2]}])
    def test_incomplete_entry_rejected(self, tmp_path, event):
        path = tmp_path / "alerts.json"
        path.write_text(json.dumps([event]))
        with pytest.raises(ValueError, match="malformed"):
            load_alert_stream(path)

    @pytest.mark.parametrize("shift", ["NaN", "Infinity"])
    def test_non_finite_shift_rejected(self, tmp_path, shift):
        path = tmp_path / "alerts.json"
        path.write_text(f'[{{"gate": 3, "shift_ps": {shift}}}]')
        with pytest.raises(ValueError, match="not finite"):
            load_alert_stream(path)


class TestScenarioStream:
    def test_deterministic(self, small_generated):
        from repro.aging.scenario import ScenarioSpec

        spec = ScenarioSpec(gate_seed=5, seed=5)
        a = scenario_alert_stream(small_generated, spec)
        b = scenario_alert_stream(small_generated, spec)
        assert a == b

    def test_max_gates_cap(self, small_generated):
        from repro.aging.scenario import ScenarioSpec

        spec = ScenarioSpec(gate_seed=5, seed=5)
        for delta in scenario_alert_stream(small_generated, spec,
                                           max_gates=2):
            assert 1 <= len(delta.shifts) <= 2

    def test_gate_pool_restriction(self, small_generated):
        from repro.aging.scenario import ScenarioSpec

        spec = ScenarioSpec(gate_seed=5, seed=5)
        pool = {0, 1, 2, 3, 4, 5, 6, 7}
        for delta in scenario_alert_stream(small_generated, spec,
                                           gates=pool):
            assert delta.gates <= pool

    def test_max_gates_validated(self, small_generated):
        from repro.aging.scenario import ScenarioSpec

        with pytest.raises(ValueError, match="max_gates"):
            scenario_alert_stream(small_generated, ScenarioSpec(),
                                  max_gates=0)

    def test_include_empty_keeps_every_checkpoint(self, small_generated):
        from repro.aging.scenario import ScenarioSpec

        spec = ScenarioSpec(gate_seed=5, seed=5)
        stream = scenario_alert_stream(small_generated, spec,
                                       include_empty=True)
        assert len(stream) == len(spec.checkpoints)


class TestReplayHarness:
    def test_replay_result_records_and_agrees(self, flow_result_small):
        from repro.experiments.resched import replay_result

        replay = replay_result(flow_result_small)
        assert replay.cost_equal
        assert replay.alerts == len(replay.latencies_s) == len(replay.cold_s)

    def test_replay_alert_events_takes_the_solve_function(
            self, flow_result_s27):
        from repro.experiments.resched import replay_alert_events

        warm = prepare_state_for_result(flow_result_s27)
        cold = prepare_state_for_result(flow_result_s27)
        alerts = [AlertDelta.from_mapping({g: 1.0})
                  for g in sorted(warm.gate_faults)[:3]]
        events_warm, summary = replay_alert_events(warm, alerts, apply_alert)
        events_cold, _ = replay_alert_events(cold, alerts, apply_alert_cold)
        assert summary["alerts"] == len(alerts)
        keys = ("gates", "frequencies", "entries", "covered")
        assert [[e[k] for k in keys] for e in events_warm] == \
            [[e[k] for k in keys] for e in events_cold]


class TestCli:
    def test_resched_on_alert_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "alerts.json"
        path.write_text(json.dumps([{"gate": 13, "shift_ps": 2.0},
                                    {"gate": 16, "shift_ps": 1.0}]))
        assert main(["resched", "s27", "--alerts", str(path),
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "alerts=2" in out
        assert "summary:" in out

    @pytest.mark.parametrize("text", [
        "[5]", '[{"gate": 3, "shift_ps": NaN}]', '[{"gate": -2, '
        '"shift_ps": 1.0}]', "[{nope", '[{"gate": 3}]'])
    def test_bad_alert_file_is_an_error_not_a_traceback(self, tmp_path,
                                                        capsys, text):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["resched", "s27", "--alerts", str(path),
                     "--no-cache"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_resched_json_output(self, capsys):
        from repro.cli import main

        assert main(["resched", "s27", "--json", "--no-cache"]) == 0
        payload = json.loads(
            capsys.readouterr().out.split("\n", 1)[1])
        assert len(payload["events"]) == payload["summary"]["alerts"]


class TestUnknownGate:
    """An alert on a gate the circuit does not have is an error."""

    @pytest.mark.parametrize("solve", [apply_alert, apply_alert_cold])
    def test_solver_raises_and_leaves_state(self, flow_result_s27, solve):
        state = prepare_state_for_result(flow_result_s27)
        n = len(flow_result_s27.circuit.gates)
        before = state.schedule
        with pytest.raises(ValueError, match=rf"gate 99999.*{n} gates"):
            solve(state, AlertDelta.from_mapping({99999: 2.0}))
        assert state.shifts == {}
        assert state.schedule is before

    def test_cli_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "alerts.json"
        path.write_text(json.dumps([{"gate": 99999, "shift_ps": 2.0}]))
        assert main(["resched", "s27", "--alerts", str(path),
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "99999" in err

    def test_job_fails_with_the_message(self):
        from repro.core.spec import job_from_dict
        from repro.service.orchestrator import run_job

        job = job_from_dict({"kind": "resched", "circuit": "s27",
                             "alerts": [[[99999, 2.0]]]})
        with pytest.raises(ValueError, match="gate 99999"):
            run_job(job, store=None)


def _orders(events):
    """The stream, reversed, and a fixed shuffle."""
    rng = np.random.default_rng(5)
    return [list(events), list(reversed(events)),
            [events[i] for i in rng.permutation(len(events))]]


def _stream(state):
    """Five events over four fault-carrying gates: a burst, a repeated
    gate and a healing shift, all multiples of 0.25 ps (exact sums)."""
    g = sorted(state.gate_faults)[:4]
    g += g[:4 - len(g)]
    return [AlertDelta.from_mapping(m) for m in (
        {g[0]: 1.25}, {g[1]: 0.5, g[2]: 2.0}, {g[0]: -0.75},
        {g[3]: 1.0}, {g[1]: 0.25})]


class TestReorderedStreams:
    """Alert order must not matter: cumulative shifts commute exactly."""

    @pytest.mark.parametrize("fixture", ["flow_result_s27",
                                         "flow_result_small"])
    def test_every_order_agrees(self, fixture, request):
        res = request.getfixturevalue(fixture)
        finals = []
        for order in _orders(_stream(prepare_state_for_result(res))):
            st_inc = prepare_state_for_result(res)
            st_cold = prepare_state_for_result(res)
            for k, delta in enumerate(order):
                out_inc = apply_alert(st_inc, delta)
                out_cold = apply_alert_cold(st_cold, delta)
                _assert_cost_equal(out_inc, out_cold, (fixture, k, delta))
            cold = st_cold.schedule
            finals.append((st_inc.shifts, st_inc.schedule.num_frequencies,
                           st_inc.schedule.covered, cold.periods,
                           cold.entries, cold.covered))
        assert finals[1] == finals[0]
        assert finals[2] == finals[0]

    def test_cli_summaries_agree(self, flow_result_s27, tmp_path, capsys):
        from repro.cli import main

        events = [[{"gate": g, "shift_ps": s} for g, s in d.shifts]
                  for d in _stream(prepare_state_for_result(flow_result_s27))]
        outcomes = []
        for k, order in enumerate(_orders(events)):
            path = tmp_path / f"order{k}.json"
            path.write_text(json.dumps(order))
            assert main(["resched", "s27", "--alerts", str(path), "--json",
                         "--no-cache"]) == 0
            payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
            last = payload["events"][-1]
            outcomes.append((payload["summary"]["alerts"],
                             last["frequencies"], last["covered"]))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
