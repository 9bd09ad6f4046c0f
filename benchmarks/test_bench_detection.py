"""Benchmark + persistent perf baseline of the fault-simulation engines.

Re-runs the detection-range stage of every suite circuit with all three
engines (the batched array-kernel ``"wordwave"`` engine, the event-driven
``"incremental"`` engine and the seed-equivalent ``"reference"`` full-cone
resweep), checks they produce bit-identical ``DetectionData``, and persists
the machine-readable timing trajectory to ``BENCH_detection.json`` at the
repository root (see EXPERIMENTS.md).  A second benchmark exercises an
s38417-scale synthetic circuit where only the batched engine remains
tractable.  The perf smoke test in ``tests/test_perf_smoke.py`` guards
against regressions relative to the committed baseline.
"""

from __future__ import annotations

import json
import random
import time

from conftest import _PROFILE, BENCH_DETECTION_FILE, write_artifact

from repro.core.config import FlowConfig
from repro.faults.detection import compute_detection_data
from repro.netlist.circuit import GateKind
from repro.utils.profiling import StageTimer

#: Detection-stage wall clock of the pre-incremental seed engine, measured
#: from a worktree at the seed commit with the same quick-profile workload
#: and machine as below.  Kept verbatim (and carried over from any existing
#: baseline file) so the before/after trajectory survives regeneration.
_SEED_BASELINE = {
    "commit": "a2ad4de",
    "profile": "quick",
    "engine": "seed full-cone resweep (pre-incremental)",
    "detection_seconds": {
        "s9234": 0.181,
        "s13207": 0.307,
        "s35932": 0.141,
        "p89k": 1.595,
    },
    "total_s": 2.224,
}

#: Quick-profile total of the event-driven engine as committed by PR 1
#: (the before-side of this PR's speedup claim); carried over from any
#: existing baseline file like the seed numbers above.
_INCREMENTAL_BASELINE = {
    "commit": "cdedfc5",
    "profile": "quick",
    "engine": "incremental",
    "total_s": 0.5613,
}

#: s38417-scale synthetic workload (see EXPERIMENTS.md): ~26.5k gates with
#: a sampled fault universe large enough that per-fault event-driven costs
#: dominate; the reference engine is extrapolated from a thin slice.
_LARGE_SEED = 38417
_LARGE_FAULTS = 6000
_LARGE_PATTERNS = 24
_LARGE_REFERENCE_SLICE = 60


def _detection_workload(res):
    """Keyword arguments replaying the flow's detection stage exactly."""
    return dict(
        horizon=res.clock.t_nom,
        monitored_gates=res.placement.monitored_gates,
        inertial=FlowConfig().inertial_ps,
    )


def _run_engine(res, engine, timer=None):
    t0 = time.perf_counter()
    data = compute_detection_data(res.circuit, res.data.faults, res.test_set,
                                  engine=engine, timer=timer,
                                  **_detection_workload(res))
    return data, time.perf_counter() - t0


def _assert_identical(name, got, ref):
    """Bit-identical DetectionData across engines (the hard requirement)."""
    assert got.faults_with_ranges() == ref.faults_with_ranges(), name
    for fi, per_pattern in ref.ranges.items():
        got_pp = got.ranges[fi]
        assert set(got_pp) == set(per_pattern), (name, fi)
        for pi, fpr in per_pattern.items():
            assert got_pp[pi].i_all == fpr.i_all, (name, fi, pi)
            assert got_pp[pi].i_mon == fpr.i_mon, (name, fi, pi)


def _carried_baselines():
    seed = _SEED_BASELINE
    incremental = _INCREMENTAL_BASELINE
    if BENCH_DETECTION_FILE.exists():
        previous = json.loads(BENCH_DETECTION_FILE.read_text())
        seed = previous.get("seed_baseline", seed)
        incremental = previous.get("incremental_baseline", incremental)
        # PR 1..5 payloads predate the incremental_baseline record: their
        # totals *are* the committed incremental trajectory — adopt them.
        if ("incremental_baseline" not in previous
                and previous.get("engine") == "incremental"
                and previous.get("profile") == _INCREMENTAL_BASELINE["profile"]):
            incremental = dict(_INCREMENTAL_BASELINE,
                               total_s=previous["totals"]["incremental_s"])
    return seed, incremental


def test_detection_engine_benchmark(benchmark, suite_results, results_dir):
    records: dict[str, dict] = {}

    def run_all():
        for name, res in suite_results.items():
            timer = StageTimer()
            ww_data, ww_s = _run_engine(res, "wordwave", timer=timer)
            inc_data, inc_s = _run_engine(res, "incremental")
            ref_data, ref_s = _run_engine(res, "reference")
            _assert_identical(name, ww_data, ref_data)
            _assert_identical(name, inc_data, ref_data)
            circuit = res.circuit
            prev = records.get(name)
            if prev is not None and prev["total_s"] <= ww_s:
                # Keep the best round per circuit (standard noise damping).
                prev["incremental_total_s"] = min(
                    prev["incremental_total_s"], round(inc_s, 4))
                prev["reference_total_s"] = min(prev["reference_total_s"],
                                                round(ref_s, 4))
                continue
            records[name] = {
                "gates": len(circuit.gates),
                "ffs": sum(1 for g in circuit.gates
                           if g.kind == GateKind.DFF),
                "faults": len(res.data.faults),
                "patterns": len(res.test_set),
                "stages": timer.as_dict(),
                "total_s": round(ww_s, 4),
                "incremental_total_s": round(inc_s, 4),
                "reference_total_s": round(ref_s, 4),
            }
            if prev is not None:
                records[name]["incremental_total_s"] = min(
                    prev["incremental_total_s"],
                    records[name]["incremental_total_s"])
                records[name]["reference_total_s"] = min(
                    prev["reference_total_s"],
                    records[name]["reference_total_s"])
        return records

    benchmark.pedantic(run_all, rounds=2, iterations=1)

    ww_total = sum(r["total_s"] for r in records.values())
    inc_total = sum(r["incremental_total_s"] for r in records.values())
    ref_total = sum(r["reference_total_s"] for r in records.values())
    # The batched engine must clearly beat both retained engines; the
    # stronger targets are tracked against the persisted baselines.
    assert ww_total < inc_total < ref_total, (ww_total, inc_total, ref_total)

    seed_baseline, incremental_baseline = _carried_baselines()

    payload = {
        "profile": _PROFILE,
        "engine": "wordwave",
        "circuits": records,
        "totals": {
            "wordwave_s": round(ww_total, 4),
            "incremental_s": round(inc_total, 4),
            "reference_s": round(ref_total, 4),
            "speedup_vs_incremental": round(inc_total / ww_total, 2),
            "speedup_vs_reference": round(ref_total / ww_total, 2),
        },
        "seed_baseline": seed_baseline,
        "incremental_baseline": incremental_baseline,
    }
    if (_PROFILE == incremental_baseline.get("profile")
            and incremental_baseline.get("total_s")):
        payload["totals"]["speedup_vs_committed_incremental"] = round(
            incremental_baseline["total_s"] / ww_total, 2)
    if (_PROFILE == seed_baseline.get("profile")
            and seed_baseline.get("total_s")):
        payload["totals"]["speedup_vs_seed"] = round(
            seed_baseline["total_s"] / ww_total, 2)
    BENCH_DETECTION_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"{'circuit':>10} {'gates':>6} {'faults':>7} {'patterns':>8} "
             f"{'wave [s]':>8} {'inc [s]':>8} {'ref [s]':>8}"]
    for name, r in records.items():
        lines.append(f"{name:>10} {r['gates']:>6} {r['faults']:>7} "
                     f"{r['patterns']:>8} {r['total_s']:>8.3f} "
                     f"{r['incremental_total_s']:>8.3f} "
                     f"{r['reference_total_s']:>8.3f}")
    lines.append(f"{'total':>10} {'':>6} {'':>7} {'':>8} "
                 f"{ww_total:>8.3f} {inc_total:>8.3f} {ref_total:>8.3f}")
    text = "\n".join(lines)
    write_artifact(results_dir, "bench_detection.txt", text)
    print("\n" + text)


def _large_workload():
    """s38417-scale synthetic circuit plus a sampled detection workload."""
    from repro.atpg.patterns import random_test_set
    from repro.circuits.generators import CircuitProfile, generate_circuit
    from repro.faults.universe import small_delay_fault_universe
    from repro.monitors.insertion import MonitorConfigSet, insert_monitors
    from repro.timing.clock import ClockSpec
    from repro.timing.sta import run_sta

    cfg = FlowConfig()
    profile = CircuitProfile(name="synth38k", n_gates=22000, n_ffs=1500,
                             n_inputs=28, n_outputs=16, depth=24,
                             seed=_LARGE_SEED)
    circuit = generate_circuit(profile)
    sta = run_sta(circuit)
    clock = ClockSpec(sta.clock_period, cfg.fast_ratio)
    configs = MonitorConfigSet(tuple(
        f * clock.t_nom for f in sorted(cfg.monitor_delay_fractions)))
    placement = insert_monitors(circuit, sta, configs,
                                fraction=cfg.monitor_fraction)
    universe = small_delay_fault_universe(circuit)
    faults = random.Random(_LARGE_SEED).sample(universe, _LARGE_FAULTS)
    patterns = random_test_set(circuit, _LARGE_PATTERNS, seed=_LARGE_SEED)
    kwargs = dict(horizon=clock.t_nom,
                  monitored_gates=placement.monitored_gates,
                  inertial=cfg.inertial_ps)
    return circuit, faults, patterns, kwargs


def test_detection_large_circuit_benchmark(benchmark, results_dir):
    """The fleet-scale profile: tractable only for the batched engine.

    ``wordwave`` and ``incremental`` run the full sampled workload; the
    reference engine is measured on a thin fault slice (with a parity
    check against wordwave on that slice) and extrapolated linearly —
    running it in full would take minutes.
    """
    circuit, faults, patterns, kwargs = _large_workload()

    def _run(engine, fault_list):
        t0 = time.perf_counter()
        data = compute_detection_data(circuit, fault_list, patterns,
                                      engine=engine, **kwargs)
        return data, time.perf_counter() - t0

    measured: dict[str, float] = {}

    def run_all():
        ww_data, ww_s = _run("wordwave", faults)
        inc_data, inc_s = _run("incremental", faults)
        _assert_identical("synth38k", ww_data, inc_data)
        measured["wordwave_s"] = min(ww_s, measured.get("wordwave_s", ww_s))
        measured["incremental_s"] = min(
            inc_s, measured.get("incremental_s", inc_s))
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Thin-slice reference run: parity at scale + extrapolated wall clock.
    ref_slice = faults[:_LARGE_REFERENCE_SLICE]
    ww_slice_data, _ = _run("wordwave", ref_slice)
    ref_data, ref_slice_s = _run("reference", ref_slice)
    _assert_identical("synth38k-slice", ww_slice_data, ref_data)
    ref_est = ref_slice_s * (len(faults) / len(ref_slice))

    ww_s = measured["wordwave_s"]
    inc_s = measured["incremental_s"]
    assert inc_s >= 10.0 * ww_s, (
        f"large-circuit profile no longer shows the batched engine >=10x "
        f"over incremental: wordwave {ww_s:.2f}s, incremental {inc_s:.2f}s")

    entry = {
        "name": "synth38k",
        "gates": len(circuit.gates),
        "ffs": sum(1 for g in circuit.gates if g.kind == GateKind.DFF),
        "faults": len(faults),
        "patterns": len(patterns),
        "seed": _LARGE_SEED,
        "wordwave_s": round(ww_s, 3),
        "incremental_s": round(inc_s, 3),
        "reference_est_s": round(ref_est, 1),
        "reference_slice_faults": len(ref_slice),
        "speedup_vs_incremental": round(inc_s / ww_s, 2),
    }
    if BENCH_DETECTION_FILE.exists():
        payload = json.loads(BENCH_DETECTION_FILE.read_text())
        payload["large_circuit"] = entry
        BENCH_DETECTION_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    text = "\n".join(f"{k:>22}: {v}" for k, v in entry.items())
    write_artifact(results_dir, "bench_detection_large.txt", text)
    print("\n" + text)
