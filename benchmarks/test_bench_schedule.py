"""Benchmark + persistent perf baseline of the schedule optimizer.

Re-runs the schedule-optimization stage (conv / heur / prop plus two
relaxed-coverage schedules) of every suite circuit with both pipelines —
the bitset pipeline (vectorized discretization, set-cover presolve,
memoized candidates) and the retained seed reference
(:mod:`repro.scheduling.reference`) — checks they select identical period
sets, fault assignments and schedule cardinalities, and persists the
machine-readable timing trajectory to ``BENCH_schedule.json`` at the
repository root (see EXPERIMENTS.md).  The perf smoke test in
``tests/test_perf_smoke.py`` guards against regressions relative to that
committed baseline.
"""

from __future__ import annotations

import json
import math
import time

from conftest import _PROFILE, BENCH_SCHEDULE_FILE, write_artifact

from repro.scheduling.baselines import conventional_targets
from repro.scheduling.reference import optimize_schedule_reference
from repro.scheduling.schedule import optimize_schedule
from repro.utils.profiling import StageTimer

#: Schedule-stage wall clock of the seed (frozenset) scheduler, measured
#: from the retained reference pipeline with the same quick-profile
#: workload and machine as below at the PR-1 commit.  Kept verbatim (and
#: carried over from any existing baseline file) so the before/after
#: trajectory survives regeneration.
_SEED_BASELINE = {
    "commit": "2cbbb7d",
    "profile": "quick",
    "pipeline": "seed frozenset scheduler (pre-bitset)",
    "schedule_seconds": {
        "s9234": 0.145,
        "s13207": 0.503,
        "s35932": 0.365,
        "p89k": 0.556,
    },
    "total_s": 1.569,
}

#: Relaxed-coverage targets included in the benchmark workload (kept small
#: so the quick profile stays CI-sized).
_COVERAGES = (0.95, 0.90)


def _workload(res):
    """The schedule calls one flow run performs, as an explicit list."""
    cls_ = res.classification
    jobs = [
        ("conv", conventional_targets(cls_), None, "ilp", 1.0),
        ("heur", cls_.target, res.configs, "greedy", 1.0),
        ("prop", cls_.target, res.configs, "ilp", 1.0),
    ]
    for cov in _COVERAGES:
        jobs.append((f"cov{cov:.2f}", cls_.target, res.configs, "ilp", cov))
    return jobs


def _clear_schedule_caches(data):
    """Drop the memoized ranges/candidates so every round measures a cold
    bitset pipeline (the reference never populates these)."""
    data._sched_cache.clear()
    data._det_range.clear()


def _run_bitset(res, timer=None):
    _clear_schedule_caches(res.data)
    out = {}
    t0 = time.perf_counter()
    for label, targets, configs, solver, cov in _workload(res):
        out[label] = optimize_schedule(res.data, targets, res.clock, configs,
                                       solver=solver, coverage=cov,
                                       timer=timer)
    return out, time.perf_counter() - t0


def _run_reference(res):
    out = {}
    t0 = time.perf_counter()
    for label, targets, configs, solver, cov in _workload(res):
        out[label] = optimize_schedule_reference(
            res.data, targets, res.clock, configs, solver=solver,
            coverage=cov)
    return out, time.perf_counter() - t0


def _assert_equivalent(name, new, ref):
    """Solution-quality invariants across pipelines.

    The greedy pipeline is deterministic, so its schedules must be
    identical.  The exact ILP can return any minimum-cardinality cover —
    presolve changes which optimum HiGHS lands on — so for ILP schedules
    the invariants are: identical candidate sets, identical step-1
    cardinality (both solvers are exact), identical covered fault sets at
    full coverage, and equally-sized covered sets under relaxed coverage.
    Exact period/entry equality on tie-free small circuits is pinned by
    tests/test_schedule_golden.py.
    """
    for label, r in ref.items():
        n = new[label]
        assert n.num_candidates == r.num_candidates, (name, label)
        assert n.num_frequencies == r.num_frequencies, (name, label)
        if label == "heur":
            assert n.periods == r.periods, (name, label)
            assert n.entries == r.entries, (name, label)
            assert n.per_period_faults == r.per_period_faults, (name, label)
        elif label in ("conv", "prop"):
            assert n.covered == r.covered, (name, label)
        else:
            # Relaxed coverage: any minimum-frequency selection reaching
            # the required count is optimal; the attained coverage beyond
            # the requirement may legitimately differ between optima.
            # prop (full coverage, same targets/configs) covers the whole
            # schedulable universe, so it yields the reference count.
            cov = float(label.removeprefix("cov"))
            required = math.ceil(cov * len(ref["prop"].covered) - 1e-9)
            assert len(n.covered) >= required, (name, label)
            assert len(r.covered) >= required, (name, label)


def test_schedule_pipeline_benchmark(benchmark, suite_results, results_dir):
    records: dict[str, dict] = {}

    def run_all():
        for name, res in suite_results.items():
            timer = StageTimer()
            new_scheds, new_s = _run_bitset(res, timer=timer)
            ref_scheds, ref_s = _run_reference(res)
            _assert_equivalent(name, new_scheds, ref_scheds)
            prev = records.get(name)
            if prev is not None and prev["total_s"] <= new_s:
                # Keep the best round per circuit (standard noise damping).
                prev["reference_total_s"] = min(prev["reference_total_s"],
                                                round(ref_s, 4))
                continue
            records[name] = {
                "gates": len(res.circuit.gates),
                "faults": len(res.data.faults),
                "targets": len(res.classification.target),
                "candidates": new_scheds["prop"].num_candidates,
                "schedules": len(_workload(res)),
                "stages": timer.as_dict(),
                "total_s": round(new_s, 4),
                "reference_total_s": round(ref_s, 4),
            }
            if prev is not None:
                records[name]["reference_total_s"] = min(
                    prev["reference_total_s"],
                    records[name]["reference_total_s"])
        return records

    benchmark.pedantic(run_all, rounds=2, iterations=1)

    new_total = sum(r["total_s"] for r in records.values())
    ref_total = sum(r["reference_total_s"] for r in records.values())
    # The bitset pipeline must clearly beat the in-repo reference; the
    # stronger >=3x target is tracked against the persisted seed baseline.
    assert new_total < ref_total, (new_total, ref_total)

    seed_baseline = _SEED_BASELINE
    if BENCH_SCHEDULE_FILE.exists():
        previous = json.loads(BENCH_SCHEDULE_FILE.read_text())
        seed_baseline = previous.get("seed_baseline", seed_baseline)

    payload = {
        "profile": _PROFILE,
        "pipeline": "bitset",
        "circuits": records,
        "totals": {
            "bitset_s": round(new_total, 4),
            "reference_s": round(ref_total, 4),
            "speedup_vs_reference": round(ref_total / new_total, 2),
        },
        "seed_baseline": seed_baseline,
    }
    if (_PROFILE == seed_baseline.get("profile")
            and seed_baseline.get("total_s")):
        payload["totals"]["speedup_vs_seed"] = round(
            seed_baseline["total_s"] / new_total, 2)
    BENCH_SCHEDULE_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"{'circuit':>10} {'faults':>7} {'cands':>6} "
             f"{'new [s]':>8} {'ref [s]':>8}"]
    for name, r in records.items():
        lines.append(f"{name:>10} {r['faults']:>7} {r['candidates']:>6} "
                     f"{r['total_s']:>8.3f} {r['reference_total_s']:>8.3f}")
    lines.append(f"{'total':>10} {'':>7} {'':>6} "
                 f"{new_total:>8.3f} {ref_total:>8.3f}")
    text = "\n".join(lines)
    write_artifact(results_dir, "bench_schedule.txt", text)
    print("\n" + text)
