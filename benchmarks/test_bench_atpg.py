"""Benchmark + persistent perf baseline of the transition-fault ATPG.

Re-runs the complete ATPG pipeline (random phase, PODEM top-up, reverse
compaction) of every suite circuit with both grading engines — the
packed fault×pattern ``"matrix"`` engine and the seed-equivalent big-int
``"reference"`` pipeline — checks they produce identical test sets and
fault ledgers, and persists the machine-readable timing trajectory to
``BENCH_atpg.json`` at the repository root (see EXPERIMENTS.md).  The perf
smoke test in ``tests/test_perf_smoke.py`` guards against regressions
relative to that committed baseline.
"""

from __future__ import annotations

import json
import time

from conftest import _PROFILE, BENCH_ATPG_FILE, write_artifact

from repro.core.engines import ENGINES
from repro.netlist.circuit import GateKind
from repro.utils.profiling import StageTimer

#: End-to-end ATPG wall clock of the seed pipeline (big-int grading, heap
#: PODEM, quadratic phase-2 re-grading), measured from a worktree at the
#: pre-rework commit with the same quick-profile workload and machine as
#: below.  Kept verbatim (and carried over from any existing baseline
#: file) so the before/after trajectory survives regeneration.
_SEED_BASELINE = {
    "commit": "5409244",
    "profile": "quick",
    "engine": "seed big-int pipeline (pre-matrix)",
    "atpg_seconds": {
        "s9234": 0.74,
        "s13207": 1.57,
        "s35932": 0.40,
        "p89k": 33.49,
    },
    "total_s": 36.20,
}

_ATPG_SEED = 7  # must match SuiteRunConfig.atpg_seed / FlowConfig.atpg_seed


def _run_engine(circuit, engine, timer=None):
    fn = ENGINES.resolve("atpg", engine).fn
    t0 = time.perf_counter()
    atpg = fn(circuit, seed=_ATPG_SEED, timer=timer)
    return atpg, time.perf_counter() - t0


def _assert_identical(name, mat, ref):
    """Identical ATPG outcome across engines (the hard requirement)."""
    assert [(p.launch, p.capture) for p in mat.test_set] == \
           [(p.launch, p.capture) for p in ref.test_set], name
    assert mat.detected == ref.detected, name
    assert mat.untestable == ref.untestable, name
    assert mat.aborted == ref.aborted, name


def test_atpg_engine_benchmark(benchmark, suite_results, results_dir):
    records: dict[str, dict] = {}

    def run_all():
        for name, res in suite_results.items():
            circuit = res.circuit
            timer = StageTimer()
            mat, mat_s = _run_engine(circuit, "matrix", timer=timer)
            ref, ref_s = _run_engine(circuit, "reference")
            _assert_identical(name, mat, ref)
            prev = records.get(name)
            if prev is not None and prev["total_s"] <= mat_s:
                # Keep the best round per circuit (standard noise damping).
                prev["reference_total_s"] = min(prev["reference_total_s"],
                                               round(ref_s, 4))
                continue
            records[name] = {
                "gates": len(circuit.gates),
                "ffs": sum(1 for g in circuit.gates
                           if g.kind == GateKind.DFF),
                "patterns": len(mat.test_set),
                "detected": len(mat.detected),
                "coverage": round(mat.coverage, 4),
                "stages": timer.as_dict(),
                "total_s": round(mat_s, 4),
                "reference_total_s": round(ref_s, 4),
            }
            if prev is not None:
                records[name]["reference_total_s"] = min(
                    prev["reference_total_s"],
                    records[name]["reference_total_s"])
        return records

    benchmark.pedantic(run_all, rounds=2, iterations=1)

    mat_total = sum(r["total_s"] for r in records.values())
    ref_total = sum(r["reference_total_s"] for r in records.values())
    # Both engines share the optimized PODEM, so end-to-end they are close
    # (the matrix win concentrates in grading + phase-2 structure); the
    # matrix path must never fall meaningfully behind the reference.
    assert mat_total <= ref_total * 1.25, (mat_total, ref_total)

    seed_baseline = _SEED_BASELINE
    if BENCH_ATPG_FILE.exists():
        previous = json.loads(BENCH_ATPG_FILE.read_text())
        seed_baseline = previous.get("seed_baseline", seed_baseline)

    # The hard acceptance gate: >=3x end-to-end vs the frozen seed pipeline
    # (same quick-profile workload, recorded pre-rework).
    if _PROFILE == seed_baseline.get("profile"):
        assert mat_total * 3.0 <= seed_baseline["total_s"], (
            mat_total, seed_baseline["total_s"])

    payload = {
        "profile": _PROFILE,
        "engine": "matrix",
        "circuits": records,
        "totals": {
            "matrix_s": round(mat_total, 4),
            "reference_s": round(ref_total, 4),
            "speedup_vs_reference": round(ref_total / mat_total, 2),
        },
        "seed_baseline": seed_baseline,
    }
    if (_PROFILE == seed_baseline.get("profile")
            and seed_baseline.get("total_s")):
        payload["totals"]["speedup_vs_seed"] = round(
            seed_baseline["total_s"] / mat_total, 2)
    BENCH_ATPG_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"{'circuit':>10} {'gates':>6} {'patterns':>8} {'cov':>7} "
             f"{'matrix [s]':>10} {'ref [s]':>8}"]
    for name, r in records.items():
        lines.append(f"{name:>10} {r['gates']:>6} {r['patterns']:>8} "
                     f"{r['coverage']:>7.4f} {r['total_s']:>10.3f} "
                     f"{r['reference_total_s']:>8.3f}")
    lines.append(f"{'total':>10} {'':>6} {'':>8} {'':>7} "
                 f"{mat_total:>10.3f} {ref_total:>8.3f}")
    text = "\n".join(lines)
    write_artifact(results_dir, "bench_atpg.txt", text)
    print("\n" + text)
