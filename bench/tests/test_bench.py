"""Tests of the benchmark harness itself (run: python -m pytest bench/tests -q)."""

from __future__ import annotations

import itertools
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import spans
import workloads
from repro.atpg.patterns import random_test_set
from repro.circuits.library import embedded_circuit, suite_circuit
from repro.core.config import FlowConfig
from repro.core.flow import HdfTestFlow
from repro.core.pipeline import DEFAULT_PIPELINE
from repro.netlist.bench import parse_bench, write_bench

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


# ----------------------------------------------------------------------
# Each workload's code path on tiny inputs
# ----------------------------------------------------------------------
def _embedded():
    return [(name, embedded_circuit(name), 8, 1) for name in ("s27", "c17")]


class TinyFlowCold(workloads.FlowCold):
    def circuits(self):
        return _embedded()


class TinyAnalysis(workloads.AnalysisLarge):
    patterns = 8

    def circuits(self):
        return _embedded()


class TinyResched(workloads.ReschedAlerts):
    # s27 and c17 carry no target faults, so no alert would fire on them.
    scenarios = workloads.RESCHED_SCENARIOS[:1]

    def circuits(self):
        return [("s9234", suite_circuit("s9234", scale=0.3), 1)]


class TinyService(workloads.ServiceMix):
    gates = (24, 32)
    warm_seeds = (7,)
    fresh_gates = (24, 32)
    rate = 10.0
    fresh_every = 3


TINY = [TinyFlowCold, TinyAnalysis, TinyResched, TinyService]


@pytest.fixture(autouse=True)
def short_setup(monkeypatch):
    """Tiny set-ups take milliseconds; repeat them for 0.2 s, not 3 s."""
    monkeypatch.setattr(workloads, "SETUP_BUDGET_S", 0.2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.__name__)
def test_results_document_schema(workload, trace, tmp_path):
    child = workloads.measure(workload(), seed=3, seconds=0.3,
                              trace=bool(trace), workdir=tmp_path / "work")
    doc = run.results_document(workload.__name__, child, SPEC,
                               {"host": "test"}, tmp_path / "results.json")
    assert doc["correct"], doc["errors"]
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    assert set(doc["metrics"]) == (PER_LAYER if trace else END_TO_END)
    for m in doc["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["unit"]
    # The end-to-end values are stored once: as the metrics of an
    # untraced run, beside the per-layer metrics of a traced one.
    assert ("end_to_end" in doc) == bool(trace) and "layers" not in doc
    e2e = doc["end_to_end"] if trace else doc["metrics"]
    for metric in ("setup_s", "latency_p50_ms", "latency_p90_ms",
                   "peak_rss_mb"):
        assert e2e[metric]["value"] > 0
    # Reported times are the raw ones scaled to the reference probe time.
    speed = doc["host_speed"]
    assert speed["run_probes"] >= 1
    run_scale = speed["probe_ref_ms"] / speed["run_probe_ms"]
    for metric, key in (("latency_p50_ms", "p50_ms"),
                        ("latency_p90_ms", "p90_ms")):
        assert e2e[metric]["value"] == pytest.approx(run_scale * (
            statistics.geometric_mean(g[key] for g in doc["groups"].values())))
    assert e2e["setup_s"]["value"] == pytest.approx(
        statistics.median(doc["setup_s_all"])
        * speed["probe_ref_ms"] / speed["setup_probe_ms"])
    assert doc["stamp"]["samples"] == child["samples"] == sum(
        g["n"] for g in doc["groups"].values()) >= 1
    json.dumps(doc)
    assert not (tmp_path / "work").exists()
    assert (tmp_path / "trace.jsonl").exists() == bool(trace)


def test_flow_trace_layers_add_up(tmp_path):
    child = workloads.measure(TinyFlowCold(), seed=0, seconds=0.3,
                              trace=True, workdir=tmp_path / "work")
    layers = child["layers"]
    kernels = sum(layers.get(f"atpg.{k}_s", 0.0)
                  for k in ("podem", "random", "grade", "compact"))
    assert 0 < kernels <= layers["pipeline.atpg_s"]
    records = [json.loads(line) for line in
               (tmp_path / "trace.jsonl").read_text().splitlines()]
    passes = [s for s in records if s["name"] == "pass"]
    assert sum(s["attrs"]["complete"] for s in passes) == \
        child["extras"]["passes"]
    assert all(s["parent"] is None for s in passes)
    by_trace = {p["trace"] for p in passes}
    assert all(s["trace"] in by_trace for s in records)


# ----------------------------------------------------------------------
# Tracing arithmetic and the proxies
# ----------------------------------------------------------------------
def test_self_time_on_synthetic_trace():
    def span(i, parent, lo, hi, name="x"):
        return {"trace": "t", "span": i, "parent": parent, "name": name,
                "start": lo, "end": hi, "attrs": {}}

    trace = [span(1, None, 0.0, 10.0, "root"), span(2, 1, 1.0, 3.0),
             span(3, 1, 2.0, 5.0), span(4, 3, 3.0, 4.0), span(5, 1, 7.0, 8.0),
             span(6, 1, 9.5, 11.0)]
    own = spans.self_times(trace)
    # Children of the root cover [1, 5] and [7, 8] and [9.5, 10].
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    assert own[6] == pytest.approx(1.5)


@pytest.mark.parametrize("variant", ["atpg", "external", "coverage"])
def test_proxy_stage_keys_match_default_pipeline(variant):
    circuit = embedded_circuit("s27")
    flow = HdfTestFlow(circuit, FlowConfig(pattern_cap=4))
    kwargs = {}
    if variant == "external":
        kwargs["test_set"] = random_test_set(circuit, 4, seed=2)
    if variant == "coverage":
        kwargs["with_coverage_schedules"] = True
    ctx = flow.context(**kwargs)
    proxies = spans.proxy_pipeline(spans.Tracer())
    assert proxies.stages() == DEFAULT_PIPELINE.stages()
    assert proxies.stage_keys(ctx) == DEFAULT_PIPELINE.stage_keys(ctx)


def test_store_proxy_records_hits_and_misses():
    class Dict(dict):
        def load(self, key):
            return self.get(key)

        def store(self, key, obj):
            self[key] = obj

    tracer = spans.Tracer()
    store = spans.StoreProxy(Dict(), tracer)
    assert store.load("k") is None
    store.store("k", 1)
    assert store.load("k") == 1
    assert [(s["name"], s["attrs"].get("hit")) for s in tracer.spans] == [
        ("store.load", False), ("store.store", None), ("store.load", True)]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_relabel_keeps_the_work_and_changes_the_hash():
    text = write_bench(suite_circuit("s9234", scale=0.3))
    renamed = workloads.relabel(text, random.Random(5))
    assert renamed != text
    a = parse_bench(text, name="c")
    b = parse_bench(renamed, name="c")
    assert a.content_hash() != b.content_hash()
    ra = HdfTestFlow(a, FlowConfig(pattern_cap=6)).run()
    rb = HdfTestFlow(b, FlowConfig(pattern_cap=6)).run()
    assert ra.table1_row() == rb.table1_row()
    assert ra.table2_row() == rb.table2_row()
    assert workloads.relabel(text, None) == text


@pytest.mark.parametrize("seed", [0, 4])
def test_service_mix_keeps_one_fresh_request_in_ten(seed):
    from repro.core.spec import FlowJob

    mix = workloads.ServiceMix()
    warm = {FlowJob(circuit=f"svc{g}.bench", atpg_seed=s): (g, None)
            for g in mix.gates for s in mix.warm_seeds}
    inputs = {"seed": seed, "warm": warm,
              "paths": {g: f"svc{g}.bench" for g in mix.gates}}
    requests = list(itertools.islice(mix.requests(inputs), 100))
    at = [i for i, (_s, k, _g) in enumerate(requests) if k == "fresh"]
    assert at == list(range(at[0], 100, 10))
    fresh = [(spec, g) for spec, k, g in requests if k == "fresh"]
    assert [g for _s, g in fresh] == [60, 90] * 5
    assert len({spec.fingerprint() for spec, _g in fresh}) == 10
    replays = [spec for spec, k, _g in requests if k == "replay"]
    assert set(replays[:8]) == set(warm) and replays[8:16] == replays[:8]
    if seed == 0:
        assert [k for _s, k, _g in requests[:10]][-1] == "fresh"


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_verdicts():
    a = {s: 100.0 + s % 3 for s in range(10)}
    faster = {s: 80.0 + s % 3 for s in range(10)}
    slower = {s: 120.0 + s % 3 for s in range(10)}
    noisy = {s: 100.0 + 40 * (s % 2) for s in range(10)}
    assert compare.verdict(a, faster, 0.1, True)["verdict"] == "improved"
    assert compare.verdict(a, slower, 0.1, True)["verdict"] == "worse"
    assert compare.verdict(a, a, 0.1, True)["verdict"] == "within bound"
    assert compare.verdict(noisy, a, 0.1, True)["verdict"] == "unresolved"
    # Every run of B better than every run of A resolves a wide spread,
    # but claims no gain by itself.
    assert compare.verdict(noisy, faster, 0.1, True)["verdict"] == \
        "within bound"
    counts = {s: 50 for s in range(10)}
    fewer = {s: 49 for s in range(10)}
    assert compare.verdict(counts, fewer, 0, False)["verdict"] == "worse"


def test_compare_claims_no_gain_on_fewer_than_ten_pairs():
    a = {s: 100.0 + s % 3 for s in range(10)}
    faster = {s: 80.0 + s % 3 for s in range(10)}
    few = compare.verdict({s: a[s] for s in range(9)},
                          {s: faster[s] for s in range(9)}, 0.1, True)
    assert (few["pairs"], few["wins"]) == (9, 9)
    assert few["verdict"] == "within bound"
    # The same values on seeds that do not pair up.
    unpaired = compare.verdict(a, {s + 10: v for s, v in faster.items()},
                               0.1, True)
    assert unpaired["pairs"] == 0 and unpaired["verdict"] == "within bound"


def test_compare_reads_result_directories(tmp_path, capsys):
    for side, value in (("a", 100.0), ("b", 100.5)):
        for seed in range(3):
            doc = {"stamp": {"workload": "w", "seed": seed},
                   "metrics": {"latency_p50_ms": {"value": value + seed / 10,
                                                  "unit": "ms"}}}
            path = tmp_path / side / "w" / f"seed{seed}" / "results.json"
            path.parent.mkdir(parents=True)
            path.write_text(json.dumps(doc))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "within bound" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The command without the program
# ----------------------------------------------------------------------
def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flow-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
