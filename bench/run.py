"""Run the benchmark: one fresh process per workload, one at a time.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out DIR]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs in turn.
Each run prints its metrics as ``workload metric value unit`` lines,
writes ``DIR/<workload>/seed<N>/results.json`` (``trace-results.json``
and ``trace.jsonl`` for a traced run) and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An untraced run reports the ``end_to_end`` metrics, a traced run the
``per_layer`` ones plus the tracing overhead against the untraced run of
the same workload and seed, when ``DIR`` holds one.  The program is
imported from ``src/`` next to this directory; without it the script
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: A workload process that runs this much longer than ``--seconds`` is
#: killed (the run then fails): set-up, start-up and the overrun past the
#: deadline take well under it.  The first run in a checkout compiles
#: bytecode, nothing more.
CHILD_SLACK_S = 150.0


def _git(*args: str) -> str | None:
    # Outside a git checkout, git must not go looking above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def stamp(load_at_start: tuple[float, float, float]) -> dict:
    """Where and on what this run was measured."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "host": platform.node(),
        "cpus": os.cpu_count(),
        "loadavg_start": list(load_at_start),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: Path, spec: dict, host: dict) -> dict:
    """One workload in a fresh process; returns its results document."""
    run_dir = out / name / f"seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    result_file = run_dir / ("trace-results.json" if trace
                             else "results.json")
    child_file = run_dir / ("trace-child.json" if trace else "child.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["REPRO_FLOW_CACHE"] = "0"
    # Load comes from one process with at most nproc threads: the
    # service's two workers, not a BLAS pool on top of them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", str(run_dir / ("trace-work" if trace else "work")),
           "--result", str(child_file)]
    done = subprocess.run(cmd, cwd=ROOT, env=env,
                          timeout=seconds + CHILD_SLACK_S, stdout=sys.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload {name} exited with {done.returncode}")
    child = json.loads(child_file.read_text())
    child_file.unlink()
    doc = results_document(name, child, spec, host, run_dir / "results.json")
    result_file.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def results_document(name: str, child: dict, spec: dict, host: dict,
                     untraced_file: Path) -> dict:
    """The ``results.json`` document of one workload run.

    ``metrics`` holds what the final line reports: every ``end_to_end``
    metric of ``spec`` for an untraced run, every ``per_layer`` metric
    (0 for a layer the workload does not exercise) for a traced one.  A
    traced document also keeps the traced run's own ``end_to_end``
    values, which ``tracing_overhead`` compares with the untraced run.
    """
    trace = child["trace"]
    if trace:
        metrics = {m["name"]: {"value": child["layers"].get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        missing = [k for k in names if k not in child["metrics"]]
        if missing:
            raise RuntimeError(f"workload {name} did not report {missing}")
        metrics = {k: child["metrics"][k] for k in names}
    extras = child["extras"]
    doc = {
        "stamp": {**host, "workload": name, "seed": child["seed"],
                  "seconds": child["seconds"], "trace": trace,
                  "passes": extras.get("passes", extras.get("rounds")),
                  "samples": child["samples"],
                  "setup_repeats": len(child["setup_s_all"])},
        "correct": child["failed"] == 0 and child["attempted"] > 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "errors": child["errors"],
        "metrics": metrics,
        "setup_s_all": child["setup_s_all"],
        "groups": child["groups"],
        "host_speed": child["host_speed"],
        "extras": extras,
    }
    if trace:
        doc["end_to_end"] = child["metrics"]
        doc["tracing_overhead"] = tracing_overhead(child, untraced_file)
    return doc


def tracing_overhead(traced: dict, untraced_file: Path) -> dict | None:
    """Traced minus untraced ``latency_p50_ms`` of the same seed."""
    if not untraced_file.exists():
        return None
    untraced = json.loads(untraced_file.read_text())
    return {"latency_p50_ms": traced["metrics"]["latency_p50_ms"]["value"]
            - untraced["metrics"]["latency_p50_ms"]["value"]}


def report(doc: dict) -> None:
    name = doc["stamp"]["workload"]
    for metric, m in doc["metrics"].items():
        print(f"{name} {metric} {m['value']} {m['unit']}")
    if doc["stamp"]["trace"]:
        overhead = doc["tracing_overhead"]
        if overhead is None:
            print(f"{name} tracing_overhead n/a (no untraced run of this "
                  f"seed in the output directory)")
        for metric, value in (overhead or {}).items():
            print(f"{name} tracing_overhead.{metric} {value} ms")
    status = "ok" if doc["correct"] else "FAILED"
    print(f"{name} checks {status} ({doc['failed']} of {doc['attempted']} "
          f"operations failed)")
    for error in doc["errors"]:
        print(error.rstrip(), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({ROOT / 'src' / 'repro'}) "
              f"are missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads,
                    help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    args = ap.parse_args(argv)
    host = stamp(load_at_start)

    docs = []
    for name in [args.workload] if args.workload else workloads:
        try:
            doc = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), args.out.resolve(), spec,
                               host)
        except (RuntimeError, subprocess.TimeoutExpired, OSError,
                ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(doc)
        docs.append(doc)

    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['stamp']['workload']}.{k}": v
                   for d in docs for k, v in d["metrics"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
