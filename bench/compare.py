"""Compare two sets of benchmark runs, or report the spread of one set.

    python3 bench/compare.py A [B]

``A`` and ``B`` are output directories of ``bench/run.py`` (its
``--out``); every untraced ``results.json`` under them is one run.  With
one directory the script prints, per (workload, end-to-end metric), the
median, quartiles and the spread (quartile distance / median) next to
the metric's bound.  With two it also prints B's median change against
A and the wins of B over A on runs paired by seed, and a verdict:

* ``improved`` -- at least ten pairs, B wins at least nine tenths of
  them, and B's median is better than A's by more than A's quartile
  distance;
* ``unresolved`` -- otherwise, when A's spread exceeds the bound, unless
  every run of B reads better or every run reads worse than every run
  of A;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``within bound`` -- otherwise.

Bounds and directions are read from ``BENCHMARK.json``.  Quartiles are
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load_runs(directory: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over every untraced run."""
    runs: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(directory.rglob("results.json")):
        doc = json.loads(path.read_text())
        stamp = doc["stamp"]
        for metric, m in doc["metrics"].items():
            runs.setdefault((stamp["workload"], metric), {})[
                stamp["seed"]] = m["value"]
    return runs


def summary(values: list[float]) -> dict:
    """Median, quartiles and relative spread of a set of runs."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def verdict(a: dict[int, float], b: dict[int, float], bound: float,
            lower_better: bool) -> dict:
    """The choosing-metrics rule applied to one (workload, metric)."""
    sa, sb = summary(list(a.values())), summary(list(b.values()))
    sign = 1.0 if lower_better else -1.0
    change = (sign * (sb["median"] - sa["median"]) / abs(sa["median"])
              if sa["median"] else 0.0)          # > 0: B is worse
    pairs = sorted(set(a) & set(b))
    wins = sum(sign * (b[s] - a[s]) < 0 for s in pairs)
    all_better = max(sign * v for v in b.values()) < min(
        sign * v for v in a.values())
    all_worse = min(sign * v for v in b.values()) > max(
        sign * v for v in a.values())
    gap = abs(sb["median"] - sa["median"])
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) \
            and gap > sa["q3"] - sa["q1"] and change < 0:
        word = "improved"
    elif sa["spread"] > bound and not (all_better or all_worse):
        word = "unresolved"
    elif change > bound:
        word = "worse"
    else:
        word = "within bound"
    return {"a": sa, "b": sb, "change": change, "wins": wins,
            "pairs": len(pairs), "verdict": word}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path, nargs="?")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs_a = load_runs(args.a)
    if not runs_a:
        print(f"error: no results.json under {args.a}", file=sys.stderr)
        return 1
    runs_b = load_runs(args.b) if args.b else None

    if runs_b is None:
        print(f"{'workload':<16}{'metric':<16}{'n':>3}{'median':>14}"
              f"{'q1':>14}{'q3':>14}{'spread':>8}{'bound':>7}")
    else:
        print(f"{'workload':<16}{'metric':<16}{'A: median [q1, q3]':>34}"
              f"{'B: median [q1, q3]':>34}{'change':>9}{'wins':>7}"
              f"{'bound':>7}  verdict")
    worse = 0
    for (workload, metric), a in sorted(runs_a.items()):
        if metric not in metrics:
            continue
        bound = metrics[metric]["bound"]
        if runs_b is None:
            s = summary(list(a.values()))
            print(f"{workload:<16}{metric:<16}{s['n']:>3}{s['median']:>14.6g}"
                  f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['spread']:>8.3f}"
                  f"{bound:>7.3f}")
            continue
        b = runs_b.get((workload, metric))
        if not b:
            print(f"{workload:<16}{metric:<16}  (no runs in B)")
            continue
        v = verdict(a, b, bound, metrics[metric]["better"] == "lower")
        worse += v["verdict"] == "worse"
        sides = "".join(f"{s['median']:>12.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                        .rjust(34) for s in (v["a"], v["b"]))
        print(f"{workload:<16}{metric:<16}{sides}"
              f"{100 * v['change']:>+8.1f}%"
              f"{v['wins']:>4}/{v['pairs']:<2}{bound:>7.3f}  {v['verdict']}")
    return 0 if runs_b is None or not worse else 3


if __name__ == "__main__":
    sys.exit(main())
