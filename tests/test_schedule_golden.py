"""Golden pin of the schedules on the small circuits.

``tests/data/schedule_golden_small.json`` records, on s27, c17 and gen60,
what the two-step scheduler produces for every workload the benchmark
times — conventional targets, greedy, proposed ILP and the two relaxed
coverage targets — plus the discretized candidate sets.  The file was
generated from the seed frozenset scheduler before it was retired; the
bitset pipeline reproduces it exactly.

* Candidates (with and without dominance pruning): count and a digest of
  every (time, segment, fault set) row.
* Full coverage: candidate count, selected periods, covered fault set,
  per-period fault assignment and entry count.  The exact (pattern,
  config) picks may differ only where the step-2 ILP has
  equal-cardinality ties, so the entries are re-validated as covers of
  their period's fault set instead of pinned; greedy is deterministic,
  so its entries are pinned too.
* Partial coverage: candidate and period counts only — the aggregated ILP
  may land on any equal-cardinality optimum.  The period count must also
  equal the step-1 optimum that :func:`branch_and_bound_cover` finds.

``tests/test_schedule_golden_scale.py`` pins the same pipeline at suite
scale; ``test_schedule_optimality.py`` and ``test_schedule_invariants.py``
check it against the paper's definitions.

Regenerate (only for a deliberate, reviewed behaviour change) with::

    PYTHONPATH=src python tests/test_schedule_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.circuits.library import embedded_circuit
from repro.core import FlowConfig, HdfTestFlow
from repro.scheduling.baselines import conventional_targets
from repro.scheduling.discretize import discretize_observation_times
from repro.scheduling.schedule import (
    optimize_schedule,
    pattern_config_rows,
    target_ranges,
)
from repro.scheduling.setcover import CoverProblem, branch_and_bound_cover
from repro.utils.bitset import matrix_bits

GOLDEN_FILE = (Path(__file__).resolve().parent / "data"
               / "schedule_golden_small.json")

#: Fixture name → circuit builder; every flow runs with ``atpg_seed=3``.
CIRCUITS = {
    "flow_result_s27": lambda: embedded_circuit("s27"),
    "flow_result_c17": lambda: embedded_circuit("c17"),
    "flow_result_small": lambda: generate_circuit(CircuitProfile(
        name="gen60", n_gates=60, n_ffs=12, n_inputs=8, n_outputs=4,
        depth=7, seed=5, endpoint_side_gates=1,
        short_path_ppo_fraction=0.3)),
}
GOLDEN = tuple(CIRCUITS)


@pytest.fixture(scope="session")
def flow_result_c17():
    return HdfTestFlow(embedded_circuit("c17"), FlowConfig(atpg_seed=3)).run()


def _workload(res):
    cls = res.classification
    return [
        ("conv", conventional_targets(cls), None, "ilp", 1.0),
        ("heur", cls.target, res.configs, "greedy", 1.0),
        ("prop", cls.target, res.configs, "ilp", 1.0),
        ("cov95", cls.target, res.configs, "ilp", 0.95),
        ("cov90", cls.target, res.configs, "ilp", 0.90),
    ]


def _clear_caches(data):
    data._invalidate()


def _period_rows(data, fault_set, period, configs) -> dict:
    """Step-2 rows ``Φ_(m,n)`` at one period as ``{(m, n): faults}``."""
    keys, matrix, elements = pattern_config_rows(
        data.table, fault_set, period, configs)
    return {k: {elements[b] for b in bits}
            for k, bits in zip(keys, matrix_bits(matrix))}


def _t(x: float) -> str:
    # The pipelines agree to 1e-9 ps, not to the last bit: six decimals.
    return f"{x:.6f}"


def candidates_fingerprint(cands) -> dict:
    h = hashlib.sha256()
    for c in cands:
        h.update(f"{_t(c.time)}|{_t(c.segment.lo)}|{_t(c.segment.hi)}|"
                 f"{sorted(c.faults)}\n".encode())
    return {"count": len(cands), "sha256": h.hexdigest()}


def schedule_fingerprint(sched, solver: str, coverage: float) -> dict:
    out = {"num_candidates": sched.num_candidates,
           "num_periods": len(sched.periods)}
    if coverage >= 1.0:
        out.update(
            periods=[_t(p) for p in sched.periods],
            covered=sorted(sched.covered),
            per_period_faults=[[_t(p), sorted(fs)] for p, fs in
                               sorted(sched.per_period_faults.items())],
            num_entries=len(sched.entries))
    if solver == "greedy":
        out["entries"] = [[_t(e.period), e.pattern, e.config]
                          for e in sched.entries]
    return out


def circuit_fingerprint(res) -> dict:
    _clear_caches(res.data)
    ranges = target_ranges(res.data, res.classification.target, res.clock,
                           res.configs)
    out = {"candidates": {
        str(prune): candidates_fingerprint(discretize_observation_times(
            ranges, res.clock.t_min, res.clock.t_nom,
            prune_dominated=prune))
        for prune in (False, True)}}
    for label, targets, configs, solver, cov in _workload(res):
        sched = optimize_schedule(res.data, targets, res.clock, configs,
                                  solver=solver, coverage=cov)
        out[label] = schedule_fingerprint(sched, solver, cov)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_every_case(golden):
    assert set(golden["circuits"]) == set(CIRCUITS)


@pytest.mark.parametrize("fixture", GOLDEN)
def test_candidates_identical(fixture, request, golden):
    res = request.getfixturevalue(fixture)
    _clear_caches(res.data)
    ranges = target_ranges(res.data, res.classification.target, res.clock,
                           res.configs)
    want = golden["circuits"][fixture]["candidates"]
    for prune in (False, True):
        cands = discretize_observation_times(
            ranges, res.clock.t_min, res.clock.t_nom, prune_dominated=prune)
        assert candidates_fingerprint(cands) == want[str(prune)], prune


def _step1_optimum(res, targets, configs, coverage) -> int:
    ranges = target_ranges(res.data, targets, res.clock, configs)
    cands = discretize_observation_times(ranges, res.clock.t_min,
                                         res.clock.t_nom)
    problem = CoverProblem(subsets=[c.faults for c in cands])
    return len(branch_and_bound_cover(problem, coverage=coverage))


@pytest.mark.parametrize("fixture", GOLDEN)
def test_schedules_equivalent(fixture, request, golden):
    res = request.getfixturevalue(fixture)
    _clear_caches(res.data)
    want = golden["circuits"][fixture]
    schedulable = None        # full-coverage covered set == coverable universe
    for label, targets, configs, solver, cov in _workload(res):
        new = optimize_schedule(res.data, targets, res.clock, configs,
                                solver=solver, coverage=cov)
        assert schedule_fingerprint(new, solver, cov) == want[label], label
        if label == "prop":
            schedulable = new.covered
        if cov < 1.0:
            # Partial coverage: any equal-cardinality optimum will do, as
            # long as it reaches the target count with the fewest periods.
            need = math.ceil(cov * len(schedulable) - 1e-9)
            assert len(new.covered) >= need, label
            assert len(new.periods) == _step1_optimum(
                res, targets, configs, cov), label
        # The step-2 picks must still cover every fault assigned to their
        # period, whichever optimum the ILP tie-breaking landed on.
        for period, fault_set in new.per_period_faults.items():
            combos = _period_rows(res.data, fault_set, period, configs)
            covered = set()
            for e in new.entries:
                if e.period == period:
                    covered |= combos[(e.pattern, e.config)]
            assert covered >= fault_set, (label, period)


if __name__ == "__main__":  # pragma: no cover
    payload = {"circuits": {
        name: circuit_fingerprint(HdfTestFlow(
            build(), FlowConfig(atpg_seed=3)).run(with_schedules=False))
        for name, build in CIRCUITS.items()}}
    text = json.dumps(payload, indent=1)
    # One line per innermost list keeps the file small and diffs readable.
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(text + "\n")
    print(f"wrote {GOLDEN_FILE}")
