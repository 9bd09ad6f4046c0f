"""Golden pin of the schedules and step-1 presolve at scale.

``tests/data/schedule_golden.json`` records what the scheduler produced
on two suite circuits at scale 1.0 with a 64-pattern seeded random test
set (ATPG bypassed, as in the ``analysis-large`` benchmark).  At that size
step 1 of the proposed schedule leaves a real ILP component behind, so
the pin reaches presolve, the component split and the HiGHS model.  Per
schedule (conv/heur/prop) it holds:

* the selected periods, the (period, pattern, config) entries and the
  candidate count,
* the step-1 :class:`PresolveReduction` of the schedule's candidate set:
  ``forced``, ``stats``, sha256 digests of the problem's columns and of
  ``dominators``, and the components (column tuple plus a digest of
  their rows), compared as a set because component order is not part
  of the contract.  Rows are digested as the int value of their bits
  (bit ``b`` = 2^b).

It also pins the cold and warm (:func:`presolve_cover_warm`) reductions
of 40 seeded random cover instances.  Speed work on presolve or the ILP
model build must leave all of it unchanged.

Regenerate (only for a deliberate, reviewed behaviour change) with::

    PYTHONPATH=src python tests/test_schedule_golden_scale.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.atpg.patterns import random_test_set
from repro.circuits.library import suite_circuit, suite_entry
from repro.core import FlowConfig, HdfTestFlow
from repro.scheduling.baselines import conventional_targets
from repro.scheduling.schedule import _candidate_set_cached
from repro.scheduling.setcover import (
    CoverProblem,
    presolve_cover,
    presolve_cover_warm,
)
from repro.utils.bitset import matrix_to_masks

GOLDEN_FILE = (Path(__file__).resolve().parent / "data"
               / "schedule_golden.json")

CIRCUITS = ("p89k", "s38584")
SCALE = 1.0
PATTERNS = 64
RANDOM_INSTANCES = 40


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _value(row: bytes) -> int:
    return int.from_bytes(row, "little")


def reduction_fingerprint(problem, red) -> dict:
    """The pinned summary of ``problem``'s :class:`PresolveReduction`."""
    return {
        "forced": list(red.forced),
        "stats": dict(sorted(red.stats.items())),
        "column_masks_sha256": _digest(matrix_to_masks(problem.matrix)),
        "dominators_sha256": _digest(
            (_value(d), _value(k)) for d, k in red.dominators),
        "components": sorted(
            [list(cols), _digest([*matrix_to_masks(rows),
                                  _value(covered.tobytes())])]
            for cols, rows, covered in red.components),
    }


def flow_result(name: str):
    circuit = suite_circuit(name, scale=SCALE)
    test_set = random_test_set(circuit, PATTERNS, seed=suite_entry(name).seed)
    return HdfTestFlow(circuit, FlowConfig()).run(test_set=test_set)


def _workload(res):
    cls = res.classification
    return [("conv", conventional_targets(cls), None),
            ("heur", cls.target, res.configs),
            ("prop", cls.target, res.configs)]


def step1_problems(res, *, packed: bool = True) -> dict[str, CoverProblem]:
    """The step-1 cover problem of each schedule, from its candidate set
    (heur solves the prop problem greedily; its presolve is pinned too).

    ``packed`` builds it from the candidate bit matrix like the scheduler
    does; otherwise from the candidates' fault sets.
    """
    out = {}
    for key, targets, configs in _workload(res):
        _ranges, cand_set = _candidate_set_cached(
            res.data, frozenset(targets), res.clock, configs, True, "mid",
            None)
        out[key] = (CoverProblem.from_matrix(cand_set.matrix,
                                             cand_set.fault_ids)
                    if packed else CoverProblem.from_sets([
                        c.faults for c in cand_set.candidates]))
    return out


def circuit_fingerprint(res) -> dict:
    problems = step1_problems(res)
    out = {}
    for key, _targets, _configs in _workload(res):
        sched = res.schedules[key]
        out[key] = {
            "periods": sched.periods,
            "entries": [[e.period, e.pattern, e.config]
                        for e in sched.entries],
            "num_candidates": sched.num_candidates,
            "step1": reduction_fingerprint(
                problems[key], presolve_cover(problems[key])),
        }
    return out


def random_instance(seed: int
                    ) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """The subsets of a seeded block-structured cover instance and of a
    perturbed successor.

    Elements fall into 1-6 blocks; most columns stay inside one block, a
    few straddle two, and some are copies or subsets of earlier columns, so
    every presolve rule and the component split get exercised.  The
    successor re-draws a few columns, like a rescheduling delta.
    """
    rng = random.Random(seed)
    n_el = 8 + rng.randrange(90)
    n_blocks = 1 + rng.randrange(6)
    block = [rng.randrange(n_blocks) for _ in range(n_el)]
    members = [[e for e in range(n_el) if block[e] == b]
               for b in range(n_blocks)]
    members = [m for m in members if m]

    def column() -> frozenset[int]:
        pool = list(members[rng.randrange(len(members))])
        if len(members) > 1 and rng.random() < 0.04:
            pool += members[rng.randrange(len(members))]
        density = 0.15 + 0.45 * rng.random()
        picked = {e for e in pool if rng.random() < density}
        return frozenset(picked or {pool[rng.randrange(len(pool))]})

    cols: list[frozenset[int]] = []
    for _ in range(4 + rng.randrange(70)):
        r = rng.random()
        if cols and r < 0.15:
            cols.append(cols[rng.randrange(len(cols))])
        elif cols and r < 0.3:
            base = sorted(cols[rng.randrange(len(cols))])
            cols.append(frozenset(
                e for e in base if rng.random() < 0.7) or frozenset(base))
        else:
            cols.append(column())
    new = list(cols)
    for _ in range(1 + rng.randrange(4)):
        new[rng.randrange(len(new))] = column()
    # Keep both instances coverable over the same element order.
    everything = frozenset(range(n_el))
    cols.append(everything - frozenset().union(*cols) or cols[0])
    new.append(everything - frozenset().union(*new) or new[0])
    return cols, new


def instance_fingerprint(seed: int) -> dict:
    cols, new_cols = random_instance(seed)
    prev, new = CoverProblem.from_sets(cols), CoverProblem.from_sets(new_cols)
    cold = presolve_cover(prev)
    return {
        "instance_sha256": _digest(
            [sorted(s) for s in cols] + [sorted(s) for s in new_cols]),
        "cold": reduction_fingerprint(prev, cold),
        "warm": reduction_fingerprint(new, presolve_cover_warm(new, cold)),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.fixture(scope="module", params=CIRCUITS)
def scale_result(request):
    return request.param, flow_result(request.param)


def test_golden_covers_every_case(golden):
    assert golden["scale"] == SCALE
    assert golden["patterns"] == PATTERNS
    assert set(golden["circuits"]) == set(CIRCUITS)
    assert len(golden["instances"]) == RANDOM_INSTANCES


def test_schedules_match_golden(scale_result, golden):
    name, res = scale_result
    got = circuit_fingerprint(res)
    want = golden["circuits"][name]
    for key in ("conv", "heur", "prop"):
        for field in ("periods", "entries", "num_candidates"):
            assert got[key][field] == want[key][field], (name, key, field)
        assert got[key]["step1"] == want[key]["step1"], (name, key)


def test_frozenset_construction_matches_golden(scale_result, golden):
    """The frozenset constructor packs the same problem as the matrix one."""
    name, res = scale_result
    want = golden["circuits"][name]
    packed = step1_problems(res)
    for key, problem in step1_problems(res, packed=False).items():
        assert problem.elements == packed[key].elements
        assert (problem.matrix == packed[key].matrix).all()
        assert (reduction_fingerprint(problem, presolve_cover(problem))
                == want[key]["step1"]), (name, key)


def test_scale_reaches_an_ilp_component(golden):
    """The pin is only worth its runtime if step 1 leaves an ILP behind."""
    prop = golden["circuits"]["p89k"]["prop"]["step1"]
    assert prop["components"]
    assert max(len(cols) for cols, _digest in prop["components"]) > 100


@pytest.mark.parametrize("seed", range(RANDOM_INSTANCES))
def test_random_reductions_match_golden(seed, golden):
    assert instance_fingerprint(seed) == golden["instances"][seed]


if __name__ == "__main__":  # pragma: no cover
    payload = {
        "scale": SCALE,
        "patterns": PATTERNS,
        "circuits": {name: circuit_fingerprint(flow_result(name))
                     for name in CIRCUITS},
        "instances": [instance_fingerprint(s)
                      for s in range(RANDOM_INSTANCES)],
    }
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN_FILE}")
