"""Golden equivalence: bitset scheduler vs the retained seed pipeline.

The bitset rebuild (PR 3) must not change *what* gets scheduled, only how
fast.  On the golden circuits (s27, c17, gen60) every workload the perf
baseline times — conventional targets, greedy, proposed ILP and the two
relaxed coverage targets — is run through both `optimize_schedule` and
`optimize_schedule_reference` and the results compared:

* at full coverage the candidate counts, selected periods, covered fault
  sets, per-period fault assignment and entry counts must be *identical*;
  the exact (pattern, config) picks may differ only where the step-2 ILP
  has equal-cardinality ties, so instead of pinning them the new entries
  are re-validated as covers of their period's fault set,
* at partial coverage both pipelines are exact, so the number of selected
  frequencies must match, but the aggregated ILP may land on a different
  equal-cardinality optimum — there the assertion is feasibility (both
  reach the required fault count) plus equal frequency counts.

Greedy is fully deterministic in both pipelines, so there the entries
themselves must be identical too.
"""

from __future__ import annotations

import math

import pytest

from repro.circuits.library import embedded_circuit
from repro.core import FlowConfig, HdfTestFlow
from repro.scheduling.baselines import conventional_targets
from repro.scheduling.discretize import discretize_observation_times
from repro.scheduling.reference import (
    discretize_observation_times_reference,
    optimize_schedule_reference,
    target_ranges_reference,
)
from repro.scheduling.schedule import _pattern_config_subsets, optimize_schedule


@pytest.fixture(scope="session")
def flow_result_c17():
    return HdfTestFlow(embedded_circuit("c17"), FlowConfig(atpg_seed=3)).run()


GOLDEN = ("flow_result_s27", "flow_result_c17", "flow_result_small")


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
    data._sched_cache.clear()
    data._det_range.clear()


@pytest.mark.parametrize("fixture", GOLDEN)
def test_candidates_identical(fixture, request):
    res = request.getfixturevalue(fixture)
    _clear_caches(res.data)
    ranges = target_ranges_reference(res.data, res.classification.target,
                                     res.clock, res.configs)
    for prune in (False, True):
        new = discretize_observation_times(
            ranges, res.clock.t_min, res.clock.t_nom, prune_dominated=prune)
        ref = discretize_observation_times_reference(
            ranges, res.clock.t_min, res.clock.t_nom, prune_dominated=prune)
        assert [c.faults for c in new] == [c.faults for c in ref]
        assert [c.time for c in new] == pytest.approx(
            [c.time for c in ref], abs=1e-9)
        assert [(c.segment.lo, c.segment.hi) for c in new] == pytest.approx(
            [(c.segment.lo, c.segment.hi) for c in ref], abs=1e-9)


@pytest.mark.parametrize("fixture", GOLDEN)
def test_schedules_equivalent(fixture, request):
    res = request.getfixturevalue(fixture)
    _clear_caches(res.data)
    schedulable = None        # full-coverage covered set == coverable universe
    for label, targets, configs, solver, cov in _workload(res):
        new = optimize_schedule(res.data, targets, res.clock, configs,
                                solver=solver, coverage=cov)
        ref = optimize_schedule_reference(res.data, targets, res.clock,
                                          configs, solver=solver,
                                          coverage=cov)
        assert new.num_candidates == ref.num_candidates, label
        assert len(new.periods) == len(ref.periods), label
        if cov >= 1.0:
            assert new.periods == pytest.approx(ref.periods, abs=1e-9), label
            assert new.covered == ref.covered, label
            assert new.per_period_faults == ref.per_period_faults, label
            assert len(new.entries) == len(ref.entries), label
            if label == "prop":
                schedulable = ref.covered
        else:
            # Partial coverage: the aggregated ILP may land on a different
            # equal-cardinality optimum; both must reach the target count.
            need = math.ceil(cov * len(schedulable) - 1e-9)
            assert len(new.covered) >= need, label
            assert len(ref.covered) >= need, label
        if solver == "greedy":
            assert new.entries == ref.entries, label
        # The step-2 picks must still cover every fault assigned to their
        # period, whichever optimum the ILP tie-breaking landed on.
        for period, fault_set in new.per_period_faults.items():
            combos = _pattern_config_subsets(res.data, fault_set, period,
                                             configs)
            covered = set()
            for e in new.entries:
                if e.period == period:
                    covered |= combos[(e.pattern, e.config)]
            assert covered >= fault_set, (label, period)
