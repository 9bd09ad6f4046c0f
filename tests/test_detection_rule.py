"""Detection ranges checked against the paper's definition (Sec. III-B).

For sampled faults of seeded generated circuits, each fault is inserted
into a copy of the netlist as an explicit delay element at its site — a
buffer that delays the faulted polarity by δ and the other by nothing —
and the whole copy is re-simulated with :meth:`WaveformSimulator.simulate`
(no fault injection, no cone restriction).  XOR-ing its waveforms against
the fault-free ones at every observation point and dropping glitches
narrower than the threshold must give exactly the :class:`DetectionData`
ranges: ``i_all`` over all observation points, ``i_mon`` over the
monitored ones.

On the same explicit waveforms the detection rule must hold: with a
monitor of delay ``d``, period ``t`` detects the fault iff some
flip-flop sees a difference at ``t`` or some monitored point one at
``t - d`` — exactly when ``t ∈ i_all ∪ (i_mon + d)``, per pattern and,
through :meth:`DetectionData.detection_range`, over the whole test set.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.atpg.patterns import random_test_set
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.faults.detection import compute_detection_data
from repro.faults.universe import small_delay_fault_universe
from repro.monitors.monitor import MonitorConfigSet
from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.wave_sim import DEFAULT_INERTIAL_PS, WaveformSimulator
from repro.timing.sta import run_sta
from repro.utils.intervals import EPS, IntervalAccumulator

SEEDS = (4, 17, 29)
N_PATTERNS = 8
N_FAULTS = 14
N_TIMES = 40


def _circuit(seed: int) -> Circuit:
    return generate_circuit(CircuitProfile(
        name=f"rule{seed}", n_gates=80 + 20 * (seed % 3), n_ffs=10,
        n_inputs=7, n_outputs=4, depth=8, seed=seed,
        long_edge_prob=0.25, short_path_ppo_fraction=0.3,
        endpoint_side_gates=1))


def with_delay_element(circuit: Circuit, fault) -> Circuit:
    """A copy of ``circuit`` with ``fault`` as an explicit buffer of delay
    ``(δ, 0)`` (slow-to-rise) or ``(0, δ)`` (slow-to-fall) at its site.

    An output-pin site feeds every consumer and observation point of the
    gate through the buffer; an input-pin site feeds only that pin.
    Sources and observation points keep their order.
    """
    site = fault.site
    gates = circuit.gates
    driver = (site.gate if site.is_output_pin
              else gates[site.gate].fanin[site.pin])
    element = (((fault.delta, 0.0),) if fault.slow_to_rise
               else ((0.0, fault.delta),))
    copy = Circuit(f"{circuit.name}+delta")
    new: dict[int, int] = {}
    buf = -1

    def source(old: int, consumer: int, pin: int) -> int:
        if old == driver and (site.is_output_pin or
                              (consumer, pin) == (site.gate, site.pin)):
            return buf
        return new[old]

    for g in gates:
        if g.kind == GateKind.INPUT:
            idx = copy.add_input(g.name)
        elif g.kind in (GateKind.CONST0, GateKind.CONST1):
            idx = copy.add_const(g.name, int(g.kind == GateKind.CONST1))
        elif g.kind == GateKind.DFF:
            idx = copy.add_dff(g.name)
        else:
            idx = copy.add_gate(g.name, g.kind,
                                [source(s, g.index, p)
                                 for p, s in enumerate(g.fanin)])
        copy.gates[idx].pin_delays = g.pin_delays
        new[g.index] = idx
        if g.index == driver:
            buf = copy.add_gate("delta_element", GateKind.BUF, [idx])
            copy.gates[buf].pin_delays = element
    for d in circuit.dffs:
        copy.connect_dff(gates[d].name, source(gates[d].fanin[0], d, 0))
    for o in circuit.outputs:
        copy.mark_output(source(o, -1, -1))
    return copy.finalize()


def explicit_differences(circuit, fault, pattern, horizon):
    """Per observation point: glitch-filtered XOR of fault-free and faulty
    waveforms, the faulty ones from whole-copy simulation."""
    faulty = with_delay_element(circuit, fault)
    good = WaveformSimulator(circuit).simulate(pattern.launch,
                                               pattern.capture)
    bad = WaveformSimulator(faulty).simulate(pattern.launch, pattern.capture)
    out = []
    for op, fop in zip(circuit.observation_points(),
                       faulty.observation_points()):
        assert op.kind == fop.kind
        assert op.kind == "po" or op.name == fop.name
        diff = good.waveforms[op.gate].diff_intervals(
            bad.waveforms[fop.gate], horizon)
        out.append((op.gate, diff.filter_glitches(DEFAULT_INERTIAL_PS)))
    return out


def _union(parts):
    acc = IntervalAccumulator()
    for p in parts:
        acc.add(p)
    return acc.build()


def _sample_times(rng, diffs, monitored, d, lo, hi) -> list[float]:
    """Uniform times in ``[lo, hi]`` plus the midpoint of every interval
    that can detect, minus times within 1e-6 ps of a boundary (where the
    ``EPS`` tolerance, not the rule, decides)."""
    sets = [s for _g, s in diffs] + [s.shifted(d) for g, s in diffs
                                     if g in monitored]
    times = [rng.uniform(lo, hi) for _ in range(N_TIMES)]
    times += [m for s in sets for m in s.midpoints() if lo < m < hi]
    return [t for t in times
            if not any(abs(t - b) <= 1e-6 for s in sets
                       for b in s.boundaries())]


def _seen(diffs, monitored, d, t) -> bool:
    """A flip-flop differs at ``t`` or a monitored point at ``t - d``."""
    return any(s.contains(t) or (g in monitored and s.contains(t - d))
               for g, s in diffs)


@pytest.fixture(scope="module", params=SEEDS)
def workload(request):
    seed = request.param
    circuit = _circuit(seed)
    faults = small_delay_fault_universe(circuit)
    patterns = random_test_set(circuit, N_PATTERNS, seed=seed)
    horizon = run_sta(circuit).clock_period
    obs = sorted({op.gate for op in circuit.observation_points()})
    monitored = frozenset(obs[::2])
    data = compute_detection_data(circuit, faults, patterns,
                                  horizon=horizon, monitored_gates=monitored)
    rng = random.Random(seed)
    detected = sorted(data.ranges)
    assert len(detected) >= N_FAULTS, "workload detects too little"
    sample = rng.sample(detected, N_FAULTS - 4) + rng.sample(
        range(len(faults)), 4)
    explicit = {
        (fi, pi): explicit_differences(circuit, faults[fi], pattern, horizon)
        for fi in sample for pi, pattern in enumerate(patterns)}
    return SimpleNamespace(data=data, monitored=monitored, horizon=horizon,
                           sample=sample, explicit=explicit, rng=rng)


def test_ranges_equal_whole_copy_simulation(workload):
    hits = 0
    for (fi, pi), diffs in workload.explicit.items():
        i_all = _union(d for _g, d in diffs)
        i_mon = _union(d for g, d in diffs if g in workload.monitored)
        fpr = workload.data.ranges.get(fi, {}).get(pi)
        if fpr is None:
            assert i_all.is_empty and i_mon.is_empty, (fi, pi)
            continue
        hits += 1
        assert fpr.i_all == i_all, (fi, pi)
        assert fpr.i_mon == i_mon, (fi, pi)
    assert hits > 0


def test_detection_rule_per_pattern(workload):
    w = workload
    positives = 0
    for (fi, pi), diffs in w.explicit.items():
        fpr = w.data.ranges.get(fi, {}).get(pi)
        for d in MonitorConfigSet.paper_default(w.horizon):
            for t in _sample_times(w.rng, diffs, w.monitored, d, 0.0,
                                   w.horizon + d):
                seen = _seen(diffs, w.monitored, d, t)
                rule = fpr is not None and (
                    fpr.i_all.contains(t)
                    or fpr.i_mon.shifted(d).contains(t))
                assert seen == rule, (fi, pi, d, t)
                positives += seen
    assert positives > 0


def test_detection_rule_over_the_test_set(workload):
    w = workload
    positives = 0
    for fi in w.sample:
        diffs = [s for (f, _p), per in w.explicit.items() if f == fi
                 for s in per]
        for d in MonitorConfigSet.paper_default(w.horizon):
            window = w.data.detection_range(fi, (d,), 0.0, w.horizon)
            for t in _sample_times(w.rng, diffs, w.monitored, d, EPS,
                                   w.horizon - EPS):
                seen = _seen(diffs, w.monitored, d, t)
                assert seen == window.contains(t), (fi, d, t)
                positives += seen
    assert positives > 0
