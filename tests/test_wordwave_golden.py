"""Randomized golden parity of the wordwave array-kernel engine.

Fifty seeded synthetic circuits across sizes, depths and fanout shapes,
each simulated with the batched wordwave engine
(``compute_detection_data``) and its reference, the event-driven
``incremental_detection_data`` (its fallback, which shares no kernel code
with it); the resulting ``DetectionData`` must be
bit-identical (same (fault, pattern) keys, exactly equal interval sets).
``tests/test_detection_golden.py`` pins both to fixed outputs and
``tests/test_detection_rule.py`` checks them against the definition.
A deterministic skewed-path circuit additionally pins the inertial-filter
boundary: a pulse whose width is *exactly* the threshold survives, while
one narrower by more than ``EPS`` is cancelled — in both engines alike.
Two more cases pin a second run after an in-place delay edit and
constant sources whose pattern bits oppose their values.
"""

from __future__ import annotations

import random

import pytest

from repro.atpg.patterns import PatternPair, TestSet, random_test_set
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.faults.detection import (
    compute_detection_data,
    incremental_detection_data,
)
from repro.faults.universe import small_delay_fault_universe
from repro.netlist.circuit import Circuit
from repro.simulation.wave_sim import DEFAULT_INERTIAL_PS, WaveformSimulator
from repro.simulation.word_wave import wordwave_fallback_reason
from repro.timing.sta import run_sta
from repro.timing.variation import apply_process_variation
from repro.utils.intervals import EPS

#: (n_gates, n_ffs, depth) shapes cycled over the 50 seeds; fanout and
#: reconvergence knobs vary with the seed below.
_SHAPES = [
    (40, 8, 5),
    (80, 12, 8),
    (150, 20, 10),
    (60, 6, 6),
    (120, 24, 9),
]
_N_CIRCUITS = 50
_MAX_FAULTS = 36
_N_PATTERNS = 6


def _profile(seed: int) -> CircuitProfile:
    n_gates, n_ffs, depth = _SHAPES[seed % len(_SHAPES)]
    return CircuitProfile(
        name=f"gold{seed}",
        n_gates=n_gates,
        n_ffs=n_ffs,
        n_inputs=6 + seed % 5,
        n_outputs=3 + seed % 3,
        depth=depth,
        seed=seed,
        long_edge_prob=0.15 + 0.05 * (seed % 7),
        short_path_ppo_fraction=0.25 + 0.1 * (seed % 4),
        endpoint_side_gates=seed % 3,
    )


def _workload(circuit: Circuit, seed: int):
    faults = small_delay_fault_universe(circuit)
    if len(faults) > _MAX_FAULTS:
        faults = random.Random(seed).sample(faults, _MAX_FAULTS)
    patterns = random_test_set(circuit, _N_PATTERNS, seed=seed)
    obs = sorted(op.gate for op in circuit.observation_points())
    monitored = frozenset(obs[::2])
    horizon = run_sta(circuit).clock_period
    return faults, patterns, monitored, horizon


def _assert_identical(a, b, ctx=""):
    assert set(a.ranges) == set(b.ranges), ctx
    for fi, per_pattern in a.ranges.items():
        assert set(per_pattern) == set(b.ranges[fi]), (ctx, fi)
        for pi, fpr in per_pattern.items():
            other = b.ranges[fi][pi]
            assert fpr.i_all == other.i_all, (ctx, fi, pi)
            assert fpr.i_mon == other.i_mon, (ctx, fi, pi)


@pytest.mark.parametrize("seed", range(_N_CIRCUITS))
def test_wordwave_matches_reference(seed):
    circuit = generate_circuit(_profile(seed))
    faults, patterns, monitored, horizon = _workload(circuit, seed)
    inertial = DEFAULT_INERTIAL_PS
    # The suite must exercise the array kernels, not the fallback path.
    assert wordwave_fallback_reason(circuit, patterns, inertial) is None

    results = {}
    for engine, detect in (("wordwave", compute_detection_data),
                           ("incremental", incremental_detection_data)):
        results[engine] = detect(
            circuit, faults, patterns, horizon=horizon,
            monitored_gates=monitored, inertial=inertial)
    _assert_identical(results["wordwave"], results["incremental"],
                      ctx=f"seed={seed}")


# ----------------------------------------------------------------------
# Inertial-filter boundary: pulse width exactly at the threshold
# ----------------------------------------------------------------------

def _skewed_pulse_circuit():
    """Reconvergent XOR whose output pulse width equals the path skew.

    One PI reaches an XOR twice: directly and through a buffer chain.  A
    launch transition on the PI produces an output pulse exactly as wide
    as the delay difference between the two paths.
    """
    c = Circuit("pulse")
    a = c.add_input("a")
    b1 = c.add_gate("b1", "BUF", [a])
    b2 = c.add_gate("b2", "BUF", [b1])
    x = c.add_gate("x", "XOR", [a, b2])
    c.mark_output(x)
    c.finalize()
    return c, x


def _pulse_width(circuit, gate, patterns):
    """Width of the XOR output pulse under inertial-free simulation."""
    sim = WaveformSimulator(circuit, inertial=0.0)
    for pp in patterns:
        res = sim.simulate(pp.launch, pp.capture)
        events = res.waveform_of(gate).events
        if len(events) >= 2:
            return events[1][0] - events[0][0]
    raise AssertionError("no pulse produced")  # pragma: no cover


def test_inertial_boundary_pulse_exactly_at_threshold():
    circuit, x_gate = _skewed_pulse_circuit()
    patterns = random_test_set(circuit, 8, seed=5)
    width = _pulse_width(circuit, x_gate, patterns)
    assert width > 4 * EPS  # a real, resolvable pulse

    faults = small_delay_fault_universe(circuit)
    obs = sorted(op.gate for op in circuit.observation_points())
    horizon = run_sta(circuit).clock_period

    # Exactly at the threshold the pulse survives (`w < inertial - EPS` is
    # False); one EPS-resolvable step narrower and it is filtered.  Both
    # engines must agree on either side of the boundary.
    for inertial in (width, width - 4 * EPS, width + 4 * EPS,
                     0.5 * width, 2.0 * width):
        assert wordwave_fallback_reason(circuit, patterns, inertial) is None
        got = {}
        for engine, detect in (("wordwave", compute_detection_data),
                               ("incremental", incremental_detection_data)):
            got[engine] = detect(
                circuit, faults, patterns, horizon=horizon,
                monitored_gates=frozenset(obs), inertial=inertial)
        _assert_identical(got["wordwave"], got["incremental"],
                          ctx=f"inertial={inertial}")


# ----------------------------------------------------------------------
# In-place delay edits and constant sources
# ----------------------------------------------------------------------

def test_in_place_delay_edit_is_simulated():
    """A second run after a public in-place delay edit sees the new
    delays: no plan state survives from the first run."""
    circuit = generate_circuit(_profile(3))
    faults, patterns, monitored, horizon = _workload(circuit, 3)
    kw = dict(horizon=horizon, monitored_gates=monitored)
    before = compute_detection_data(circuit, faults, patterns, **kw)
    apply_process_variation(circuit, seed=5, sigma_fraction=0.2)
    after = compute_detection_data(circuit, faults, patterns, **kw)
    _assert_identical(after, incremental_detection_data(
        circuit, faults, patterns, **kw), ctx="variation")
    # The edit moved some range, so a stale plan would be caught.
    assert before.table.all_lo.tolist() != after.table.all_lo.tolist()

    circuit.scale_gate_delays({g: 1.5 for g in circuit.combinational_gates()})
    _assert_identical(
        compute_detection_data(circuit, faults, patterns, **kw),
        incremental_detection_data(circuit, faults, patterns, **kw),
        ctx="scaled")


def _constant_circuit():
    """Constants on both polarities feeding reconvergent logic."""
    c = Circuit("consts")
    a = c.add_input("a")
    b = c.add_input("b")
    d = c.add_input("d")
    z0 = c.add_const("z0", 0)
    z1 = c.add_const("z1", 1)
    o = c.add_gate("o", "OR", [a, z0])
    n = c.add_gate("n", "AND", [b, z1])
    x = c.add_gate("x", "XOR", [o, n])
    y = c.add_gate("y", "NAND", [x, d, z1])
    w = c.add_gate("w", "NOR", [n, z0])
    c.mark_output(y)
    c.mark_output(w)
    c.finalize()
    return c, {z0: 0, z1: 1}


def test_constant_sources_ignore_opposing_pattern_bits():
    circuit, consts = _constant_circuit()
    sources = circuit.sources()
    rng = random.Random(11)
    pairs = []
    for _ in range(12):
        # Every pattern drives each constant's bit opposite to its value.
        launch, capture = ([1 - consts[s] if s in consts
                            else rng.randint(0, 1) for s in sources]
                           for _ in range(2))
        pairs.append(PatternPair(tuple(launch), tuple(capture)))
    patterns = TestSet(circuit, pairs)
    faults = small_delay_fault_universe(circuit)
    obs = frozenset(op.gate for op in circuit.observation_points())
    horizon = run_sta(circuit).clock_period
    assert wordwave_fallback_reason(circuit, patterns,
                                    DEFAULT_INERTIAL_PS) is None
    got = {}
    for engine, detect in (("wordwave", compute_detection_data),
                           ("incremental", incremental_detection_data)):
        got[engine] = detect(circuit, faults, patterns, horizon=horizon,
                             monitored_gates=obs)
    _assert_identical(got["wordwave"], got["incremental"], ctx="consts")
    assert got["wordwave"].ranges  # the workload detects something
