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
"""

from __future__ import annotations

import random

import pytest

from repro.atpg.patterns import random_test_set
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
