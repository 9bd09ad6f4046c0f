"""Transition-fault test generation (launch/capture pattern pairs).

Stand-in for the commercial ATPG used in the paper's evaluation (Sec. V,
"compacted transition delay fault test sets with an average test coverage of
over 99.9 %").  Three phases:

1. **Random phase** — batches of random pattern pairs graded by bit-parallel
   fault simulation with fault dropping; only patterns detecting new faults
   are kept.
2. **Deterministic phase** — for each remaining fault, PODEM generates the
   capture vector (the transition fault's stuck-at image) and a
   justification pass produces the launch vector establishing the initial
   value at the site.
3. **Compaction** — reverse-order fault dropping removes patterns made
   redundant by later ones (see :mod:`repro.atpg.compaction`).

Detection criterion (gross-delay / enhanced-scan model): pattern pair
``(v1, v2)`` detects transition fault φ iff ``v1`` sets the site to the
initial value and ``v2`` detects the corresponding stuck-at fault.

Engines: fault grading runs on the packed fault×pattern kernel of
:class:`BitParallelSimulator` by default (``engine="matrix"``): the
fault-free launch/capture words come from one big-int sweep, only
activated faults whose forced value changes their site enter the kernel,
and chunks of them are simulated side by side in one Python int per
:data:`~repro.simulation.parallel_sim.CHUNK_BITS`
(:func:`_transition_masks`).  The random phase, the deterministic phase's
per-pattern fault dropping and compaction all grade through it; faults
are addressed by their position in one integer-ranked list, so no phase
sorts or searches fault objects.  The seed pipeline is retained verbatim
as ``engine="reference"`` — both produce bit-identical per-fault detect
masks and identical compacted test sets (guarded by
``tests/test_transition_golden.py`` and the fixture pin
``tests/test_atpg_golden.py``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from repro.atpg.compaction import reverse_order_drop
from repro.atpg.patterns import PatternPair, TestSet
from repro.atpg.podem import Podem
from repro.faults.models import TransitionFault
from repro.faults.universe import fault_sites
from repro.netlist.circuit import Circuit
from repro.simulation.logic import X
from repro.simulation.parallel_sim import BitParallelSimulator
from repro.utils.profiling import StageTimer

#: Recognized values of the ``engine`` parameter.
ENGINES = ("matrix", "reference")


@dataclass
class AtpgResult:
    """Outcome of transition-fault test generation."""

    test_set: TestSet
    faults: list[TransitionFault]
    detected: set[TransitionFault] = field(default_factory=set)
    untestable: set[TransitionFault] = field(default_factory=set)
    aborted: set[TransitionFault] = field(default_factory=set)

    @property
    def coverage(self) -> float:
        """Detected / (total - untestable), in [0, 1]."""
        testable = len(self.faults) - len(self.untestable)
        if testable <= 0:
            return 1.0
        return len(self.detected) / testable

    def summary(self) -> dict[str, float]:
        return {
            "patterns": len(self.test_set),
            "faults": len(self.faults),
            "detected": len(self.detected),
            "untestable": len(self.untestable),
            "aborted": len(self.aborted),
            "coverage": round(self.coverage, 4),
        }


def transition_fault_list(circuit: Circuit) -> list[TransitionFault]:
    """Both-polarity transition faults at every gate pin."""
    out: list[TransitionFault] = []
    for site in fault_sites(circuit):
        out.append(TransitionFault(site, slow_to_rise=True))
        out.append(TransitionFault(site, slow_to_rise=False))
    return out


class _FaultRows(NamedTuple):
    """Flat per-fault grading rows, aligned with a fault list.

    ``signal`` is the gate driving the fault site (whose launch value
    activates the fault), ``stuck`` the capture stuck-at value — equal to
    the launch value a transition test must set — and ``sites`` the
    ``(gate, pin, stuck)`` triples of the packed stuck-at kernel.
    """

    signal: list[int]
    stuck: list[int]
    sites: list[tuple[int, int, int]]


def _fault_rows(circuit: Circuit,
                faults: Sequence[TransitionFault]) -> _FaultRows:
    gates = circuit.gates
    signal: list[int] = []
    stuck: list[int] = []
    sites: list[tuple[int, int, int]] = []
    for f in faults:
        gate, pin = f.site.gate, f.site.pin
        value = f.launch_value
        signal.append(gate if pin < 0 else gates[gate].fanin[pin])
        stuck.append(value)
        sites.append((gate, pin, value))
    return _FaultRows(signal, stuck, sites)


def _rank_key(circuit: Circuit) -> Callable[[TransitionFault], int]:
    """Integer sort key ordering faults exactly like their dataclass order
    ``(site.gate, site.pin, slow_to_rise)``."""
    span = max((g.arity for g in circuit.gates), default=0) + 1
    return lambda f: (((f.site.gate * span + f.site.pin + 1) << 1)
                      | f.slow_to_rise)


def _transition_masks(sim: BitParallelSimulator, good_launch: list[int],
                      good_capture: list[int], rows: _FaultRows,
                      idx: Sequence[int], width: int) -> list[int]:
    """Detect masks of the faults ``idx`` (positions in ``rows``).

    A transition fault is activated where the launch vector sets its site
    to the launch value; the packed stuck-at kernel grades the capture
    vector against those activation masks.
    """
    mask = (1 << width) - 1
    signal, stuck, sites = rows
    care = [good_launch[signal[j]] if stuck[j]
            else mask ^ good_launch[signal[j]] for j in idx]
    return sim.stuck_at_detect_masks(good_capture, [sites[j] for j in idx],
                                     width, care)


def _grade(sim: BitParallelSimulator, patterns: Sequence[PatternPair],
           rows: _FaultRows, idx: Sequence[int]) -> list[int]:
    """Detect masks of the faults ``idx`` under fully-specified pairs."""
    launch, width = sim.pack_vectors([p.launch for p in patterns])
    capture, _ = sim.pack_vectors([p.capture for p in patterns])
    return _transition_masks(sim, sim.simulate(launch, width),
                             sim.simulate(capture, width), rows, idx, width)


def _detect_masks_matrix(circuit: Circuit, sim: BitParallelSimulator,
                         test_set: TestSet, faults: Sequence[TransitionFault],
                         *, seed: int) -> dict[TransitionFault, int]:
    filled = test_set.filled(seed=seed)
    if not len(filled):
        return {f: 0 for f in faults}
    masks = _grade(sim, filled.patterns, _fault_rows(circuit, faults),
                   range(len(faults)))
    return dict(zip(faults, masks))


def _detect_masks_reference(circuit: Circuit, sim: BitParallelSimulator,
                            test_set: TestSet,
                            faults: Sequence[TransitionFault],
                            *, seed: int) -> dict[TransitionFault, int]:
    """The seed grading path: big-int words, one cone walk per fault."""
    filled = test_set.filled(seed=seed)
    launch_vecs = [p.launch for p in filled]
    capture_vecs = [p.capture for p in filled]
    if not launch_vecs:
        return {f: 0 for f in faults}
    launch_words, width = sim.pack_vectors(launch_vecs)
    capture_words, _ = sim.pack_vectors(capture_vecs)
    good_launch = sim.simulate(launch_words, width)
    good_capture = sim.simulate(capture_words, width)
    mask = (1 << width) - 1

    out: dict[TransitionFault, int] = {}
    for f in faults:
        sig = f.site.signal_gate(circuit)
        launch_word = good_launch[sig]
        act = (mask ^ launch_word) if f.launch_value == 0 else launch_word
        if act == 0:
            out[f] = 0
            continue
        det = sim.stuck_at_detect_mask(good_capture, f.as_stuck_at(), width)
        out[f] = act & det
    return out


def detect_masks(circuit: Circuit, sim: BitParallelSimulator,
                 test_set: TestSet, faults: list[TransitionFault],
                 *, seed: int = 0,
                 engine: str = "matrix") -> dict[TransitionFault, int]:
    """Per-fault bitmask of detecting patterns (bit p ↔ pattern p).

    Both engines return bit-identical masks; ``"matrix"`` grades all faults
    through the packed fault×pattern kernel, ``"reference"`` keeps the seed
    per-fault big-int walk.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "reference":
        return _detect_masks_reference(circuit, sim, test_set, faults,
                                       seed=seed)
    return _detect_masks_matrix(circuit, sim, test_set, faults, seed=seed)


def generate_transition_tests(
    circuit: Circuit,
    *,
    seed: int = 0,
    faults: list[TransitionFault] | None = None,
    random_batch: int = 32,
    max_random_batches: int = 20,
    stale_batches: int = 3,
    max_backtracks: int = 512,
    compact: bool = True,
    engine: str = "matrix",
    timer: StageTimer | None = None,
) -> AtpgResult:
    """Generate a compacted transition-fault pattern-pair set.

    ``engine`` selects the fault-grading kernels (``"matrix"`` — the packed
    fault×pattern kernel with an incremental deterministic phase — or
    ``"reference"`` — the retained seed pipeline); results are identical.
    ``timer`` collects the per-stage wall-clock split (``random`` /
    ``podem`` / ``grade`` / ``compact``).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    rng = random.Random(seed)
    fault_list = faults if faults is not None else transition_fault_list(circuit)
    sim = BitParallelSimulator(circuit)
    width = len(circuit.sources())
    rank = _rank_key(circuit)
    # Faults in their sorted order, addressed by position from here on.
    ranked = sorted(set(fault_list), key=rank)
    rows = _fault_rows(circuit, ranked)

    test_set = TestSet(circuit)
    undetected = list(range(len(ranked)))  # ascending = sorted order
    detected: set[TransitionFault] = set()

    # ------------------------------------------------------------------
    # Phase 1: random patterns with fault dropping
    # ------------------------------------------------------------------
    t0 = time.perf_counter() if timer is not None else 0.0
    stale = 0
    for _ in range(max_random_batches):
        if not undetected or stale >= stale_batches:
            break
        batch = TestSet(circuit, (
            PatternPair(
                tuple(rng.randint(0, 1) for _ in range(width)),
                tuple(rng.randint(0, 1) for _ in range(width)))
            for _ in range(random_batch)))
        if engine == "reference":
            by_fault = _detect_masks_reference(
                circuit, sim, batch, [ranked[i] for i in undetected],
                seed=seed)
            masks = [by_fault[ranked[i]] for i in undetected]
        else:
            masks = _grade(sim, batch.patterns, rows, undetected)
        useful_bits = 0
        still: list[int] = []
        for i, m in zip(undetected, masks):
            if m:
                detected.add(ranked[i])
                useful_bits |= m & (-m)  # keep the first detecting pattern
            else:
                still.append(i)
        if not useful_bits:
            stale += 1
            continue
        stale = 0
        for p in range(len(batch)):
            if useful_bits >> p & 1:
                test_set.append(batch[p])
        undetected = still
    if timer is not None:
        timer.add("random", time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Phase 2: deterministic PODEM for remaining faults
    # ------------------------------------------------------------------
    result = AtpgResult(test_set=test_set, faults=list(fault_list),
                        detected=detected)
    podem = Podem(circuit, max_backtracks=max_backtracks)
    sources = circuit.sources()
    if engine == "reference":
        _phase2_reference(circuit, sim, podem, sources, rng,
                          {ranked[i] for i in undetected}, result, seed=seed)
    else:
        _phase2_incremental(sim, podem, sources, rng, ranked, rows,
                            undetected, result, timer=timer)

    # ------------------------------------------------------------------
    # Phase 3: static compaction (reverse-order fault dropping)
    # ------------------------------------------------------------------
    test_set = result.test_set
    if compact and len(test_set) > 1:
        t0 = time.perf_counter() if timer is not None else 0.0
        masks = detect_masks(circuit, sim, test_set,
                             sorted(result.detected, key=rank), seed=seed,
                             engine=engine)
        kept = reverse_order_drop(len(test_set), masks.values())
        result.test_set = test_set.subset(kept)
        if timer is not None:
            timer.add("compact", time.perf_counter() - t0)

    return result


def _phase2_incremental(sim: BitParallelSimulator, podem: Podem,
                        sources: list[int], rng: random.Random,
                        ranked: list[TransitionFault], rows: _FaultRows,
                        undetected: list[int], result: AtpgResult, *,
                        timer: StageTimer | None) -> None:
    """Deterministic phase on the packed kernel.

    ``undetected`` holds positions in ``ranked`` in ascending (sorted)
    order.  Each new pattern is packed exactly once and graded against the
    still-open faults; a settled fault is flagged in ``settled`` and
    filtered out of ``alive`` before the next grading, instead of being
    searched for in a list of fault objects.
    """
    test_set = result.test_set
    signal, stuck, _sites = rows
    settled = bytearray(len(ranked))
    alive = list(undetected)
    for i in undetected:
        if settled[i]:
            continue  # dropped by an earlier deterministic pattern
        f = ranked[i]
        t0 = time.perf_counter() if timer is not None else 0.0
        capture_assign = podem.generate(f.as_stuck_at())
        launch_assign = (None if capture_assign is None
                         else podem.justify(signal[i], stuck[i]))
        if launch_assign is None:
            (result.aborted if podem.stats.aborted
             else result.untestable).add(f)
            settled[i] = 1
            if timer is not None:
                timer.add("podem", time.perf_counter() - t0)
            continue
        launch = tuple(launch_assign.get(s, X) for s in sources)
        capture = tuple(capture_assign.get(s, X) for s in sources)
        pair = PatternPair(launch, capture).filled(rng)
        if timer is not None:
            t1 = time.perf_counter()
            timer.add("podem", t1 - t0)
        # Fault dropping: grade the new pattern against *all* open faults
        # so later PODEM calls are skipped for collaterally detected ones.
        # Every fault sorted before ``f`` is settled, so ``alive[0]`` is f.
        alive = [j for j in alive if not settled[j]]
        masks = _grade(sim, (pair,), rows, alive)
        if timer is not None:
            timer.add("grade", time.perf_counter() - t1)
        if masks[0]:
            test_set.append(pair)
            for j, m in zip(alive, masks):
                if m:
                    settled[j] = 1
                    result.detected.add(ranked[j])
        else:
            # Random fill spoiled the sensitization; treat as aborted.
            result.aborted.add(f)
            settled[i] = 1


def _phase2_reference(circuit: Circuit, sim: BitParallelSimulator,
                      podem: Podem, sources: list[int], rng: random.Random,
                      undetected: set[TransitionFault],
                      result: AtpgResult, *, seed: int) -> None:
    """The seed deterministic phase, retained verbatim: every pattern
    re-sorts and re-grades ``remaining`` through the big-int engine."""
    test_set = result.test_set
    worklist = sorted(undetected)
    remaining = set(undetected)
    for f in worklist:
        if f not in remaining:
            continue  # dropped by an earlier deterministic pattern
        capture_assign = podem.generate(f.as_stuck_at())
        if capture_assign is None:
            (result.aborted if podem.stats.aborted
             else result.untestable).add(f)
            remaining.discard(f)
            continue
        launch_assign = podem.justify(f.site.signal_gate(circuit),
                                      f.launch_value)
        if launch_assign is None:
            (result.aborted if podem.stats.aborted
             else result.untestable).add(f)
            remaining.discard(f)
            continue
        launch = tuple(launch_assign.get(s, X) for s in sources)
        capture = tuple(capture_assign.get(s, X) for s in sources)
        pair = PatternPair(launch, capture).filled(rng)
        masks = detect_masks(circuit, sim, TestSet(circuit, [pair]),
                             sorted(remaining), seed=seed,
                             engine="reference")
        if masks[f]:
            test_set.append(pair)
            dropped = {g for g, m in masks.items() if m}
            result.detected |= dropped
            remaining -= dropped
        else:
            # Random fill spoiled the sensitization; treat as aborted.
            result.aborted.add(f)
            remaining.discard(f)
