"""Topological waveform simulator with pin-to-pin delays and fault injection.

This is the CPU stand-in for the GPU-accelerated timing-accurate simulator of
[20] used by the paper: for each test pattern pair it computes the complete
signal *waveform* of every net, from which fault detection ranges are obtained
by XOR-ing fault-free and faulty output waveforms.

Semantics:

* the launch transition of a pattern pair ``(v1, v2)`` happens at ``t = 0``
  on every source (primary input or scan flip-flop output),
* each combinational gate adds a pin-to-pin, polarity-dependent delay; when
  several inputs toggle simultaneously the slowest toggling pin is charged
  (pessimistic-late convention),
* pulses narrower than the inertial threshold are filtered (Sec. II-A),
* a small delay fault ``(site, polarity, δ)`` delays the selected transition
  polarity of the signal at its site; faulty simulation re-evaluates only the
  fanout cone of the site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.netlist.circuit import Circuit, GateKind

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.faults
    from repro.faults.models import SmallDelayFault
from repro.simulation.waveform import (
    Waveform,
    scheduled_waveform,
    sequential_schedule,
)

#: Default inertial pulse-filter threshold in ps (glitches below this width
#: do not propagate; also the paper's minimum detection-interval width).
DEFAULT_INERTIAL_PS = 5.0

#: Per-kind two-valued evaluators, replacing :func:`eval_binary`'s string
#: comparison chain in the innermost simulation loop (same truth tables).
_EVAL_FN = {
    GateKind.AND: lambda vals: 1 if all(vals) else 0,
    GateKind.NAND: lambda vals: 0 if all(vals) else 1,
    GateKind.OR: lambda vals: 1 if any(vals) else 0,
    GateKind.NOR: lambda vals: 0 if any(vals) else 1,
    GateKind.XOR: lambda vals: sum(vals) & 1,
    GateKind.XNOR: lambda vals: 1 - (sum(vals) & 1),
    GateKind.NOT: lambda vals: 1 - vals[0],
    GateKind.BUF: lambda vals: vals[0],
}


@dataclass
class SimResult:
    """Waveforms of all gates for one pattern pair (fault-free or faulty)."""

    circuit: Circuit
    waveforms: list[Waveform]

    def waveform_of(self, gate: int) -> Waveform:
        return self.waveforms[gate]

    def output_waveforms(self) -> dict[str, Waveform]:
        """Waveforms at every observation point keyed by point name."""
        return {op.name: self.waveforms[op.gate]
                for op in self.circuit.observation_points()}


class WaveformSimulator:
    """Timing-accurate waveform simulation of a finalized circuit."""

    def __init__(self, circuit: Circuit, *,
                 inertial: float = DEFAULT_INERTIAL_PS) -> None:
        if not circuit.is_finalized:
            raise ValueError("circuit must be finalized before simulation")
        self.circuit = circuit
        self.inertial = inertial
        # Evaluation order restricted to combinational gates.
        self._eval_order = [i for i in circuit.topo_order
                            if GateKind.is_combinational(circuit.gates[i].kind)]
        # Largest topo position among a gate's combinational consumers
        # (-1 when none): the incremental sweep's frontier-limit lookup.
        pos = circuit.topo_positions
        self._max_consumer_pos = [
            max((pos[v] for v, _pin in circuit.fanouts(g.index)
                 if circuit.gates[v].kind != GateKind.DFF), default=-1)
            for g in circuit.gates
        ]

    # ------------------------------------------------------------------
    # Fault-free simulation
    # ------------------------------------------------------------------
    def simulate(self, launch: Sequence[int], capture: Sequence[int]) -> SimResult:
        """Simulate one pattern pair.

        ``launch``/``capture`` assign v1/v2 to the circuit's sources in the
        order returned by :meth:`Circuit.sources`.
        """
        sources = self.circuit.sources()
        if len(launch) != len(sources) or len(capture) != len(sources):
            raise ValueError(
                f"pattern length {len(launch)}/{len(capture)} does not match "
                f"{len(sources)} sources")
        n = len(self.circuit.gates)
        waves: list[Waveform | None] = [None] * n
        for value_pair, idx in zip(zip(launch, capture), sources):
            v1, v2 = value_pair
            gate = self.circuit.gates[idx]
            if gate.kind == GateKind.CONST0:
                waves[idx] = Waveform.constant(0)
            elif gate.kind == GateKind.CONST1:
                waves[idx] = Waveform.constant(1)
            elif v1 == v2:
                waves[idx] = Waveform.constant(v2)
            else:
                waves[idx] = Waveform(v1, [(0.0, v2)])
        for idx in self._eval_order:
            gate = self.circuit.gates[idx]
            inputs = [waves[s] for s in gate.fanin]
            waves[idx] = self._eval_gate(gate.kind, inputs, gate.pin_delays)
        # DFF outputs hold their launch value; give them their source wave.
        result = [w if w is not None else Waveform.constant(0) for w in waves]
        return SimResult(self.circuit, result)

    # ------------------------------------------------------------------
    # Faulty simulation (event-driven incremental over the cone schedule)
    # ------------------------------------------------------------------
    def _faulty_site_wave(self, waves: list[Waveform],
                          fault: "SmallDelayFault") -> Waveform:
        """Waveform at the fault site with the extra delay injected."""
        site = fault.site
        d_rise = fault.delta if fault.slow_to_rise else 0.0
        d_fall = 0.0 if fault.slow_to_rise else fault.delta
        if site.is_output_pin:
            # Delay the gate's own output transitions.
            return waves[site.gate].delayed(
                d_rise, d_fall, inertial=self.inertial)
        # Delay the branch signal seen by this gate only.
        gate = self.circuit.gates[site.gate]
        inputs = [waves[s] for s in gate.fanin]
        inputs[site.pin] = inputs[site.pin].delayed(
            d_rise, d_fall, inertial=self.inertial)
        return self._eval_gate(gate.kind, inputs, gate.pin_delays)

    def simulate_fault(self, base: SimResult, fault: "SmallDelayFault") -> SimResult:
        """Faulty waveforms for ``fault`` given the fault-free result.

        Change-driven sweep over the site's precomputed cone schedule
        (:meth:`Circuit.cone_schedule`): a gate is re-evaluated only when at
        least one fanin waveform actually changed, and the sweep terminates
        as soon as no changed gate can influence the remaining schedule —
        small-delay effects frequently die at the inertial filter, so most
        cones converge after a few gates.  Unaffected gates *share* their
        waveform object with ``base``.
        """
        circuit = self.circuit
        waves = list(base.waveforms)
        site_gate = fault.site.gate
        new_site = self._faulty_site_wave(waves, fault)
        if new_site == waves[site_gate]:
            # The fault never perturbs its own site under this pattern.
            return SimResult(circuit, waves)
        waves[site_gate] = new_site

        gates = circuit.gates
        pos = circuit.topo_positions
        consumer_pos = self._max_consumer_pos
        changed = bytearray(len(waves))
        changed[site_gate] = 1
        # ``limit``: the largest topo position any changed gate can still
        # reach directly; once the schedule passes it the frontier is empty.
        limit = consumer_pos[site_gate]
        eval_gate = self._eval_gate
        for idx in circuit.cone_schedule(site_gate):
            if pos[idx] > limit:
                break  # frontier exhausted: nothing downstream can change
            g = gates[idx]
            for s in g.fanin:
                if changed[s]:
                    break
            else:
                continue  # no fanin changed — waveform identical to base
            new = eval_gate(g.kind, [waves[s] for s in g.fanin], g.pin_delays)
            if new == waves[idx]:
                continue  # change died here (inertial filter / masking)
            waves[idx] = new
            changed[idx] = 1
            cp = consumer_pos[idx]
            if cp > limit:
                limit = cp
        return SimResult(circuit, waves)

    # ------------------------------------------------------------------
    # Gate evaluation
    # ------------------------------------------------------------------
    def _eval_gate(self, kind: str, inputs: list[Waveform],
                   pin_delays: tuple[tuple[float, float], ...]) -> Waveform:
        """Output waveform of one gate from its input waveforms."""
        if len(inputs) == 1 and (kind == GateKind.NOT or kind == GateKind.BUF):
            # NOT/BUF fast path: each input edge maps to exactly one
            # candidate output edge — no timeline merge needed.
            w = inputs[0]
            invert = kind == GateKind.NOT
            out_init = (1 - w.initial) if invert else w.initial
            if not w.events:
                return Waveform.constant(out_init)
            d_rise, d_fall = pin_delays[0]
            if invert:
                cand = [(t + (d_rise if v == 0 else d_fall), 1 - v)
                        for t, v in w.events]
            else:
                cand = [(t + (d_rise if v == 1 else d_fall), v)
                        for t, v in w.events]
            return scheduled_waveform(out_init, cand, self.inertial)

        fn = _EVAL_FN.get(kind)
        if fn is None:
            raise ValueError(f"cannot evaluate gate kind {kind!r}")
        init_vals = [w.initial for w in inputs]
        out_init = fn(init_vals)

        # Merged timeline of input events: (time, pin, new value).  Tuples
        # sort lexicographically — same order as the old ``key=lambda``
        # (ties on time fall back to pin index, matching the stable sort
        # over pin-ordered insertion) without per-element key calls.
        timeline: list[tuple[float, int, int]] = []
        for pin, w in enumerate(inputs):
            if w.events:
                timeline += [(t, pin, v) for t, v in w.events]
        if not timeline:
            return Waveform.constant(out_init)
        timeline.sort()

        cur_vals = init_vals
        cur_out = out_init
        out_events: list[tuple[float, int]] = []
        i = 0
        n = len(timeline)
        while i < n:
            t = timeline[i][0]
            changed: list[int] = []
            while i < n:
                ti, pin, v = timeline[i]
                if ti - t > 1e-9:
                    break
                if cur_vals[pin] != v:
                    cur_vals[pin] = v
                    changed.append(pin)
                i += 1
            if not changed:
                continue  # no pin changed value: output cannot toggle
            new_out = fn(cur_vals)
            if new_out != cur_out:
                # Charge the slowest simultaneously-toggling pin.
                if len(changed) == 1:
                    p = changed[0]
                    delay = pin_delays[p][0] if new_out == 1 else pin_delays[p][1]
                else:
                    delay = max(
                        pin_delays[p][0] if new_out == 1 else pin_delays[p][1]
                        for p in changed)
                out_events.append((t + delay, new_out))
                cur_out = new_out
        # Inertial scheduling in causal order: unequal rise/fall delays can
        # make a later edge overtake an earlier one — the pulse annihilates
        # rather than surviving as a spurious permanent value change.
        return scheduled_waveform(out_init, out_events, self.inertial)
