"""Bit-parallel two-valued logic simulation.

Packs one test pattern per bit, so a single topological sweep evaluates
*all* patterns of a test set at once.  Used by the ATPG for random-pattern
fault grading, fault dropping and static compaction.

The packed patterns of a gate are one arbitrary-width Python integer
(:meth:`BitParallelSimulator.pack_vectors`,
:meth:`BitParallelSimulator.simulate`).  Stuck-at grading runs on these,
either one fault at a time (:meth:`~BitParallelSimulator.stuck_at_detect_mask`,
the seed's single-fault propagation) or through the *packed fault×pattern
kernel* (:meth:`~BitParallelSimulator.stuck_at_detect_masks`): candidate
faults are sorted by site position and laid side by side in one Python int
per chunk of :data:`CHUNK_BITS` bits, each fault in its own byte-aligned
block of pattern bits.  The fault-free words are replicated into every
block by a repunit multiply, each fault's site is forced by set/clear masks
on its own block, and one sweep over the union of the chunk's fanout cones
evaluates every fault against every pattern at once.  Bitwise gate
operations never carry between bits, so the blocks are independent
single-fault simulations.

Both grading paths produce bit-identical detect masks (guarded by
``tests/test_parallel_sim_matrix.py`` and the ATPG golden tests).
"""

from __future__ import annotations

from functools import reduce
from heapq import heappop, heappush
from operator import and_, or_, xor
from typing import Mapping, Sequence

from repro.faults.models import StuckAtFault
from repro.netlist.circuit import Circuit, GateKind

#: Bits per Python int of one packed fault×pattern grading chunk.  Large
#: enough that the per-gate interpreter overhead of a sweep is spread over
#: thousands of fault×pattern bits, small enough that a chunk's faults stay
#: close together in the circuit (short union cone).
CHUNK_BITS = 2 ** 14

#: Gate kind → (big-int reduction operator or None for unary, invert).
_INT_OPS = {
    GateKind.AND: (and_, False),
    GateKind.NAND: (and_, True),
    GateKind.OR: (or_, False),
    GateKind.NOR: (or_, True),
    GateKind.XOR: (xor, False),
    GateKind.XNOR: (xor, True),
    GateKind.BUF: (None, False),
    GateKind.NOT: (None, True),
}


def _eval_word(kind: str, words: Sequence[int], mask: int) -> int:
    """Evaluate one gate over packed pattern words (reference engine)."""
    if kind == GateKind.AND or kind == GateKind.NAND:
        w = mask
        for x in words:
            w &= x
        return w if kind == GateKind.AND else (mask ^ w)
    if kind == GateKind.OR or kind == GateKind.NOR:
        w = 0
        for x in words:
            w |= x
        return w if kind == GateKind.OR else (mask ^ w)
    if kind == GateKind.XOR or kind == GateKind.XNOR:
        w = 0
        for x in words:
            w ^= x
        return w if kind == GateKind.XOR else (mask ^ w)
    if kind == GateKind.NOT:
        return mask ^ words[0]
    if kind == GateKind.BUF:
        return words[0]
    raise ValueError(f"cannot evaluate gate kind {kind!r}")


class BitParallelSimulator:
    """Packed-pattern logic simulation of a finalized circuit."""

    def __init__(self, circuit: Circuit) -> None:
        if not circuit.is_finalized:
            raise ValueError("circuit must be finalized before simulation")
        self.circuit = circuit
        self._order = [i for i in circuit.topo_order
                       if GateKind.is_combinational(circuit.gates[i].kind)]
        self._obs_gates = sorted({op.gate
                                  for op in circuit.observation_points()})
        # Constant generators: their rows ignore the packed pattern bits.
        self._const0 = [g.index for g in circuit.gates
                        if g.kind == GateKind.CONST0]
        self._const1 = [g.index for g in circuit.gates
                        if g.kind == GateKind.CONST1]
        # Big-int plan, built lazily on first use.
        self._plan: list[tuple] | None = None

    def _build_int_plan(self) -> None:
        """Big-int plan: ``(gate, operator, invert, fanin)`` per
        combinational gate in topological order, each gate's position in
        it, the positions of its combinational fanout, and observation
        flags (the grading kernel's heap keys and detect points)."""
        circuit = self.circuit
        n = len(circuit.gates)
        plan = []
        plan_pos = [-1] * n  # -1: a source, never evaluated
        for pos, idx in enumerate(self._order):
            g = circuit.gates[idx]
            op, invert = _INT_OPS[g.kind]
            plan.append((idx, op, invert, g.fanin))
            plan_pos[idx] = pos
        fanout_pos: list[set[int]] = [set() for _ in range(n)]
        for idx, _op, _invert, fanin in plan:
            for s in fanin:
                fanout_pos[s].add(plan_pos[idx])
        self._plan_pos = plan_pos
        self._fanout_pos = [sorted(f) for f in fanout_pos]
        self._is_obs = bytearray(n)
        for idx in self._obs_gates:
            self._is_obs[idx] = 1
        self._plan = plan

    # ------------------------------------------------------------------
    # Fault-free simulation (Python big-int words)
    # ------------------------------------------------------------------
    def simulate(self, source_words: Mapping[int, int], width: int) -> list[int]:
        """Fault-free packed values for every gate.

        ``source_words`` maps source gate index → packed word; missing
        sources default to 0 and constant generators hold their value
        whatever their word says.  ``width`` is the number of packed
        patterns.
        """
        mask = (1 << width) - 1
        words = [0] * len(self.circuit.gates)
        for idx, w in source_words.items():
            words[idx] = w & mask
        for idx in self._const0:
            words[idx] = 0
        for idx in self._const1:
            words[idx] = mask
        if self._plan is None:
            self._build_int_plan()
        get = words.__getitem__
        for idx, op, invert, fanin in self._plan:
            if op is None:
                w = words[fanin[0]]
            elif len(fanin) == 2:
                w = op(words[fanin[0]], words[fanin[1]])
            else:
                w = reduce(op, map(get, fanin))
            words[idx] = w ^ mask if invert else w
        return words

    def activity_words(self, source_toggle_words: Mapping[int, int],
                       width: int) -> list[int]:
        """Transitive toggle activity per gate (one bit per pattern).

        ``source_toggle_words`` maps source gate index → packed word whose
        bit ``p`` is set when the source toggles between the launch and
        capture vector of pattern ``p``.  The word is OR-propagated through
        the combinational DAG: bit ``p`` of gate ``g`` is set iff *some*
        source in the fanin cone of ``g`` toggles under pattern ``p``.

        A clear bit is a guarantee: the waveform at ``g`` is constant under
        that pattern (no transition of either polarity, hazards included),
        which is what the activation pre-grading pass of the fault
        simulator prunes on.  A set bit only means the waveform *may*
        toggle (logic masking can still keep it constant).
        """
        mask = (1 << width) - 1
        words = [0] * len(self.circuit.gates)
        for idx, w in source_toggle_words.items():
            words[idx] = w & mask
        gates = self.circuit.gates
        for idx in self._order:
            acc = 0
            for s in gates[idx].fanin:
                acc |= words[s]
            words[idx] = acc
        return words

    def pack_vectors(self, vectors: Sequence[Sequence[int]]) -> tuple[dict[int, int], int]:
        """Pack per-pattern source vectors into words.

        Each vector assigns 0/1 to the sources in :meth:`Circuit.sources`
        order (don't-cares must be filled beforehand).  Returns
        ``(source_words, width)``.
        """
        sources = self.circuit.sources()
        width = len(vectors)
        out = {idx: 0 for idx in sources}
        for p, vec in enumerate(vectors):
            if len(vec) != len(sources):
                raise ValueError(
                    f"vector {p} has {len(vec)} values, expected {len(sources)}")
            bit = 1 << p
            for idx, v in zip(sources, vec):
                if v == 1:
                    out[idx] |= bit
                elif v != 0:
                    raise ValueError("pack_vectors needs fully-specified vectors")
        return out, width

    # ------------------------------------------------------------------
    # Stuck-at fault detection (reference engine: one cone walk per fault)
    # ------------------------------------------------------------------
    def stuck_at_detect_mask(self, good_words: Sequence[int],
                             fault: StuckAtFault, width: int) -> int:
        """Bitmask of patterns whose responses expose the stuck-at fault."""
        mask = (1 << width) - 1
        circuit = self.circuit
        site = fault.site
        forced = mask if fault.value else 0

        faulty: dict[int, int] = {}

        def word_of(idx: int) -> int:
            return faulty.get(idx, good_words[idx])

        start = site.gate
        g = circuit.gates[start]
        if site.is_output_pin:
            faulty[start] = forced
        else:
            ins = [word_of(s) for s in g.fanin]
            ins[site.pin] = forced
            faulty[start] = _eval_word(g.kind, ins, mask)
        if faulty[start] == good_words[start]:
            # The forced value never changes the site signal: no effect.
            return 0

        cone = circuit.fanout_cone(start)
        for idx in self._order:
            if idx not in cone:
                continue
            g = circuit.gates[idx]
            faulty[idx] = _eval_word(
                g.kind, [word_of(s) for s in g.fanin], mask)

        detect = 0
        for og in self._obs_gates:
            detect |= word_of(og) ^ good_words[og]
        return detect & mask

    # ------------------------------------------------------------------
    # Packed fault×pattern grading (big-int words)
    # ------------------------------------------------------------------
    def stuck_at_detect_masks(self, good: Sequence[int],
                              sites: Sequence[tuple[int, int, int]],
                              width: int,
                              care: Sequence[int] | None = None) -> list[int]:
        """Detect masks of many stuck-at faults in one packed kernel.

        ``good`` is the fault-free word list from :meth:`simulate`;
        ``sites`` holds one ``(gate, pin, stuck value)`` triple per fault
        at a combinational gate (pin ``-1`` is the output pin, as in
        :class:`FaultSite`).  The
        optional ``care`` masks are ANDed into the result per fault (the
        activation of a transition fault).  Returns one mask per site,
        bit-identical to :meth:`stuck_at_detect_mask` (ANDed with care).

        Only *candidates* are simulated: faults with a nonzero care mask
        whose forced value changes the site output under some cared-for
        pattern — every other fault detects nothing.
        """
        n = len(sites)
        out = [0] * n
        if not n or width <= 0:
            return out
        mask = (1 << width) - 1
        if self._plan is None:
            self._build_int_plan()
        plan, plan_pos = self._plan, self._plan_pos
        candidates: list[tuple[int, int]] = []
        for i, (gate, pin, value) in enumerate(sites):
            if plan_pos[gate] < 0:
                raise ValueError(f"fault site {gate} is not a "
                                 "combinational gate")
            c = mask if care is None else care[i]
            if not c:
                continue
            forced = mask if value else 0
            if pin >= 0:
                _idx, op, invert, fanin = plan[plan_pos[gate]]
                if not (good[fanin[pin]] ^ forced) & c:
                    continue  # the pin already carries the forced value
                ins = [good[s] for s in fanin]
                ins[pin] = forced
                forced = reduce(op, ins) if op is not None else ins[0]
                if invert:
                    forced ^= mask
            if (forced ^ good[gate]) & c:
                candidates.append((plan_pos[gate], i))
        if not candidates:
            return out
        candidates.sort()
        block = (width + 7) >> 3  # bytes per fault
        per_chunk = max(1, CHUNK_BITS // (block * 8))
        for lo in range(0, len(candidates), per_chunk):
            chunk = [i for _pos, i in candidates[lo:lo + per_chunk]]
            det = self._sweep_chunk(good, [sites[i] for i in chunk], mask,
                                    block)
            if care is not None:
                det &= int.from_bytes(b"".join(
                    care[i].to_bytes(block, "little") for i in chunk),
                    "little")
            raw = det.to_bytes(block * len(chunk), "little")
            for k, i in enumerate(chunk):
                out[i] = int.from_bytes(raw[k * block:(k + 1) * block],
                                        "little")
        return out

    def _sweep_chunk(self, good: Sequence[int],
                     sites: Sequence[tuple[int, int, int]], mask: int,
                     block: int) -> int:
        """Packed detect word of one chunk (fault ``k`` in block ``k``).

        Every gate's fault-free word is replicated into all blocks by a
        multiply with the repunit ``Σ 2**(8·block·k)``; each site is forced
        by set/clear masks confined to its own block (input pins before
        the gate evaluates, output pins after).  The sweep visits gates in
        topological order through a heap of plan positions, seeded with
        the sites; a gate whose result differs from its replicated
        fault-free word schedules its fanout, so the sweep covers exactly
        the union of the chunk's live cones, once.
        """
        bits = block * 8
        rep = int.from_bytes((b"\x01" + bytes(block - 1)) * len(sites),
                             "little")
        full = mask * rep
        # gate → [clear, set] output masks; gate → {pin: [clear, set]}.
        out_force: dict[int, list[int]] = {}
        pin_force: dict[int, dict[int, list[int]]] = {}
        for k, (gate, pin, value) in enumerate(sites):
            if pin < 0:
                slot = out_force.setdefault(gate, [0, 0])
            else:
                slot = pin_force.setdefault(gate, {}).setdefault(pin, [0, 0])
            slot[value] |= mask << (k * bits)
        # The chunk's word of every gate read so far: replicated
        # fault-free, or faulty where it differs.
        words: dict[int, int] = {}
        is_obs = self._is_obs
        det = 0
        plan, fanout_pos = self._plan, self._fanout_pos
        plan_pos = self._plan_pos
        heap = sorted({plan_pos[gate] for gate, _pin, _value in sites})
        queued = set(heap)
        while heap:
            idx, op, invert, fanin = plan[heappop(heap)]
            ins = []
            for s in fanin:
                w = words.get(s)
                if w is None:
                    w = words[s] = good[s] * rep
                ins.append(w)
            pins = pin_force.get(idx)
            if pins is not None:
                for pin, (clear, set_) in pins.items():
                    ins[pin] = (ins[pin] & ~clear) | set_
            w = reduce(op, ins) if op is not None else ins[0]
            if invert:
                w ^= full
            outs = out_force.get(idx)
            if outs is not None:
                w = (w & ~outs[0]) | outs[1]
            ref = good[idx] * rep
            words[idx] = w
            if w != ref:
                if is_obs[idx]:
                    det |= w ^ ref
                for q in fanout_pos[idx]:
                    if q not in queued:
                        queued.add(q)
                        heappush(heap, q)
        return det
