"""The D-algorithm (Roth 1966) — independent stuck-at test generation.

A second, structurally different ATPG engine used to cross-check PODEM:
where PODEM decides only on primary inputs, the D-algorithm assigns
*internal* lines, advancing a D-frontier toward the outputs and discharging
a J-frontier of yet-unjustified internal assignments.  Agreement of the two
engines on testability verdicts (and simulation-verified tests from both)
is the correctness evidence for the ATPG layer.

Values are composite pairs ``(good, faulty)`` with components in
``{0, 1, X}`` — the five-valued D-calculus (``D = (1,0)``, ``D' = (0,1)``)
plus partially-specified states.

Scope: single stuck-at faults at gate *output* pins (the cross-check
corpus).  Input-pin faults are covered by PODEM; supporting them here would
add per-branch value tracking without strengthening the cross-check.

Completeness: the engine is *sound* (every returned test is real — the
suite verifies each one by independent simulation) but knowingly
incomplete: the simplified J-frontier justifies good-machine values only,
so a handful of testable faults with reconvergent side conditions inside
the fault cone are reported untestable.  The flow itself always uses
PODEM; the D-algorithm exists as the independent cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from repro.faults.models import StuckAtFault
from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.logic import X, controlling_value, eval_ternary


@dataclass
class DalgStats:
    decisions: int = 0
    backtracks: int = 0
    aborted: bool = False


class DAlgorithm:
    """D-algorithm engine bound to one finalized circuit."""

    def __init__(self, circuit: Circuit, *, max_backtracks: int = 2000,
                 seed: int = 0) -> None:
        if not circuit.is_finalized:
            raise ValueError("circuit must be finalized before ATPG")
        self.circuit = circuit
        self.max_backtracks = max_backtracks
        self._rng = random.Random(seed)
        self._order = [i for i in circuit.topo_order
                       if GateKind.is_combinational(circuit.gates[i].kind)]
        self._obs = sorted({op.gate for op in circuit.observation_points()})
        self._sources = set(circuit.sources())
        self.stats = DalgStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self, fault: StuckAtFault) -> dict[int, int] | None:
        """Source assignment detecting the (output-pin) stuck-at fault."""
        if not fault.site.is_output_pin:
            raise ValueError("the D-algorithm engine handles output-pin "
                             "faults; use PODEM for input-pin sites")
        self.stats = DalgStats()
        site = fault.site.gate
        activation = 1 - fault.value
        # Lines outside the fault's fanout cone always carry equal
        # good/faulty values — a powerful implication the engine exploits.
        self._cone = self.circuit.fanout_cone(site) | {site}
        # Composite line values; the site line carries D / D'.
        values: dict[int, tuple[int, int]] = {
            site: (activation, fault.value)}
        try:
            solution = self._search(values, fault)
        except _Abort:
            self.stats.aborted = True
            return None
        if solution is None:
            return None
        return {s: solution[s][0] for s in self._sources
                if s in solution and solution[s][0] != X}

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _search(self, values: dict[int, tuple[int, int]],
                fault: StuckAtFault) -> dict[int, tuple[int, int]] | None:
        values = self._imply(values, fault)
        if values is None:
            self._note_backtrack()
            return None
        if not self._error_at_output(values):
            frontier = self._d_frontier(values)
            if not frontier:
                self._note_backtrack()
                return None
            for gate in frontier:
                g = self.circuit.gates[gate]
                ctrl = controlling_value(g.kind)
                nc = 1 - ctrl if ctrl is not None else None
                trial = dict(values)
                ok = True
                for src in g.fanin:
                    vg, vf = trial.get(src, (X, X))
                    if vg != X and vf != X and vg != vf:
                        continue  # the D-carrying input drives propagation
                    if vg == X and vf == X:
                        if nc is None:
                            # XOR-family: any specified side value works.
                            side = self._rng.randint(0, 1)
                        else:
                            side = nc
                        trial[src] = ((side, side) if src not in self._cone
                                      else (side, X))
                    elif nc is not None and (vg == ctrl or vf == ctrl):
                        ok = False
                        break
                if not ok or trial == values:
                    continue  # blocked or no progress through this gate
                self.stats.decisions += 1
                result = self._search(trial, fault)
                if result is not None:
                    return result
            self._note_backtrack()
            return None
        # Error visible: discharge the J-frontier.
        j_gate = self._pick_j_frontier(values, fault)
        if j_gate is None:
            return values  # fully justified test cube
        g = self.circuit.gates[j_gate]
        target = values[j_gate]
        for combo in self._justifying_combos(g, target, values):
            trial = dict(values)
            trial.update(combo)
            self.stats.decisions += 1
            result = self._search(trial, fault)
            if result is not None:
                return result
        self._note_backtrack()
        return None

    def _note_backtrack(self) -> None:
        self.stats.backtracks += 1
        if self.stats.backtracks > self.max_backtracks:
            raise _Abort

    # ------------------------------------------------------------------
    # Implication and frontiers
    # ------------------------------------------------------------------
    def _imply(self, values: dict[int, tuple[int, int]],
               fault: StuckAtFault) -> dict[int, tuple[int, int]] | None:
        """Forward implication; None on contradiction."""
        out = dict(values)
        site = fault.site.gate
        for idx in self._order:
            g = self.circuit.gates[idx]
            in_g = [out.get(s, (X, X))[0] for s in g.fanin]
            in_f = [out.get(s, (X, X))[1] for s in g.fanin]
            vg = eval_ternary(g.kind, in_g)
            vf = eval_ternary(g.kind, in_f)
            if idx not in self._cone:
                vf = vg  # untouched by the fault: both machines agree
            if idx == site:
                # The faulty component of the site line is stuck.
                vf = fault.value
                if vg != X and vg != 1 - fault.value:
                    return None  # activation impossible under this cube
            have = out.get(idx)
            if have is None:
                if vg != X or vf != X:
                    out[idx] = (vg, vf)
                continue
            hg, hf = have
            # Merge: implied values must not contradict assigned ones.
            if vg != X and hg != X and vg != hg:
                return None
            if vf != X and hf != X and vf != hf:
                return None
            out[idx] = (vg if vg != X else hg, vf if vf != X else hf)
        return out

    def _error_at_output(self, values: dict[int, tuple[int, int]]) -> bool:
        return any(
            values.get(o, (X, X))[0] != X
            and values.get(o, (X, X))[1] != X
            and values[o][0] != values[o][1]
            for o in self._obs)

    def _d_frontier(self, values: dict[int, tuple[int, int]]) -> list[int]:
        out = []
        for idx in self._order:
            vg, vf = values.get(idx, (X, X))
            if vg != X and vf != X:
                continue
            g = self.circuit.gates[idx]
            for s in g.fanin:
                sg, sf = values.get(s, (X, X))
                if sg != X and sf != X and sg != sf:
                    out.append(idx)
                    break
        return out

    def _pick_j_frontier(self, values: dict[int, tuple[int, int]],
                         fault: StuckAtFault) -> int | None:
        """An assigned internal line whose inputs do not yet imply it."""
        site = fault.site.gate
        for idx in self._order:
            assigned = values.get(idx)
            if assigned is None:
                continue
            g = self.circuit.gates[idx]
            if not GateKind.is_combinational(g.kind):
                continue
            in_g = [values.get(s, (X, X))[0] for s in g.fanin]
            vg = eval_ternary(g.kind, in_g)
            want = assigned[0]
            if want != X and vg == X:
                return idx
            if idx == site and want != X and vg == X:
                return idx
        return None

    def _justifying_combos(self, g, target: tuple[int, int],
                           values: dict[int, tuple[int, int]]):
        """Input assignments making the gate's *good* output = target."""
        want = target[0]
        if want == X:
            return
        free = [s for s in g.fanin
                if values.get(s, (X, X))[0] == X]
        fixed = {s: values.get(s, (X, X))[0] for s in g.fanin if
                 values.get(s, (X, X))[0] != X}
        if not free:
            return
        seen: set[tuple[tuple[int, int], ...]] = set()
        for combo in product((0, 1), repeat=len(free)):
            in_vals = [fixed.get(s, None) for s in g.fanin]
            it = iter(combo)
            full = [v if v is not None else next(it) for v in in_vals]
            if eval_ternary(g.kind, full) != want:
                continue
            # Minimize: only keep assignments for pins that matter (all,
            # here) — dedupe identical dicts.
            assignment = tuple(
                (s, c) for s, c in zip(free, combo))
            if assignment in seen:
                continue
            seen.add(assignment)
            yield {s: ((c, c) if s not in self._cone else (c, X))
                   for s, c in assignment}


class _Abort(Exception):
    pass


def cross_check_testability(circuit: Circuit, faults, *,
                            seed: int = 0) -> dict[str, int]:
    """Compare PODEM and D-algorithm verdicts on output-pin stuck-at faults.

    Counter semantics (aborted runs excluded — a backtrack budget is not a
    verdict):

    * ``agree``      — identical verdicts,
    * ``podem_miss`` — the D-algorithm found a (simulation-verifiable) test
      for a fault PODEM proved untestable.  PODEM is the complete engine;
      any nonzero value here is a PODEM bug.
    * ``dalg_miss``  — PODEM found a test the D-algorithm missed.  The
      D-algorithm's simplified J-frontier justifies good-machine values
      only, so it is knowingly incomplete on reconvergent side conditions
      inside the fault cone; a small count here is expected and harmless
      (it never affects the flow, which uses PODEM).
    """
    from repro.atpg.podem import Podem

    podem = Podem(circuit)
    dalg = DAlgorithm(circuit, seed=seed)
    agree = podem_miss = dalg_miss = aborted = 0
    for fault in faults:
        if not fault.site.is_output_pin:
            continue
        p = podem.generate(fault)
        p_aborted = podem.stats.aborted
        d = dalg.generate(fault)
        d_aborted = dalg.stats.aborted
        if p_aborted or d_aborted:
            aborted += 1
            continue
        if (p is None) == (d is None):
            agree += 1
        elif d is not None:
            podem_miss += 1
        else:
            dalg_miss += 1
    return {"agree": agree, "podem_miss": podem_miss,
            "dalg_miss": dalg_miss, "aborted": aborted}
