"""PODEM test generation for stuck-at faults on the combinational core.

Classic PODEM (Goel 1981): decisions are made only on primary inputs (here:
all combinational sources, i.e. PIs and scan flip-flops — the enhanced-scan
model standard in delay testing), implications are computed by forward
three-valued simulation of the good and the faulty machine, and conflicts are
resolved by chronological backtracking.

A search step costs O(fault cone), not O(circuit): the good machine is
implied event by event inside the search region and rolled back from undo
logs, the faulty machine is refreshed and re-implied only on the site's cone
(:meth:`Podem._faulty`), and the backtrace walks level-presorted fanins.

Besides full test generation (:meth:`Podem.generate`), a justification-only
mode (:meth:`Podem.justify`) finds an input assignment that sets an internal
signal to a required value — used for the *launch* vector of a transition
test, which only needs to establish the initial value at the fault site.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.models import StuckAtFault
from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.logic import X, controlling_value, eval_ternary

#: Gate kinds whose output inverts the justified input objective.
_INVERTING = {GateKind.NAND, GateKind.NOR, GateKind.NOT, GateKind.XNOR}


@dataclass
class PodemStats:
    """Bookkeeping for one generation attempt."""

    decisions: int = 0
    backtracks: int = 0
    aborted: bool = False


class Untestable(Exception):
    """The fault is proven untestable (decision space exhausted)."""


class Aborted(Exception):
    """The backtrack limit was exceeded before a verdict."""


class Podem:
    """PODEM engine bound to one finalized circuit.

    The engine is deterministic and history-free: every public call starts
    from (and returns to) the all-X idle state, so the same query always
    yields the same assignment and :attr:`stats`.
    """

    def __init__(self, circuit: Circuit, *, max_backtracks: int = 512) -> None:
        if not circuit.is_finalized:
            raise ValueError("circuit must be finalized before ATPG")
        self.circuit = circuit
        self.max_backtracks = max_backtracks
        self.stats = PodemStats()
        gates = circuit.gates
        n = len(gates)
        comb = [GateKind.is_combinational(g.kind) for g in gates]
        # Per-gate flat tables read on every implication step: kind, fanin,
        # combinational fanout, level, and source / observation /
        # inverting flags.
        self._gk = [g.kind for g in gates]
        self._gf = [g.fanin for g in gates]
        self._gfo = [
            sorted({v for v, _pin in circuit.fanouts(i) if comb[v]})
            for i in range(n)
        ]
        self._lvl = lvl = [circuit.level(i) for i in range(n)]
        # Fanins stable-sorted by level: the first X entry is the lowest-
        # level X input, ties going to the earlier pin (the backtrace rule).
        self._gf_lvl = [sorted(f, key=lvl.__getitem__) for f in self._gf]
        # D-frontier order: deepest level first, then topological position.
        topo = circuit.topo_positions
        self._frontier_key = [(circuit.depth - lvl[i]) * n + topo[i]
                              for i in range(n)]
        self._is_src = bytearray(n)
        for i in circuit.sources():
            self._is_src[i] = 1
        self._is_obs = bytearray(n)
        for op in circuit.observation_points():
            self._is_obs[op.gate] = 1
        self._inv = bytearray(g.kind in _INVERTING for g in gates)
        # Persistent good- and faulty-machine values (the good machine is
        # all X between calls; the faulty one is only meaningful on the
        # current site's sync set), memoized per-site sync sets, the
        # ascending sources of each backtraced fanin cone, and the most
        # recent generation region.
        self._good = self._fresh_values()
        self._faulty_values = self._fresh_values()
        self._syncs: dict[int, tuple[int, ...]] = {}
        self._cone_srcs: dict[int, list[int]] = {}
        self._last_region: tuple[int, frozenset[int]] = (-1, frozenset())
        # Implication region: 1 = the gate may be implied, 2 = scheduled
        # in the running pass, 0 = outside the region of the current call
        # (its value is never read, so it is never updated).
        self._mark = bytearray(n)
        # Levelized event queues: level = 1 + max fanin level, so scanning
        # buckets in ascending level order is a valid topological schedule
        # with plain list appends instead of heap operations.
        self._buckets: list[list[int]] = [
            [] for _ in range(circuit.depth + 1)]
        # Ternary truth tables up to arity 4, indexed radix-3
        # (((a*3 + b)*3 + c)*3 + d) and shared per (kind, arity).  ``_ar``
        # is the table arity; 0 marks sources and wider gates, which fall
        # back to `eval_ternary`.
        table_memo: dict[tuple[str, int], tuple[int, ...]] = {}
        self._tab: list[tuple[int, ...] | None] = [None] * n
        self._ar = [0] * n
        for g in gates:
            arity = len(g.fanin)
            if not comb[g.index] or arity > 4:
                continue
            key = (g.kind, arity)
            tab = table_memo.get(key)
            if tab is None:
                values = [[]]
                for _ in range(arity):
                    values = [v + [x] for v in values for x in (0, 1, X)]
                tab = tuple(eval_ternary(g.kind, v) for v in values)
                table_memo[key] = tab
            self._tab[g.index] = tab
            self._ar[g.index] = arity

    def _fresh_values(self) -> list[int]:
        values = [X] * len(self.circuit.gates)
        for g in self.circuit.gates:
            if g.kind == GateKind.CONST0:
                values[g.index] = 0
            elif g.kind == GateKind.CONST1:
                values[g.index] = 1
        return values

    def _sync_set(self, site: int) -> tuple[int, ...]:
        """The site, its fanout cone and the cone gates' fanins: every gate
        whose faulty value a search at ``site`` reads."""
        sync = self._syncs.get(site)
        if sync is None:
            gf = self._gf
            cone = self.circuit.cone_schedule(site)
            members = dict.fromkeys((site, *cone))
            for g in cone:
                members.update(dict.fromkeys(gf[g]))
            sync = self._syncs[site] = tuple(members)
        return sync

    def _cone_sources(self, gate: int) -> list[int]:
        """Sources of ``gate``'s fanin cone in ascending index order."""
        srcs = self._cone_srcs.get(gate)
        if srcs is None:
            is_src = self._is_src
            srcs = sorted(s for s in self.circuit.fanin_cone(gate)
                          if is_src[s])
            self._cone_srcs[gate] = srcs
        return srcs

    # ------------------------------------------------------------------
    # Implication regions
    # ------------------------------------------------------------------
    def _site_region(self, site: int) -> frozenset[int]:
        """Gates whose values a search for a fault at ``site`` reads.

        The fanin closure of the site gate and its fanout cone: the union
        of the fanin cones of the cone's sinks (gates without
        combinational fanout), since every cone gate feeds some sink.
        Fanin-closed, so implication restricted to it is exact.
        """
        last_site, region = self._last_region
        if last_site != site:
            circuit = self.circuit
            gfo = self._gfo
            sinks = [g for g in (site, *circuit.cone_schedule(site))
                     if not gfo[g]]
            region = frozenset().union(
                *(circuit.fanin_cone(g) for g in sinks))
            self._last_region = (site, region)
        return region

    def _enter(self, region) -> None:
        mark = self._mark
        for g in region:
            mark[g] = 1

    def _leave(self, region) -> None:
        mark = self._mark
        for g in region:
            mark[g] = 0

    # ------------------------------------------------------------------
    # Implication
    # ------------------------------------------------------------------
    def _imply(self, values: list[int], root: int,
               log: list[tuple[int, int]]) -> None:
        """Re-imply ``values`` downstream of a change at ``root``.

        Event-driven selective trace: gates are scheduled through the
        fanout adjacency and popped level by level, so only the gates whose
        values actually change are visited — and only inside the current
        region (a gate outside it is never read, so it is never
        scheduled).  Every changed gate is recorded in ``log`` as
        ``(gate, previous value)``.  A gate's fanins all sit at lower
        levels, so nothing can schedule it again once it is popped: its
        mark is reset right there.
        """
        gk, gf, gfo, tab, ar, lvl = (self._gk, self._gf, self._gfo,
                                     self._tab, self._ar, self._lvl)
        mark = self._mark
        buckets = self._buckets
        lo = len(buckets)
        hi = 0
        for v in gfo[root]:
            if mark[v] == 1:
                mark[v] = 2
                level = lvl[v]
                buckets[level].append(v)
                if level > hi:
                    hi = level
                if level < lo:
                    lo = level
        lv = lo
        while lv <= hi:
            bucket = buckets[lv]
            if bucket:
                for idx in bucket:
                    mark[idx] = 1
                    n = ar[idx]
                    f = gf[idx]
                    if n == 2:
                        new = tab[idx][values[f[0]] * 3 + values[f[1]]]
                    elif n == 1:
                        new = tab[idx][values[f[0]]]
                    elif n == 3:
                        new = tab[idx][(values[f[0]] * 3 + values[f[1]]) * 3
                                       + values[f[2]]]
                    elif n == 4:
                        new = tab[idx][((values[f[0]] * 3 + values[f[1]]) * 3
                                        + values[f[2]]) * 3 + values[f[3]]]
                    else:
                        new = eval_ternary(gk[idx], [values[s] for s in f])
                    old = values[idx]
                    if new != old:
                        log.append((idx, old))
                        values[idx] = new
                        for v in gfo[idx]:
                            if mark[v] == 1:
                                mark[v] = 2
                                level = lvl[v]
                                buckets[level].append(v)
                                if level > hi:
                                    hi = level
                bucket.clear()
            lv += 1

    def _set_source(self, src: int, value: int) -> list[tuple[int, int]]:
        """Assign (or clear, with X) a source and re-imply its fanout.

        Returns the undo log — ``(gate, previous value)`` for every gate
        that changed — so chronological backtracking can restore the exact
        prior state without re-evaluating anything (see :meth:`_undo`).
        """
        good = self._good
        if good[src] == value:
            return []
        log = [(src, good[src])]
        good[src] = value
        self._imply(good, src, log)
        return log

    def _undo(self, log: list[tuple[int, int]]) -> None:
        """Restore the good-machine values recorded by :meth:`_set_source`."""
        good = self._good
        for idx, old in log:
            good[idx] = old

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self, fault: StuckAtFault) -> dict[int, int] | None:
        """Find a source assignment detecting ``fault``.

        Returns a partial assignment ``{source gate index: 0/1}`` (unassigned
        sources are don't-cares), or None when untestable or aborted; check
        :attr:`stats` ``.aborted`` to distinguish the two.

        Each step first settles activation and the site gate from the good
        machine alone.  The faulty machine is only run once the site carries
        a D: until then ternary monotonicity keeps every specified faulty
        value equal to the good one, so no D exists anywhere (nothing is
        observed and there is no frontier).
        """
        self.stats = PodemStats()
        site = fault.site
        site_gate, pin, stuck = site.gate, site.pin, fault.value
        sig = site.signal_gate(self.circuit)
        sync = self._sync_set(site_gate)
        region = self._site_region(site_gate)
        self._enter(region)
        good = self._good
        active = 1 - stuck
        assignment: dict[int, int] = {}
        # (source, value, flipped, undo log)
        stack: list[tuple[int, int, bool, list[tuple[int, int]]]] = []
        try:
            while True:
                site_val = good[sig]
                if site_val == X:
                    objective = (sig, active)
                elif site_val == stuck:
                    objective = None  # activation conflict
                else:
                    before = good[site_gate]
                    after = (stuck if pin < 0
                             else self._inject(site_gate, pin, stuck))
                    if before == X or after == X:
                        # No D on the site gate yet: sensitise it by fixing
                        # an X side input.
                        objective = self._side_input(site_gate, good)
                    elif before == after:
                        objective = None  # effect masked at the site gate
                    else:
                        faulty, effect = self._faulty(site_gate, before,
                                                      after, sync)
                        if self._observed(faulty, effect):
                            return dict(assignment)
                        objective = self._propagate(good, faulty, effect)
                if objective is None:
                    self._backtrack(assignment, stack)
                    continue
                decision = self._backtrace(objective, good)
                if decision is None:
                    self._backtrack(assignment, stack)
                    continue
                src, val = decision
                assignment[src] = val
                stack.append((src, val, False, self._set_source(src, val)))
                self.stats.decisions += 1
        except Untestable:
            return None
        except Aborted:
            self.stats.aborted = True
            return None
        finally:
            self._unwind(stack)
            self._leave(region)

    def justify_all(self, objectives: list[tuple[int, int]]
                    ) -> dict[int, int] | None:
        """Source assignment satisfying *all* ``(gate, value)`` objectives.

        Generalized justification used by path-oriented test generation: the
        decision loop keeps working on the first unsatisfied objective and
        backtracks whenever any objective becomes violated.  Returns None on
        conflict (the objectives are mutually unsatisfiable) or abort.
        """
        self.stats = PodemStats()
        # Source objectives are assignments, not search work; a constant
        # source either already holds its objective or refutes it.
        good = self._good
        assignment: dict[int, int] = {}
        pending: list[tuple[int, int]] = []
        for gate, value in objectives:
            if self._is_src[gate]:
                if good[gate] != X:
                    if good[gate] != value:
                        return None
                    continue
                if assignment.get(gate, value) != value:
                    return None
                assignment[gate] = value
            else:
                pending.append((gate, value))
        region = frozenset().union(
            *(self.circuit.fanin_cone(g) for g, _v in pending))
        self._enter(region)
        base_logs = [self._set_source(src, val)
                     for src, val in assignment.items()]
        stack: list[tuple[int, int, bool, list[tuple[int, int]]]] = []
        try:
            while True:
                violated = any(good[g] == 1 - v for g, v in pending)
                if violated:
                    self._backtrack(assignment, stack)
                    continue
                open_objs = [(g, v) for g, v in pending if good[g] == X]
                if not open_objs:
                    return dict(assignment)
                decision = self._backtrace(open_objs[0], good)
                if decision is None:
                    self._backtrack(assignment, stack)
                    continue
                src, val = decision
                assignment[src] = val
                stack.append((src, val, False, self._set_source(src, val)))
                self.stats.decisions += 1
        except Untestable:
            return None
        except Aborted:
            self.stats.aborted = True
            return None
        finally:
            self._unwind(stack)
            for log in reversed(base_logs):
                self._undo(log)
            self._leave(region)

    def justify(self, gate: int, value: int) -> dict[int, int] | None:
        """Find a source assignment making ``gate``'s output equal ``value``.

        Pure good-machine justification (no fault, no propagation); used to
        build launch vectors.  Returns None when impossible or aborted.
        A constant source is never part of an assignment: it justifies its
        own value with ``{}`` and refutes the other one.
        """
        self.stats = PodemStats()
        good = self._good
        if self._is_src[gate]:
            if good[gate] != X:
                return {} if good[gate] == value else None
            return {gate: value}
        region = self.circuit.fanin_cone(gate)
        self._enter(region)
        assignment: dict[int, int] = {}
        stack: list[tuple[int, int, bool, list[tuple[int, int]]]] = []
        try:
            while True:
                if good[gate] == value:
                    return dict(assignment)
                if good[gate] == 1 - value:
                    self._backtrack(assignment, stack)
                    continue
                decision = self._backtrace((gate, value), good)
                if decision is None:
                    self._backtrack(assignment, stack)
                    continue
                src, val = decision
                assignment[src] = val
                stack.append((src, val, False, self._set_source(src, val)))
                self.stats.decisions += 1
        except Untestable:
            return None
        except Aborted:
            self.stats.aborted = True
            return None
        finally:
            self._unwind(stack)
            self._leave(region)

    # ------------------------------------------------------------------
    # Faulty machine
    # ------------------------------------------------------------------
    def _inject(self, gate: int, pin: int, value: int) -> int:
        """Good-machine output of ``gate`` with input ``pin`` forced to
        ``value`` (the site gate of a pin fault): the gate's table row,
        with the pin's radix-3 digit swapped for ``value``."""
        good = self._good
        fanin = self._gf[gate]
        tab = self._tab[gate]
        if tab is None:
            ins = [good[s] for s in fanin]
            ins[pin] = value
            return eval_ternary(self._gk[gate], ins)
        row = 0
        for s in fanin:
            row = row * 3 + good[s]
        return tab[row + (value - good[fanin[pin]])
                   * 3 ** (len(fanin) - 1 - pin)]

    def _faulty(self, site_gate: int, before: int, after: int,
                sync: tuple[int, ...]
                ) -> tuple[list[int], list[tuple[int, int]]]:
        """Faulty-machine values for a D on the site gate (good ``before``,
        faulty ``after``), and the fault effect.

        Only the site gate and its fanout cone can differ from the good
        machine, and the search reads faulty values only there and on the
        cone's fanins — the site's ``sync`` set.  So the persistent faulty
        array is refreshed from the good one on that set alone, the site is
        injected and its cone re-implied (the cone lies inside the region);
        entries outside the set are stale and never read.  The effect lists
        ``(gate, good value)`` for every gate where the machines differ:
        the site first, then each gate the pass changed (each once).
        """
        good = self._good
        faulty = self._faulty_values
        for g in sync:
            faulty[g] = good[g]
        faulty[site_gate] = after
        effect = [(site_gate, before)]
        self._imply(faulty, site_gate, effect)
        return faulty, effect

    def _observed(self, faulty: list[int],
                  effect: list[tuple[int, int]]) -> bool:
        """A D at an observation point: an effect gate with both values
        specified (they differ by construction)."""
        obs = self._is_obs
        for g, good_val in effect:
            if obs[g] and good_val != X and faulty[g] != X:
                return True
        return False

    # ------------------------------------------------------------------
    # PODEM machinery
    # ------------------------------------------------------------------
    def _propagate(self, good: list[int], faulty: list[int],
                   effect: list[tuple[int, int]]) -> tuple[int, int] | None:
        """Objective that drives the D-frontier on, or None to backtrack."""
        frontier = self._d_frontier(good, faulty, effect)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, good, faulty):
            return None
        # Prefer frontier gates closest to an observation point, but keep
        # trying the others: a frontier gate may have no free side input
        # (its faulty output is X through a partially-specified D chain)
        # while another is still sensitizable.
        for gate_idx in frontier:
            objective = self._side_input(gate_idx, good)
            if objective is not None:
                return objective
        return None

    def _side_input(self, gate: int, good: list[int]
                    ) -> tuple[int, int] | None:
        """First X fanin of ``gate`` with its non-controlling value."""
        ctrl = controlling_value(self._gk[gate])
        noncontrolling = 1 - ctrl if ctrl is not None else 1
        for src in self._gf[gate]:
            if good[src] == X:
                return (src, noncontrolling)
        return None

    def _d_frontier(self, good: list[int], faulty: list[int],
                    effect: list[tuple[int, int]]) -> list[int]:
        """Gates whose inputs carry a fault effect but whose output is X.

        Every D sits on an effect gate, so the frontier is read off their
        fanouts; it comes deepest level first, ties in topological order.
        """
        gfo = self._gfo
        out: set[int] = set()
        for d, good_val in effect:
            if good_val != X and faulty[d] != X:
                for v in gfo[d]:
                    if good[v] == X or faulty[v] == X:
                        out.add(v)
        return sorted(out, key=self._frontier_key.__getitem__)

    def _x_path_exists(self, frontier: list[int], good: list[int],
                       faulty: list[int]) -> bool:
        """Check some frontier gate reaches an observation point through
        X-valued gates (necessary condition for future propagation)."""
        obs = self._is_obs
        gfo = self._gfo
        seen: set[int] = set()
        stack = list(frontier)
        while stack:
            u = stack.pop()
            if obs[u]:
                return True
            for v in gfo[u]:
                if v in seen:
                    continue
                if good[v] == X or faulty[v] == X:
                    seen.add(v)
                    stack.append(v)
        return False

    def _backtrace(self, objective: tuple[int, int],
                   good: list[int]) -> tuple[int, int] | None:
        """Map an internal objective to an unassigned source decision.

        Returns None when no unassigned source can influence the objective —
        the *current decision cube* is a dead end, which must trigger
        chronological backtracking (not an untestability verdict: other
        cubes may still succeed).

        Each hop follows the lowest-level X fanin (the first X of the
        level-sorted fanin list, so ties go to the earlier pin); every hop
        lowers the level, so the walk ends at a source.
        """
        gate, value = objective
        is_src, inv, gf_lvl = self._is_src, self._inv, self._gf_lvl
        while not is_src[gate]:
            if inv[gate]:
                value = 1 - value
            for s in gf_lvl[gate]:
                if good[s] == X:
                    gate = s
                    break
            else:
                # The objective is already implied; restart from the
                # lowest-numbered X source in the fanin cone to make
                # progress.
                for s in self._cone_sources(gate):
                    if good[s] == X:
                        return (s, value)
                return None
        return (gate, value)

    def _backtrack(self, assignment: dict[int, int],
                   stack: list[tuple[int, int, bool, list[tuple[int, int]]]]
                   ) -> None:
        """Flip the most recent unflipped decision; raise when exhausted.

        Each popped decision is rolled back by replaying its undo log —
        direct value restoration, no cone re-evaluation.
        """
        self.stats.backtracks += 1
        if self.stats.backtracks > self.max_backtracks:
            raise Aborted
        while stack:
            src, val, flipped, log = stack.pop()
            del assignment[src]
            self._undo(log)
            if not flipped:
                assignment[src] = 1 - val
                stack.append((src, 1 - val, True,
                              self._set_source(src, 1 - val)))
                return
        raise Untestable

    def _unwind(self, stack: list[tuple[int, int, bool,
                                        list[tuple[int, int]]]]) -> None:
        """Roll back every decision still applied (end of an attempt), so
        the persistent good machine returns to the all-X idle state."""
        while stack:
            _src, _val, _flipped, log = stack.pop()
            self._undo(log)
