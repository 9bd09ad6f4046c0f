"""PODEM test generation for stuck-at faults on the combinational core.

Classic PODEM (Goel 1981): decisions are made only on primary inputs (here:
all combinational sources, i.e. PIs and scan flip-flops — the enhanced-scan
model standard in delay testing), implications are computed by forward
three-valued simulation of the good and the faulty machine, and conflicts are
resolved by chronological backtracking.

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
        self._sources = circuit.sources()
        self._source_set = set(self._sources)
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
        self._lvl = [circuit.level(i) for i in range(n)]
        self._is_src = bytearray(n)
        for i in self._sources:
            self._is_src[i] = 1
        self._is_obs = bytearray(n)
        for op in circuit.observation_points():
            self._is_obs[op.gate] = 1
        self._inv = bytearray(g.kind in _INVERTING for g in gates)
        # Persistent good-machine values (all X between calls), memoized
        # per-site cone plans / in-cone observation gates for the
        # fault-effect passes, and the most recent generation region.
        self._good = self._fresh_values()
        self._plans: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        self._obs_cone: dict[int, list[int]] = {}
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

    def _plan_of(self, site: int) -> list[tuple[int, tuple[int, ...]]]:
        """Topo-ordered ``(gate, fanin)`` rows of ``site``'s cone."""
        plan = self._plans.get(site)
        if plan is None:
            gf = self._gf
            plan = [(i, gf[i]) for i in self.circuit.cone_schedule(site)]
            self._plans[site] = plan
        return plan

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
        ``(gate, previous value)``.
        """
        gk, gf, gfo, tab, ar, lvl = (self._gk, self._gf, self._gfo,
                                     self._tab, self._ar, self._lvl)
        mark = self._mark
        buckets = self._buckets
        dirty: list[int] = []
        lo = len(buckets)
        hi = 0
        for v in gfo[root]:
            if mark[v] == 1:
                mark[v] = 2
                dirty.append(v)
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
                                dirty.append(v)
                                level = lvl[v]
                                buckets[level].append(v)
                                if level > hi:
                                    hi = level
                bucket.clear()
            lv += 1
        for i in dirty:
            mark[i] = 1

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
        """
        self.stats = PodemStats()
        site = fault.site
        site_gate = site.gate
        sig = site.signal_gate(self.circuit)
        region = self._site_region(site_gate)
        self._enter(region)
        assignment: dict[int, int] = {}
        # (source, value, flipped, undo log)
        stack: list[tuple[int, int, bool, list[tuple[int, int]]]] = []
        try:
            while True:
                good = self._good
                faulty = self._faulty(site_gate, site.pin, fault.value)
                if self._detected(good, faulty, site_gate):
                    return dict(assignment)
                objective = self._objective(good, faulty, site_gate, sig,
                                            fault.value)
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
        # Source objectives are assignments, not search work.
        assignment: dict[int, int] = {}
        pending: list[tuple[int, int]] = []
        for gate, value in objectives:
            if gate in self._source_set:
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
                good = self._good
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
        """
        self.stats = PodemStats()
        if gate in self._source_set:
            return {gate: value}
        region = self.circuit.fanin_cone(gate)
        self._enter(region)
        assignment: dict[int, int] = {}
        stack: list[tuple[int, int, bool, list[tuple[int, int]]]] = []
        try:
            while True:
                good = self._good
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
    # Simulation
    # ------------------------------------------------------------------
    def _faulty(self, site_gate: int, pin: int, value: int) -> list[int]:
        """Faulty-machine values derived from the current good values.

        Only the site gate and its fanout cone can differ from the good
        machine, and the cone lies inside the region, so the same
        region-restricted implication yields every value the search reads.
        """
        good = self._good
        faulty = list(good)
        if pin < 0:
            faulty[site_gate] = value
        else:
            ins = [good[s] for s in self._gf[site_gate]]
            ins[pin] = value
            faulty[site_gate] = eval_ternary(self._gk[site_gate], ins)
        if faulty[site_gate] != good[site_gate]:
            self._imply(faulty, site_gate, [])
        return faulty

    # ------------------------------------------------------------------
    # PODEM machinery
    # ------------------------------------------------------------------
    def _obs_in_cone(self, site_gate: int) -> list[int]:
        """Observation gates that can ever see ``site_gate``'s fault effect
        (the site itself plus its fanout cone, restricted to observation
        points) — everywhere else ``good == faulty`` by construction."""
        cached = self._obs_cone.get(site_gate)
        if cached is None:
            obs = self._is_obs
            cached = [i for i in (site_gate,
                                  *self.circuit.cone_schedule(site_gate))
                      if obs[i]]
            self._obs_cone[site_gate] = cached
        return cached

    def _detected(self, good: list[int], faulty: list[int],
                  site_gate: int) -> bool:
        return any(good[o] != X and faulty[o] != X and good[o] != faulty[o]
                   for o in self._obs_in_cone(site_gate))

    def _objective(self, good: list[int], faulty: list[int], site_gate: int,
                   sig: int, stuck: int) -> tuple[int, int] | None:
        """Next (gate, value) objective, or None to trigger backtracking.

        ``sig`` is the gate driving the faulted pin and ``stuck`` the
        stuck-at value.
        """
        site_val = good[sig]
        if site_val == stuck:
            return None  # activation conflict
        if site_val == X:
            return (sig, 1 - stuck)
        # The fault effect first materializes at the site gate itself; as
        # long as its good/faulty outputs are not both specified, no D-value
        # exists on any net and the frontier below cannot see the fault.
        # Objective: sensitise the site gate by fixing an X side-input.
        if good[site_gate] == X or faulty[site_gate] == X:
            return self._side_input(site_gate, good)
        if good[site_gate] == faulty[site_gate]:
            return None  # effect masked at the site gate itself
        frontier = self._d_frontier(good, faulty, site_gate)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, good, faulty):
            return None
        # Prefer frontier gates closest to an observation point, but keep
        # trying the others: a frontier gate may have no free side input
        # (its faulty output is X through a partially-specified D chain)
        # while another is still sensitizable.
        lvl = self._lvl
        for gate_idx in sorted(frontier, key=lambda i: -lvl[i]):
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
                    site_gate: int) -> list[int]:
        """Gates whose inputs carry a fault effect but whose output is X.

        D-values only exist on the site gate and inside its fanout cone, so
        the scan walks the memoized (topo-ordered) cone plan instead of the
        whole circuit — same members, same order as the full-circuit sweep.
        """
        out: list[int] = []
        for idx, fanin in self._plan_of(site_gate):
            if good[idx] != X and faulty[idx] != X:
                continue
            for s in fanin:
                if good[s] != X and faulty[s] != X and good[s] != faulty[s]:
                    out.append(idx)
                    break
        return out

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
        """
        gate, value = objective
        is_src, inv, gf, lvl = self._is_src, self._inv, self._gf, self._lvl
        limit = len(gf) + 1
        guard = 0
        while not is_src[gate]:
            guard += 1
            if guard > limit:
                return None  # defensive: should not happen on a DAG
            if inv[gate]:
                value = 1 - value
            x_pins = [s for s in gf[gate] if good[s] == X]
            if not x_pins:
                # The objective is already implied; restart from any X source
                # in the fanin cone to make progress.
                free = [s for s in self.circuit.fanin_cone(gate)
                        if is_src[s] and good[s] == X]
                if not free:
                    return None
                return (min(free), value)
            gate = min(x_pins, key=lvl.__getitem__)
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
