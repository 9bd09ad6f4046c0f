"""Tests for the PODEM stuck-at test generator."""

from __future__ import annotations

import pytest

from repro.atpg.podem import Podem
from repro.faults.models import FaultSite, StuckAtFault
from repro.faults.universe import fault_sites
from repro.netlist.bench import parse_bench
from repro.simulation.parallel_sim import BitParallelSimulator


def verify_test(circuit, fault, assignment) -> bool:
    """Check a PODEM assignment really detects the fault (random X fill)."""
    import random
    rng = random.Random(0)
    srcs = circuit.sources()
    vec = tuple(assignment.get(s, rng.randint(0, 1)) for s in srcs)
    sim = BitParallelSimulator(circuit)
    words, width = sim.pack_vectors([vec])
    good = sim.simulate(words, width)
    return sim.stuck_at_detect_mask(good, fault, width) == 1


class TestGeneration:
    def test_all_c17_faults_testable(self, c17):
        podem = Podem(c17)
        for site in fault_sites(c17):
            for value in (0, 1):
                fault = StuckAtFault(site, value)
                assignment = podem.generate(fault)
                assert assignment is not None, fault.describe(c17)
                assert verify_test(c17, fault, assignment), fault.describe(c17)

    def test_s27_output_faults(self, s27):
        podem = Podem(s27)
        detected = 0
        total = 0
        for site in fault_sites(s27):
            if not site.is_output_pin:
                continue
            for value in (0, 1):
                total += 1
                assignment = podem.generate(StuckAtFault(site, value))
                if assignment is None:
                    continue
                detected += 1
                assert verify_test(s27, StuckAtFault(site, value), assignment)
        assert detected / total > 0.8  # s27 has a couple of redundancies

    def test_untestable_fault_returns_none(self):
        # y = OR(a, NOT(a)) is constant 1: SA1 at y is untestable.
        c = parse_bench("""
        INPUT(a)
        OUTPUT(y)
        n = NOT(a)
        y = OR(a, n)
        """, name="redundant")
        podem = Podem(c)
        fault = StuckAtFault(FaultSite(c.index_of("y")), 1)
        assert podem.generate(fault) is None
        assert not podem.stats.aborted  # proven, not aborted

    def test_assignment_is_partial(self, s27):
        """PODEM leaves unneeded sources unassigned (X)."""
        podem = Podem(s27)
        widths = []
        for site in fault_sites(s27)[:6]:
            assignment = podem.generate(StuckAtFault(site, 0))
            if assignment is not None:
                widths.append(len(assignment))
        assert widths and min(widths) < len(s27.sources())

    def test_backtrack_limit_aborts(self, small_generated):
        podem = Podem(small_generated, max_backtracks=0)
        hard = None
        for site in fault_sites(small_generated):
            fault = StuckAtFault(site, 0)
            result = podem.generate(fault)
            if result is None and podem.stats.aborted:
                hard = fault
                break
        # With zero backtracks allowed, at least one fault needs them.
        assert hard is not None

    def test_stats_populated(self, c17):
        podem = Podem(c17)
        podem.generate(StuckAtFault(FaultSite(c17.index_of("N22")), 0))
        assert podem.stats.decisions > 0


class TestJustify:
    def test_justify_simple(self, c17):
        podem = Podem(c17)
        for net in ("N10", "N16", "N22"):
            for value in (0, 1):
                assignment = podem.justify(c17.index_of(net), value)
                assert assignment is not None
                # Verify by simulation.
                import random
                rng = random.Random(1)
                srcs = c17.sources()
                vec = tuple(assignment.get(s, rng.randint(0, 1)) for s in srcs)
                sim = BitParallelSimulator(c17)
                words, width = sim.pack_vectors([vec])
                good = sim.simulate(words, width)
                assert good[c17.index_of(net)] == value

    def test_justify_source_direct(self, c17):
        podem = Podem(c17)
        src = c17.sources()[0]
        assert podem.justify(src, 1) == {src: 1}

    def test_justify_constant_impossible(self):
        c = parse_bench("""
        INPUT(a)
        OUTPUT(y)
        n = NOT(a)
        y = OR(a, n)
        """, name="const1")
        podem = Podem(c)
        assert podem.justify(c.index_of("y"), 0) is None

    def test_state_isolated_between_calls(self, c17):
        """Back-to-back generations must not leak assignments."""
        podem = Podem(c17)
        f1 = StuckAtFault(FaultSite(c17.index_of("N22")), 0)
        first = podem.generate(f1)
        second = podem.generate(f1)
        assert first == second


class TestHistoryIndependence:
    @staticmethod
    def _run(podem, query):
        kind, arg = query
        out = podem.generate(arg) if kind == "generate" else podem.justify(*arg)
        stats = podem.stats
        return out, (stats.decisions, stats.backtracks, stats.aborted)

    def test_same_query_same_answer_in_any_order(self, small_generated):
        """generate/justify depend only on their query: interleaved with
        other faults on one engine, each returns exactly what a fresh
        engine returns (assignment and stats)."""
        import random
        c = small_generated
        queries = [("generate", StuckAtFault(site, value))
                   for site in fault_sites(c)[::3] for value in (0, 1)]
        queries += [("justify", (g.index, value)) for g in c.gates[::4]
                    for value in (0, 1)]
        alone = [self._run(Podem(c, max_backtracks=64), q) for q in queries]
        assert any(stats[1] for _out, stats in alone)  # real searches
        shared = Podem(c, max_backtracks=64)
        order = random.Random(3).sample(range(len(queries)), len(queries))
        interleaved = {i: self._run(shared, queries[i]) for i in order}
        assert [interleaved[i] for i in range(len(queries))] == alone


def _const0_circuit():
    """``o = OR(a, z)``, ``y = AND(o, b)`` with ``z`` a CONST0 generator."""
    from repro.netlist.circuit import Circuit, GateKind

    c = Circuit("const0")
    a = c.add_input("a")
    b = c.add_input("b")
    z = c.add_const("z", 0)
    o = c.add_gate("o", GateKind.OR, [a, z])
    c.mark_output(c.add_gate("y", GateKind.AND, [o, b]))
    return c.finalize()


class TestConstants:
    """A constant source holds its value: PODEM never assigns it."""

    def test_justify_constant(self):
        c = _const0_circuit()
        z = c.index_of("z")
        podem = Podem(c)
        assert podem.justify(z, 0) == {}
        assert podem.justify(z, 1) is None
        assert not podem.stats.aborted

    def test_justify_all_constant(self):
        c = _const0_circuit()
        z, o = c.index_of("z"), c.index_of("o")
        podem = Podem(c)
        assert podem.justify_all([(z, 1)]) is None
        assignment = podem.justify_all([(z, 0), (o, 1)])
        assert assignment == {c.index_of("a"): 1}

    def test_transition_faults_behind_const0_are_untestable(self):
        from repro.atpg.transition import generate_transition_tests

        c = _const0_circuit()
        o = c.index_of("o")
        result = generate_transition_tests(c, seed=7)
        behind = {f for f in result.faults
                  if f.site.gate == o and f.site.pin == 1}
        assert len(behind) == 2
        assert behind <= result.untestable
        assert not behind & (result.detected | result.aborted)


# ----------------------------------------------------------------------
# Invariants against an independent simulation written here
# ----------------------------------------------------------------------
_TX = 2  # ternary X


def _eval3(kind, ins):
    """Kleene three-valued gate evaluation (0, 1, ``_TX``)."""
    if kind in ("NOT", "BUF"):
        v = ins[0]
        return v if v == _TX or kind == "BUF" else 1 - v
    if kind in ("XOR", "XNOR"):
        if _TX in ins:
            return _TX
        return (sum(ins) & 1) ^ (kind == "XNOR")
    ctrl = 0 if kind in ("AND", "NAND") else 1
    if ctrl in ins:
        out = ctrl
    elif _TX in ins:
        return _TX
    else:
        out = 1 - ctrl
    return out ^ (kind in ("NAND", "NOR"))


def _eval2(kind, ins, mask):
    """Two-valued gate evaluation on packed pattern words."""
    if kind in ("AND", "NAND"):
        out = mask
        for w in ins:
            out &= w
    elif kind in ("OR", "NOR"):
        out = 0
        for w in ins:
            out |= w
    elif kind in ("XOR", "XNOR"):
        out = 0
        for w in ins:
            out ^= w
    else:
        out = ins[0]
    return out ^ mask if kind in ("NAND", "NOR", "XNOR", "NOT") else out


def _simulate(circuit, sources, evaluate, fault=None, forced=None):
    """Values of every gate from ``sources`` (gate → value), optionally
    with ``fault`` stuck at ``forced``."""
    values = dict(sources)
    for idx in circuit.topo_order:
        g = circuit.gates[idx]
        if g.kind in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT",
                      "BUF"):
            ins = [values[s] for s in g.fanin]
            if fault is not None and fault.site.gate == idx \
                    and fault.site.pin >= 0:
                ins[fault.site.pin] = forced
            values[idx] = evaluate(g.kind, ins)
        if fault is not None and fault.site.gate == idx \
                and fault.site.pin < 0:
            values[idx] = forced
    return values


def _source_values(circuit, assign):
    """Source gate → value under ``assign``; constants hold their value."""
    out = {}
    for s in circuit.sources():
        kind = circuit.gates[s].kind
        out[s] = (0 if kind == "CONST0" else 1 if kind == "CONST1"
                  else assign(s))
    return out


def _invariant_circuit(seed):
    from repro.circuits.generators import CircuitProfile, generate_circuit

    return generate_circuit(CircuitProfile(
        name=f"podem{seed}", n_gates=70, n_ffs=6, n_inputs=6,
        n_outputs=4, depth=7, seed=seed, endpoint_side_gates=1,
        short_path_ppo_fraction=0.3))


@pytest.mark.parametrize("seed", (21, 22, 23))
def test_generate_verdicts_hold_by_definition(seed):
    """Every ``generate`` test shows a D at an observation point with all
    other sources X; every untestable verdict survives exhaustive
    two-valued enumeration (the circuits have at most 12 sources)."""
    circuit = _invariant_circuit(seed)
    sources = circuit.sources()
    assert len(sources) <= 12
    obs = sorted({op.gate for op in circuit.observation_points()})
    width = 1 << len(sources)
    mask = (1 << width) - 1
    # Source k's word: bit p of pattern p's binary code.
    enum = {s: sum(1 << p for p in range(width) if p >> k & 1)
            for k, s in enumerate(sources)}
    good2 = _simulate(circuit, _source_values(circuit, enum.__getitem__),
                      lambda kind, ins: _eval2(kind, ins, mask))
    podem = Podem(circuit)
    verdicts = {"test": 0, "untestable": 0}
    for site in fault_sites(circuit):
        for value in (0, 1):
            fault = StuckAtFault(site, value)
            assignment = podem.generate(fault)
            if assignment is not None:
                start = _source_values(circuit,
                                       lambda s: assignment.get(s, _TX))
                good = _simulate(circuit, start, _eval3)
                bad = _simulate(circuit, start, _eval3, fault, value)
                assert any(good[o] != _TX and bad[o] != _TX
                           and good[o] != bad[o] for o in obs), \
                    fault.describe(circuit)
                verdicts["test"] += 1
            elif not podem.stats.aborted:
                bad2 = _simulate(
                    circuit, _source_values(circuit, enum.__getitem__),
                    lambda kind, ins: _eval2(kind, ins, mask), fault,
                    mask if value else 0)
                assert all(good2[o] == bad2[o] for o in obs), \
                    fault.describe(circuit)
                verdicts["untestable"] += 1
    assert verdicts["test"] and verdicts["untestable"]
