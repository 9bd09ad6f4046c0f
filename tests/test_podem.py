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
