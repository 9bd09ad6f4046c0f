"""Resynthesis sensitivity: how netlist structure moves the monitor gain.

The method's profit depends on the path-delay population, which synthesis
controls.  This experiment reruns the flow on structurally transformed
versions of the same function:

* **decomposed** — all gates broken into 2-input trees: paths deepen, the
  clock stretches, per-gate fault sizes shrink,
* **buffered** — heavy fanouts split with buffer trees: load delays drop,
  short branch paths appear at the buffers.

Functional equivalence of the variants is guaranteed by construction
(:mod:`repro.netlist.techmap` is property-tested against simulation), so
any change in the Table-I columns is attributable purely to structure —
the experimental knob a DfT engineer actually controls.
"""

from __future__ import annotations

from repro.circuits.library import paper_suite, suite_circuit
from repro.core.config import DEFAULT_ATPG_SEED, FlowConfig
from repro.core.flow import HdfTestFlow
from repro.netlist.circuit import Circuit
from repro.netlist.techmap import buffer_fanouts, decompose_wide_gates


def _run(circuit: Circuit, pattern_cap: int, seed: int) -> dict[str, object]:
    result = HdfTestFlow(circuit, FlowConfig(
        pattern_cap=pattern_cap, atpg_seed=seed)).run(with_schedules=False)
    row = result.table1_row()
    row["variant"] = circuit.name
    row["clk_ps"] = round(result.clock.t_nom, 1)
    row["depth"] = circuit.depth
    return row


def resynthesis_comparison(circuit_name: str = "s13207", *,
                           scale: float = 0.5,
                           pattern_cap: int | None = None,
                           seed: int = DEFAULT_ATPG_SEED
                           ) -> list[dict[str, object]]:
    """Table-I rows for the original, decomposed and buffered variants."""
    entry = paper_suite([circuit_name])[0]
    cap = (pattern_cap if pattern_cap is not None
           else entry.pattern_budget(scale=scale))
    original = suite_circuit(circuit_name, scale=scale)
    decomposed = decompose_wide_gates(original, max_arity=2)
    buffered = buffer_fanouts(original, max_fanout=3)
    return [
        _run(original, cap, seed),
        _run(decomposed, cap, seed),
        _run(buffered, cap, seed),
    ]
