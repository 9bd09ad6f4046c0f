"""Gate evaluation for two- and three-valued logic.

Values are small ints: ``0``, ``1`` and (ternary only) ``X = 2``.  The
three-valued tables follow the usual pessimistic Kleene semantics (an X input
propagates unless a controlling value decides the output).
"""

from __future__ import annotations

from typing import Sequence

from repro.netlist.circuit import GateKind

#: Unknown value in ternary simulation.
X = 2


def eval_binary(kind: str, values: Sequence[int]) -> int:
    """Two-valued evaluation of a combinational gate."""
    if kind == GateKind.AND:
        return int(all(values))
    if kind == GateKind.NAND:
        return int(not all(values))
    if kind == GateKind.OR:
        return int(any(values))
    if kind == GateKind.NOR:
        return int(not any(values))
    if kind == GateKind.XOR:
        return sum(values) & 1
    if kind == GateKind.XNOR:
        return 1 - (sum(values) & 1)
    if kind == GateKind.NOT:
        return 1 - values[0]
    if kind == GateKind.BUF:
        return values[0]
    raise ValueError(f"cannot evaluate gate kind {kind!r}")


def eval_ternary(kind: str, values: Sequence[int]) -> int:
    """Three-valued (0/1/X) evaluation of a combinational gate.

    Written with explicit loops and early exits: this is the innermost
    function of the PODEM implication engine.
    """
    if kind == GateKind.AND or kind == GateKind.NAND:
        out = 1
        for v in values:
            if v == 0:
                out = 0
                break
            if v == X:
                out = X
        if kind == GateKind.NAND and out != X:
            out = 1 - out
        return out
    if kind == GateKind.OR or kind == GateKind.NOR:
        out = 0
        for v in values:
            if v == 1:
                out = 1
                break
            if v == X:
                out = X
        if kind == GateKind.NOR and out != X:
            out = 1 - out
        return out
    if kind == GateKind.XOR or kind == GateKind.XNOR:
        out = 0
        for v in values:
            if v == X:
                return X
            out ^= v
        if kind == GateKind.XNOR:
            out = 1 - out
        return out
    if kind == GateKind.NOT:
        v = values[0]
        return X if v == X else 1 - v
    if kind == GateKind.BUF:
        return values[0]
    raise ValueError(f"cannot evaluate gate kind {kind!r}")


def controlling_value(kind: str) -> int | None:
    """The input value that alone determines the output, if any."""
    if kind in (GateKind.AND, GateKind.NAND):
        return 0
    if kind in (GateKind.OR, GateKind.NOR):
        return 1
    return None


def inversion_parity(kind: str) -> bool:
    """True when the gate inverts its (controlling/last) input."""
    return kind in (GateKind.NAND, GateKind.NOR, GateKind.NOT, GateKind.XNOR)
