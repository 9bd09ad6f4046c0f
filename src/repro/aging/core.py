"""Shared aging-evaluation core.

:class:`~repro.aging.lifetime.LifetimeSimulator` and
:class:`~repro.aging.mitigation.AdaptiveLifetimeSimulator` used to hand-roll
identical ``_workload()`` and ``_aged_circuit()`` helpers; this module is
the single seam both (and the fleet engine's reference path) now share, so
the aging-evaluation semantics cannot drift between consumers:

* :func:`sample_workload` — the deterministic functional launch/capture
  vector sample every lifetime evaluation applies;
* :func:`aged_circuit` — a deep-copied circuit whose delays carry the
  element-wise product of every :class:`~repro.aging.api.DegradationModel`
  factor array at one lifetime point.
"""

from __future__ import annotations

import copy
import random
from typing import Iterable, Sequence

from repro.aging.api import DegradationModel, combined_delay_factors
from repro.netlist.circuit import Circuit

#: One (launch, capture) functional vector pair.
WorkloadPattern = tuple[tuple[int, ...], tuple[int, ...]]


def sample_workload(circuit: Circuit, patterns: int,
                    seed: int = 0) -> list[WorkloadPattern]:
    """Deterministic sample of functional launch/capture vectors."""
    rng = random.Random(seed)
    width = len(circuit.sources())
    return [
        (tuple(rng.randint(0, 1) for _ in range(width)),
         tuple(rng.randint(0, 1) for _ in range(width)))
        for _ in range(patterns)
    ]


def aged_circuit(circuit: Circuit, models: Iterable[DegradationModel | None],
                 t: float, *, name_suffix: str | None = None) -> Circuit:
    """Deep-copied circuit degraded to lifetime point ``t``.

    The factor arrays of the :class:`~repro.aging.api.DegradationModel`
    ``models`` (``None`` entries skipped) compose multiplicatively.  The
    original circuit is never mutated.
    """
    aged = copy.deepcopy(circuit)
    if name_suffix is not None:
        aged.name = f"{circuit.name}{name_suffix}"
    aged.scale_gate_delays(combined_delay_factors(
        [m for m in models if m is not None], aged, t))
    return aged


def active_models(*models: object) -> Sequence[object]:
    """The non-``None`` models, validated to be at least one."""
    present = tuple(m for m in models if m is not None)
    if not present:
        raise ValueError("need an aging scenario, a marginal model or both")
    return present
