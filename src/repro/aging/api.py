"""The unified degradation-model API.

Before this module each aging model exposed an ad-hoc scalar surface —
``BtiModel.delta_fraction(t, stress)``, ``AgingScenario.delay_factor(gate,
t)``, ``MarginalDeviceModel.extra_delay(gate, t)`` — and every consumer
(lifetime simulator, mitigation loop, ``aged_copy``) hand-rolled its own
dict-merging glue.  The fleet-scale Monte Carlo engine needs one vectorized
contract instead:

:class:`DegradationModel`
    Anything with ``delay_factors(circuit, t, *, rng=None) -> ndarray``
    returning one multiplicative delay factor per gate (length
    ``len(circuit.gates)``, ``1.0`` for sequential gates and gates the
    model does not touch).  :class:`~repro.aging.degradation.AgingScenario`
    and :class:`~repro.aging.marginal.MarginalDeviceModel` implement it.

Model composition is element-wise multiplication
(:func:`combined_delay_factors`), matching the historical semantics of the
lifetime simulators (wear-out factors times marginal-defect factors).
"""

from __future__ import annotations

from typing import Iterable, Protocol

import numpy as np

from repro.netlist.circuit import Circuit


class DegradationModel(Protocol):
    """Vectorized degradation contract shared by every aging model."""

    def delay_factors(self, circuit: Circuit, t: float, *,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Per-gate multiplicative delay factors at lifetime ``t``.

        Shape ``(len(circuit.gates),)``; entries are ``>= 1.0`` for
        monotone wear-out models and exactly ``1.0`` for gates the model
        leaves alone.  ``rng`` feeds stochastic models (noise injection);
        deterministic models ignore it.
        """
        ...  # pragma: no cover


def combined_delay_factors(models: Iterable[DegradationModel],
                           circuit: Circuit, t: float, *,
                           rng: np.random.Generator | None = None,
                           ) -> np.ndarray:
    """Element-wise product of every model's factors (the composition law)."""
    factors = np.ones(len(circuit.gates))
    for model in models:
        factors = factors * model.delay_factors(circuit, t, rng=rng)
    return factors
