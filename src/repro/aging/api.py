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
    and :class:`~repro.aging.marginal.MarginalDeviceModel` implement it
    natively; legacy scalar objects are wrapped by
    :func:`as_degradation_model`.

Model composition is element-wise multiplication
(:func:`combined_delay_factors`), matching the historical semantics of the
lifetime simulators (wear-out factors times marginal-defect factors).
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.netlist.circuit import Circuit


@runtime_checkable
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


class ScalarModelAdapter:
    """Generic adapter lifting a per-gate scalar model into the protocol.

    Wraps any object exposing ``delay_factor(gate, t) -> float`` (the
    pre-redesign surface) and evaluates it gate by gate — the slow but
    always-correct reference twin of a natively vectorized model.
    """

    def __init__(self, model: object) -> None:
        if not hasattr(model, "delay_factor"):
            raise TypeError(
                f"{type(model).__name__} has no delay_factor(gate, t) "
                f"method to adapt")
        self._model = model

    def delay_factors(self, circuit: Circuit, t: float, *,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        factors = np.ones(len(circuit.gates))
        for gate in circuit.combinational_gates():
            factors[gate] = self._model.delay_factor(gate, t)
        return factors

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScalarModelAdapter({self._model!r})"


def as_degradation_model(model: object) -> DegradationModel:
    """Coerce ``model`` to the :class:`DegradationModel` protocol.

    Objects already implementing the vectorized contract pass through;
    scalar models with a ``delay_factor(gate, t)`` method get a
    :class:`ScalarModelAdapter`.
    """
    if isinstance(model, DegradationModel):
        return model
    return ScalarModelAdapter(model)


def combined_delay_factors(models: Iterable[DegradationModel],
                           circuit: Circuit, t: float, *,
                           rng: np.random.Generator | None = None,
                           ) -> np.ndarray:
    """Element-wise product of every model's factors (the composition law)."""
    factors = np.ones(len(circuit.gates))
    for model in models:
        factors = factors * model.delay_factors(circuit, t, rng=rng)
    return factors
