"""Configuration of the HDF test flow."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.monitors.insertion import DEFAULT_COVERAGE_FRACTION
from repro.monitors.monitor import PAPER_DELAY_FRACTIONS
from repro.timing.clock import DEFAULT_FAST_RATIO
from repro.timing.variation import N_SIGMA

#: Seed of the ATPG random phase and of the don't-care fill.
DEFAULT_ATPG_SEED = 7


@dataclass
class FlowConfig:
    """All knobs of :class:`repro.core.flow.HdfTestFlow`.

    Defaults reproduce the paper's evaluation setup (Sec. V): ``f_max = 3
    f_nom``, monitors on 25 % of the pseudo-primary outputs with delay
    elements {0.05, 0.1, 0.15, 1/3}·clk, fault size δ = 6σ with σ = 20 % of
    the nominal gate delay.  This class and the constants it reads are the
    one place that declares, defaults and validates these parameters: the
    job specs (:mod:`repro.core.spec`), the suite runner and the CLI all
    build a ``FlowConfig`` to check theirs.
    """

    #: Maximum FAST frequency as a multiple of f_nom.
    fast_ratio: float = DEFAULT_FAST_RATIO
    #: Fraction of pseudo-primary outputs carrying a monitor.
    monitor_fraction: float = DEFAULT_COVERAGE_FRACTION
    #: Monitor delay elements as fractions of the nominal clock period.
    monitor_delay_fractions: tuple[float, ...] = PAPER_DELAY_FRACTIONS
    #: Fault size in σ units (δ = n_sigma · σ, σ = ``SIGMA_FRACTION`` of
    #: the nominal gate delay).
    n_sigma: float = N_SIGMA
    #: ATPG seed and an optional hard cap on the pattern-pair count.
    atpg_seed: int = DEFAULT_ATPG_SEED
    pattern_cap: int | None = None
    #: Coverage targets for Table III style relaxed schedules.
    coverage_targets: tuple[float, ...] = field(default=(0.99, 0.98, 0.95, 0.90))

    def __post_init__(self) -> None:
        if self.fast_ratio < 1.0:
            raise ValueError("fast_ratio must be >= 1")
        if not 0.0 <= self.monitor_fraction <= 1.0:
            raise ValueError("monitor_fraction must lie in [0, 1]")
        if self.pattern_cap is not None and self.pattern_cap < 1:
            raise ValueError("pattern_cap must be positive when given")
        if any(not 0.0 < c <= 1.0 for c in self.coverage_targets):
            raise ValueError("coverage targets must lie in (0, 1]")
