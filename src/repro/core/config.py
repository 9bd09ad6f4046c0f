"""Configuration of the HDF test flow."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.monitors.insertion import DEFAULT_COVERAGE_FRACTION
from repro.monitors.monitor import PAPER_DELAY_FRACTIONS
from repro.scheduling.setcover import DEFAULT_TIME_LIMIT_S
from repro.simulation.wave_sim import DEFAULT_INERTIAL_PS
from repro.timing.clock import DEFAULT_FAST_RATIO
from repro.timing.variation import N_SIGMA, SIGMA_FRACTION


@dataclass
class FlowConfig:
    """All knobs of :class:`repro.core.flow.HdfTestFlow`.

    Defaults reproduce the paper's evaluation setup (Sec. V): ``f_max = 3
    f_nom``, monitors on 25 % of the pseudo-primary outputs with delay
    elements {0.05, 0.1, 0.15, 1/3}·clk, fault size δ = 6σ with σ = 20 % of
    the nominal gate delay.
    """

    #: Maximum FAST frequency as a multiple of f_nom.
    fast_ratio: float = DEFAULT_FAST_RATIO
    #: Fraction of pseudo-primary outputs carrying a monitor.
    monitor_fraction: float = DEFAULT_COVERAGE_FRACTION
    #: Monitor delay elements as fractions of the nominal clock period.
    monitor_delay_fractions: tuple[float, ...] = PAPER_DELAY_FRACTIONS
    #: Process-variation σ as a fraction of the nominal gate delay.
    sigma_fraction: float = SIGMA_FRACTION
    #: Fault size in σ units (δ = n_sigma · σ).
    n_sigma: float = N_SIGMA
    #: Inertial pulse-filter threshold in ps (simulation + glitch filtering).
    inertial_ps: float = DEFAULT_INERTIAL_PS
    #: Run the topological pre-analysis (Fig. 4 step 1) before simulation.
    structural_prefilter: bool = True
    #: ATPG seed and an optional hard cap on the pattern-pair count.
    atpg_seed: int = 7
    pattern_cap: int | None = None
    #: ILP wall-clock limit per covering instance, seconds.
    ilp_time_limit: float = DEFAULT_TIME_LIMIT_S
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
