"""Fig. 3 — hidden-delay-fault coverage vs. maximum FAST frequency.

Sweeps ``f_max`` from ``f_nom`` to ``3·f_nom`` and reports, per point, the
HDF coverage of conventional FAST (standard flip-flops only) and of FAST
with programmable monitors (25 % of pseudo-outputs, delay ``t_nom/3`` as in
the figure's caption).

Denominator: all hidden delay faults, i.e. the initial fault universe minus
the at-speed detectable faults (structurally screened ones plus those the
simulation confirms at ``t_nom``).  Timing-redundant and never-activated
faults stay in the denominator — that is why the curves saturate well below
100 %, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import FlowResult
from repro.utils.intervals import IntervalSet

#: Default sweep of f_max as multiples of f_nom.
DEFAULT_RATIOS = tuple(round(1.0 + 0.1 * i, 2) for i in range(21))  # 1.0 .. 3.0


@dataclass(frozen=True)
class Fig3Point:
    """One sweep point: coverages in [0, 1]."""

    fmax_ratio: float
    conv_coverage: float
    prop_coverage: float


def fig3_series(result: FlowResult,
                ratios: tuple[float, ...] = DEFAULT_RATIOS,
                *, monitor_delay_fraction: float = 1.0 / 3.0,
                denominator: str = "all_hdf") -> list[Fig3Point]:
    """Compute the two coverage curves from one flow result.

    ``ratios`` must not exceed the flow's ``fast_ratio`` (detection data is
    only complete inside the simulated window).  ``denominator`` selects
    the HDF population: ``"all_hdf"`` keeps every non-at-speed fault (as
    pessimistic as it gets — faults the pattern set never activates dilute
    the coverage), ``"activated"`` counts only faults the pattern set
    excites (closer to the paper's setting, whose commercial pattern sets
    reach >99.9 % transition coverage).
    """
    clock = result.clock
    if max(ratios) > clock.fast_ratio + 1e-9:
        raise ValueError(
            f"sweep ratio {max(ratios)} exceeds the simulated fast_ratio "
            f"{clock.fast_ratio}")
    data = result.data
    cls = result.classification
    t_nom = clock.t_nom
    shift = monitor_delay_fraction * t_nom

    n_at_speed_structural = len(result.prefilter.at_speed)
    if denominator == "all_hdf":
        denom = (result.universe_size - n_at_speed_structural
                 - len(cls.at_speed))
    elif denominator == "activated":
        denom = len(data.ranges) - len(cls.at_speed & set(data.ranges))
    else:
        raise ValueError(f"unknown denominator {denominator!r}")
    if denom <= 0:
        return [Fig3Point(r, 0.0, 0.0) for r in ratios]

    # Per-fault ranges, excluding simulated at-speed faults.
    hdf_ranges: list[tuple[IntervalSet, IntervalSet]] = []
    for fi in data.ranges:
        if fi in cls.at_speed:
            continue
        hdf_ranges.append((data.union_all(fi), data.union_mon(fi).shifted(shift)))

    points: list[Fig3Point] = []
    for r in sorted(ratios):
        t_min = t_nom / r
        conv = 0
        prop = 0
        for i_all, i_mon_shifted in hdf_ranges:
            ff_hit = not i_all.clipped(t_min, t_nom).is_empty
            if ff_hit:
                conv += 1
                prop += 1
            elif not i_mon_shifted.clipped(t_min, t_nom).is_empty:
                prop += 1
        points.append(Fig3Point(
            fmax_ratio=r,
            conv_coverage=conv / denom,
            prop_coverage=prop / denom,
        ))
    return points
