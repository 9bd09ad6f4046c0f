"""Result container of the HDF test flow plus paper-style table rows."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atpg.patterns import TestSet
from repro.atpg.transition import AtpgResult
from repro.faults.classify import FaultClassification, StructuralFilterResult
from repro.faults.detection import DetectionData
from repro.monitors.insertion import MonitorPlacement
from repro.monitors.monitor import MonitorConfigSet
from repro.netlist.circuit import Circuit
from repro.scheduling.schedule import ScheduleResult
from repro.timing.clock import ClockSpec
from repro.timing.sta import StaResult


@dataclass
class FlowResult:
    """Everything the flow produced for one circuit."""

    circuit: Circuit
    sta: StaResult
    clock: ClockSpec
    configs: MonitorConfigSet
    placement: MonitorPlacement
    universe_size: int
    prefilter: StructuralFilterResult
    atpg: AtpgResult | None
    test_set: TestSet
    data: DetectionData
    classification: FaultClassification
    schedules: dict[str, ScheduleResult] = field(default_factory=dict)
    coverage_schedules: dict[float, ScheduleResult] = field(default_factory=dict)
    #: Pipeline observability: per-stage wall clock and cache hit/miss
    #: status of the run that produced this result (``{"stages": {name:
    #: {"seconds": s, "cache": "hit"|"miss"|"computed"}}, "cache":
    #: {"hits": n, "misses": n}}``; empty for monolith runs).
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived fault counts (Table I semantics)
    # ------------------------------------------------------------------
    @property
    def conv_hdf_detected(self) -> int:
        """HDFs detected by conventional FAST (at-speed faults excluded)."""
        cls = self.classification
        return len(cls.conv_detected - cls.at_speed)

    @property
    def prop_hdf_detected(self) -> int:
        """HDFs detected with programmable monitors (at-speed excluded)."""
        cls = self.classification
        return len(cls.prop_detected - cls.at_speed)

    @property
    def gain_percent(self) -> float:
        """Δ% column of Table I."""
        conv = self.conv_hdf_detected
        if conv == 0:
            return float("inf") if self.prop_hdf_detected else 0.0
        return (self.prop_hdf_detected / conv - 1.0) * 100.0

    @property
    def num_target_faults(self) -> int:
        return len(self.classification.target)

    # ------------------------------------------------------------------
    # Paper-style rows
    # ------------------------------------------------------------------
    def table1_row(self) -> dict[str, object]:
        return {
            "circuit": self.circuit.name,
            "gates": self.circuit.num_gates,
            "ffs": self.circuit.num_ffs,
            "patterns": len(self.test_set),
            "monitors": self.placement.count,
            "conv": self.conv_hdf_detected,
            "prop": self.prop_hdf_detected,
            "gain_percent": round(self.gain_percent, 1),
            "targets": self.num_target_faults,
        }

    def table2_row(self) -> dict[str, object]:
        conv = self.schedules["conv"]
        heur = self.schedules["heur"]
        prop = self.schedules["prop"]
        n_p = len(self.test_set)
        n_c = len(self.configs)
        freq_red = ((1.0 - prop.num_frequencies / conv.num_frequencies) * 100.0
                    if conv.num_frequencies else 0.0)
        return {
            "circuit": self.circuit.name,
            "freq_conv": conv.num_frequencies,
            "freq_heur": heur.num_frequencies,
            "freq_prop": prop.num_frequencies,
            "freq_reduction_percent": round(freq_red, 1),
            "pc_orig": prop.naive_size(n_p, n_c),
            "pc_opti": prop.num_entries,
            "pc_reduction_percent": round(
                prop.reduction_percent(n_p, n_c), 1),
        }

    def table3_row(self) -> dict[str, object]:
        row: dict[str, object] = {"circuit": self.circuit.name}
        n_p = len(self.test_set)
        n_c = len(self.configs)
        for cov, sched in sorted(self.coverage_schedules.items(),
                                 reverse=True):
            tag = f"{int(round(cov * 100))}"
            row[f"F_{tag}"] = sched.num_frequencies
            row[f"PC_{tag}"] = sched.naive_size(n_p, n_c)
            row[f"S_{tag}"] = sched.num_entries
            row[f"dpc_{tag}"] = round(sched.reduction_percent(n_p, n_c), 1)
        return row

    def summary(self) -> dict[str, object]:
        out: dict[str, object] = self.table1_row()
        out["prefilter_at_speed"] = len(self.prefilter.at_speed)
        out["prefilter_redundant"] = len(self.prefilter.redundant)
        if self.atpg is not None:
            out["atpg_coverage"] = round(self.atpg.coverage, 4)
        for name, sched in self.schedules.items():
            out[f"freqs_{name}"] = sched.num_frequencies
            out[f"entries_{name}"] = sched.num_entries
        return out
