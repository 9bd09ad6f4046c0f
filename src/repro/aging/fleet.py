"""Fleet-scale Monte Carlo aging engine.

Single-device lifetime simulation (:mod:`repro.aging.lifetime`) answers
*"when does this device fail and how early does the monitor warn?"*.  The
paper's reliability claims, however, are population statements: across a
shipped fleet, how are detection latency, prediction lead time and
mispredict rate distributed?  This module answers that by Monte Carlo over
device populations:

* :func:`sample_population` draws per-device variation once — lognormal
  process spread on the BTI/HCI/EM susceptibility, a lifetime from a
  Weibull infant-mortality + wear-out hazard mixture
  (:class:`~repro.aging.hazard.WeibullMixture`), a per-device aging
  time-scale coupling the lifetime draw to the degradation laws, and weak
  (marginal-defect) gates for the infant-mortality devices.
* :func:`simulate_fleet_vectorized` evaluates every device at every
  lifetime checkpoint against an STA-level surrogate of the monitor bank,
  with NumPy kernels over ``(gates, devices)`` delay-factor blocks,
  optionally sharded over worker processes.
  :func:`simulate_fleet_reference`, a single-process per-device Python
  loop, is the semantics pin the tests compare it against: the two are
  bit-identical by construction (both consume the same population draws
  and perform the same IEEE-754 operations in the same order).

The surrogate models each monitor as watching the maximum arrival time of
its observation point: configuration ``c`` (delay element ``d_c``) alerts
at a checkpoint when the monitored margin ``T - max_arrival`` has fallen
below ``d_c``, and the device fails when the critical path exceeds the
clock period — the same margin-staircase abstraction
:class:`~repro.aging.prediction.FailurePredictor` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aging.degradation import AgingScenario
from repro.aging.marginal import MarginalDeviceModel
from repro.aging.scenario import ScenarioSpec
from repro.monitors.insertion import (
    DEFAULT_COVERAGE_FRACTION,
    insert_monitors,
)
from repro.monitors.monitor import MonitorConfigSet
from repro.netlist.circuit import Circuit, GateKind
from repro.timing.sta import run_sta
from repro.timing.variation import fault_size_for_gate

#: Devices evaluated per vectorized block (bounds peak memory to
#: ``gates * block`` doubles per delay-factor matrix).
DEFAULT_BLOCK = 16384

#: Weak-gate growth law constants (mirror :class:`MarginalDeviceModel`).
_MARGINAL_DEFAULTS = MarginalDeviceModel(weak_gates={})


@dataclass
class FleetPopulation:
    """Per-device Monte Carlo draws, shared by both engines.

    Sampling once and handing the same arrays to either engine is what
    makes the reference/vectorized parity exact: only the evaluation
    differs, never the randomness.
    """

    spec: ScenarioSpec
    devices: int
    #: Lognormal process-variation multipliers, one per mechanism: (D,).
    amp_bti: np.ndarray
    amp_hci: np.ndarray
    amp_em: np.ndarray
    #: Weibull-mixture lifetime draw and originating component: (D,).
    lifetime: np.ndarray
    component: np.ndarray
    #: Per-device aging time-scale tau (lifetime coupling): (D,).
    tau: np.ndarray
    #: Marginal-defect slots (infant devices only): (D, K).
    weak_gate: np.ndarray
    weak_delta0: np.ndarray
    weak_base: np.ndarray

    @property
    def is_infant(self) -> np.ndarray:
        """Devices drawn from the infant-mortality mixture component."""
        return self.component == 0

    @property
    def infant_count(self) -> int:
        return int(np.count_nonzero(self.is_infant))


def sample_population(circuit: Circuit, spec: ScenarioSpec,
                      devices: int) -> FleetPopulation:
    """Draw the fleet's per-device variation from ``spec.seed``.

    Draw order is fixed (amplitudes, lifetimes, weak gates) so a given
    ``(spec, devices)`` always produces the same population regardless of
    which engine later evaluates it.
    """
    if devices < 1:
        raise ValueError("population needs at least one device")
    rng = np.random.default_rng(spec.seed)
    var = spec.variation
    amp_bti = np.exp(rng.standard_normal(devices) * var.bti_sigma)
    amp_hci = np.exp(rng.standard_normal(devices) * var.hci_sigma)
    amp_em = np.exp(rng.standard_normal(devices) * var.em_sigma)

    lifetime, component = spec.hazard.sample(rng, devices)
    # Couple the lifetime draw to the degradation laws: devices fated to
    # fail early age proportionally faster (t_eff = t * tau).
    with np.errstate(divide="ignore"):
        tau = np.clip(spec.hazard.wearout.scale / lifetime,
                      spec.tau_min, spec.tau_max)

    comb = np.asarray(circuit.combinational_gates(), dtype=np.int64)
    k = min(spec.infant_weak_gates, len(comb))
    pick = rng.integers(0, len(comb), size=(devices, k)) if k else \
        np.zeros((devices, 0), dtype=np.int64)
    weak_gate = comb[pick] if k else pick
    if k:
        sizes = np.array([fault_size_for_gate(circuit, int(g))
                          for g in comb])
        bases = np.array([circuit.gates[int(g)].max_delay() for g in comb])
        infant = (component == 0)[:, None]
        weak_delta0 = np.where(infant, sizes[pick], 0.0)
        weak_base = np.maximum(bases[pick], 1e-12)
    else:
        weak_delta0 = np.zeros((devices, 0))
        weak_base = np.ones((devices, 0))
    return FleetPopulation(
        spec=spec, devices=devices,
        amp_bti=amp_bti, amp_hci=amp_hci, amp_em=amp_em,
        lifetime=lifetime, component=component, tau=tau,
        weak_gate=weak_gate, weak_delta0=weak_delta0, weak_base=weak_base,
    )


@dataclass
class FleetResult:
    """Checkpointed fleet evaluation: the raw material for batch prediction.

    Index matrices hold *checkpoint indices* (-1 = never): ``first_alert``
    is ``(configs, devices)``, ``failure`` is ``(devices,)``; ``slack`` is
    the full ``(devices, checkpoints)`` margin trace.
    """

    spec: ScenarioSpec
    clock_period: float
    config_delays: tuple[float, ...]
    times: np.ndarray
    slack: np.ndarray
    first_alert: np.ndarray
    failure: np.ndarray
    population: FleetPopulation = field(repr=False)

    @property
    def devices(self) -> int:
        return self.population.devices

    def failure_times(self) -> np.ndarray:
        """Per-device failure time (NaN when the device never fails)."""
        return np.where(self.failure >= 0,
                        self.times[np.maximum(self.failure, 0)], np.nan)

    def first_alert_times(self) -> np.ndarray:
        """(configs, devices) first-alert times (NaN when never alerted)."""
        return np.where(self.first_alert >= 0,
                        self.times[np.maximum(self.first_alert, 0)], np.nan)

    def first_warning_times(self) -> np.ndarray:
        """Earliest alert of any configuration, per device (NaN = none)."""
        alerts = self.first_alert_times()
        if alerts.shape[0] == 0:
            return np.full(self.devices, np.nan)
        with np.errstate(invalid="ignore"):
            return np.nanmin(alerts, axis=0)


# ----------------------------------------------------------------------
# Shared precomputation
# ----------------------------------------------------------------------
@dataclass
class _FleetSetup:
    """Everything both engines need beyond the population draws."""

    topo: list[tuple[int, list[tuple[int, float]]]]
    n_gates: int
    stress: np.ndarray
    activity: np.ndarray
    current: np.ndarray
    observed: list[int]
    monitored: list[int]
    clock_period: float
    config_delays: tuple[float, ...]


def fleet_setup(circuit: Circuit, spec: ScenarioSpec, *,
                clock_period: float,
                config_delays: tuple[float, ...],
                monitored_gates) -> _FleetSetup:
    """Build the engine-shared setup from precomputed timing artifacts.

    The pipeline's :class:`~repro.core.stages.AgingStage` calls this with
    the cached STA/placement artifact so the fleet sweep amortizes the
    timing work across engines, device counts and scenario variants.
    """
    scenario: AgingScenario = spec.aging_scenario()
    stress, activity, current = scenario.gate_factor_arrays(circuit)
    topo = []
    for idx in circuit.topo_order:
        g = circuit.gates[idx]
        if not GateKind.is_combinational(g.kind):
            continue
        pins = [(src, max(rise, fall))
                for (rise, fall), src in zip(g.pin_delays, g.fanin)]
        topo.append((idx, pins))
    observed = sorted({op.gate for op in circuit.observation_points()})
    return _FleetSetup(
        topo=topo, n_gates=len(circuit.gates),
        stress=stress, activity=activity, current=current,
        observed=observed, monitored=sorted(monitored_gates),
        clock_period=clock_period, config_delays=tuple(config_delays),
    )


def _prepare(circuit: Circuit, spec: ScenarioSpec, *,
             monitor_fraction: float,
             clock_period: float | None) -> _FleetSetup:
    sta = run_sta(circuit)
    period = clock_period if clock_period is not None else \
        spec.clock_margin * sta.critical_path
    configs = MonitorConfigSet.paper_default(period)
    placement = insert_monitors(circuit, sta, configs,
                                fraction=monitor_fraction)
    return fleet_setup(circuit, spec, clock_period=period,
                       config_delays=tuple(configs),
                       monitored_gates=placement.monitored_gates)


# ----------------------------------------------------------------------
# Multi-process sharding of the vectorized engine
# ----------------------------------------------------------------------
def _population_slice(pop: FleetPopulation, lo: int,
                      hi: int) -> FleetPopulation:
    return FleetPopulation(
        spec=pop.spec, devices=hi - lo,
        amp_bti=pop.amp_bti[lo:hi], amp_hci=pop.amp_hci[lo:hi],
        amp_em=pop.amp_em[lo:hi], lifetime=pop.lifetime[lo:hi],
        component=pop.component[lo:hi], tau=pop.tau[lo:hi],
        weak_gate=pop.weak_gate[lo:hi], weak_delta0=pop.weak_delta0[lo:hi],
        weak_base=pop.weak_base[lo:hi],
    )


def _shard_worker(payload):
    circuit, spec, shard, setup, block = payload
    return simulate_fleet_vectorized(circuit, spec, shard, setup=setup,
                                     block=block)


def _sharded_run(circuit: Circuit, spec: ScenarioSpec,
                 population: FleetPopulation, jobs: int, *,
                 monitor_fraction: float, clock_period: float | None,
                 setup: "_FleetSetup | None",
                 block: int) -> "FleetResult | None":
    """Fan a population out over worker processes; ``None`` = run inline.

    Shards are contiguous device ranges and every per-device computation is
    independent, so a sharded run is bit-identical to ``jobs=1``.
    """
    if jobs <= 1 or population.devices < 2:
        return None
    from concurrent.futures import ProcessPoolExecutor

    s = setup or _prepare(circuit, spec, monitor_fraction=monitor_fraction,
                          clock_period=clock_period)
    n = min(jobs, population.devices)
    bounds = np.linspace(0, population.devices, n + 1).astype(int)
    payloads = [(circuit, spec,
                 _population_slice(population, int(lo), int(hi)), s, block)
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        parts = list(pool.map(_shard_worker, payloads))
    first = parts[0]
    return FleetResult(
        spec=spec, clock_period=first.clock_period,
        config_delays=first.config_delays, times=first.times,
        slack=np.concatenate([p.slack for p in parts], axis=0),
        first_alert=np.concatenate([p.first_alert for p in parts], axis=1),
        failure=np.concatenate([p.failure for p in parts]),
        population=population,
    )


# ----------------------------------------------------------------------
# Reference engine: per-device Python loop (the semantics pin)
# ----------------------------------------------------------------------
def simulate_fleet_reference(circuit: Circuit, spec: ScenarioSpec,
                             population: FleetPopulation, *,
                             monitor_fraction: float = DEFAULT_COVERAGE_FRACTION,
                             clock_period: float | None = None,
                             setup: _FleetSetup | None = None) -> FleetResult:
    """Scalar per-device evaluation loop (single process; a test oracle).

    Deliberately written with plain Python floats in the *same* operation
    order as the vectorized kernels; the golden parity test pins the two
    bit-identical.
    """
    s = setup or _prepare(circuit, spec, monitor_fraction=monitor_fraction,
                          clock_period=clock_period)
    d = population.devices
    times = np.asarray(spec.checkpoints)
    n_cfg = len(s.config_delays)
    slack = np.zeros((d, len(times)))
    first_alert = np.full((n_cfg, d), -1, dtype=np.int32)
    failure = np.full(d, -1, dtype=np.int32)

    growth = _MARGINAL_DEFAULTS.growth
    accel = _MARGINAL_DEFAULTS.accel
    b_amp, b_exp = spec.bti.amplitude, spec.bti.exponent
    h_amp, h_exp = spec.hci.amplitude, spec.hci.exponent
    e_rate, e_onset = spec.em.rate, spec.em.onset
    period = s.clock_period
    k = population.weak_gate.shape[1]

    for dev in range(d):
        tau = float(population.tau[dev])
        a_b = b_amp * float(population.amp_bti[dev])
        a_h = h_amp * float(population.amp_hci[dev])
        a_e = e_rate * float(population.amp_em[dev])
        weak = [(int(population.weak_gate[dev, j]),
                 float(population.weak_delta0[dev, j]),
                 float(population.weak_base[dev, j]))
                for j in range(k)]
        for ti, t in enumerate(spec.checkpoints):
            t_eff = t * tau
            fac = [1.0] * s.n_gates
            # np.power (not **): the ufunc inner loop is what the
            # vectorized engine runs, and it differs from libm pow by an
            # ulp for some inputs — parity requires the same loop.
            for g, _pins in s.topo:
                bti = a_b * np.power(s.stress[g] * t_eff, b_exp)
                hci = a_h * np.power(s.activity[g] * t_eff, h_exp)
                em = ((a_e * s.current[g]) * (t_eff - e_onset)
                      if t_eff > e_onset else 0.0)
                fac[g] = ((1.0 + bti) + hci) + em
            growth_term = 1.0 + growth * np.power(t_eff, accel)
            for g, delta0, base in weak:
                fac[g] = fac[g] * (1.0 + (delta0 * growth_term) / base)
            arr = [0.0] * s.n_gates
            for g, pins in s.topo:
                f = fac[g]
                acc = arr[pins[0][0]] + pins[0][1] * f
                for src, dmax in pins[1:]:
                    cand = arr[src] + dmax * f
                    if cand > acc:
                        acc = cand
                arr[g] = acc
            cp = 0.0
            for g in s.observed:
                if arr[g] > cp:
                    cp = arr[g]
            mon = 0.0
            for g in s.monitored:
                if arr[g] > mon:
                    mon = arr[g]
            sl = period - cp
            slack[dev, ti] = sl
            if sl < 0.0 and failure[dev] < 0:
                failure[dev] = ti
            margin = period - mon
            for ci in range(n_cfg):
                if first_alert[ci, dev] < 0 and margin < s.config_delays[ci]:
                    first_alert[ci, dev] = ti
    return FleetResult(
        spec=spec, clock_period=period,
        config_delays=s.config_delays, times=times, slack=slack,
        first_alert=first_alert, failure=failure, population=population,
    )


# ----------------------------------------------------------------------
# Vectorized engine: (gates, devices) block kernels
# ----------------------------------------------------------------------
def simulate_fleet_vectorized(circuit: Circuit, spec: ScenarioSpec,
                              population: FleetPopulation, *,
                              monitor_fraction: float = DEFAULT_COVERAGE_FRACTION,
                              clock_period: float | None = None,
                              block: int = DEFAULT_BLOCK,
                              jobs: int = 1,
                              setup: _FleetSetup | None = None) -> FleetResult:
    """NumPy block evaluation of the whole fleet.

    Devices are processed in blocks of ``block`` to bound peak memory; per
    checkpoint one ``(gates, block)`` delay-factor matrix and one arrival
    matrix are materialised and reduced in a levelized sweep.
    """
    if block < 1:
        raise ValueError("block size must be positive")
    sharded = _sharded_run(circuit, spec, population, jobs,
                           monitor_fraction=monitor_fraction,
                           clock_period=clock_period, block=block,
                           setup=setup)
    if sharded is not None:
        return sharded
    s = setup or _prepare(circuit, spec, monitor_fraction=monitor_fraction,
                          clock_period=clock_period)
    d = population.devices
    times = np.asarray(spec.checkpoints)
    n_cfg = len(s.config_delays)
    slack = np.zeros((d, len(times)))
    first_alert = np.full((n_cfg, d), -1, dtype=np.int32)
    failure = np.full(d, -1, dtype=np.int32)

    growth = _MARGINAL_DEFAULTS.growth
    accel = _MARGINAL_DEFAULTS.accel
    b_amp, b_exp = spec.bti.amplitude, spec.bti.exponent
    h_amp, h_exp = spec.hci.amplitude, spec.hci.exponent
    e_rate, e_onset = spec.em.rate, spec.em.onset
    period = s.clock_period
    comb_idx = np.array([g for g, _ in s.topo], dtype=np.int64)
    stress_c = s.stress[comb_idx][:, None]
    activity_c = s.activity[comb_idx][:, None]
    current_c = s.current[comb_idx][:, None]
    row_lut = np.full(s.n_gates, -1, dtype=np.int64)
    row_lut[comb_idx] = np.arange(len(comb_idx))
    k = population.weak_gate.shape[1]

    for lo in range(0, d, block):
        hi = min(lo + block, d)
        nb = hi - lo
        tau = population.tau[lo:hi]
        a_b = b_amp * population.amp_bti[lo:hi]
        a_h = h_amp * population.amp_hci[lo:hi]
        a_e = e_rate * population.amp_em[lo:hi]
        weak_rows = row_lut[population.weak_gate[lo:hi]] if k else None
        weak_delta0 = population.weak_delta0[lo:hi]
        weak_base = population.weak_base[lo:hi]
        dev_cols = np.arange(nb)
        arr = np.zeros((s.n_gates, nb))
        for ti, t in enumerate(spec.checkpoints):
            t_eff = t * tau  # (B,)
            bti = a_b * np.power(stress_c * t_eff, b_exp)
            hci = a_h * np.power(activity_c * t_eff, h_exp)
            em = np.where(t_eff > e_onset,
                          (a_e * current_c) * (t_eff - e_onset), 0.0)
            fac = ((1.0 + bti) + hci) + em  # (comb, B)
            if k:
                growth_term = 1.0 + growth * np.power(t_eff, accel)
                mult = 1.0 + (weak_delta0 * growth_term[:, None]) / weak_base
                for j in range(k):
                    np.multiply.at(fac, (weak_rows[:, j], dev_cols),
                                   mult[:, j])
            arr[:] = 0.0
            for r, (g, pins) in enumerate(s.topo):
                f = fac[r]
                acc = arr[pins[0][0]] + pins[0][1] * f
                for src, dmax in pins[1:]:
                    np.maximum(acc, arr[src] + dmax * f, out=acc)
                arr[g] = acc
            cp = (np.max(arr[s.observed], axis=0) if s.observed
                  else np.zeros(nb))
            cp = np.maximum(cp, 0.0)
            mon = (np.max(arr[s.monitored], axis=0) if s.monitored
                   else np.zeros(nb))
            mon = np.maximum(mon, 0.0)
            sl = period - cp
            slack[lo:hi, ti] = sl
            newly_failed = (failure[lo:hi] < 0) & (sl < 0.0)
            failure[lo:hi][newly_failed] = ti
            margin = period - mon
            for ci in range(n_cfg):
                newly = ((first_alert[ci, lo:hi] < 0)
                         & (margin < s.config_delays[ci]))
                first_alert[ci, lo:hi][newly] = ti
    return FleetResult(
        spec=spec, clock_period=period,
        config_delays=s.config_delays, times=times, slack=slack,
        first_alert=first_alert, failure=failure, population=population,
    )

