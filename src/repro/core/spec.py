"""Declarative job specifications: the unified request surface.

Four request surfaces grew separately — :class:`FlowConfig` + CLI flags
for single flows, ``ScenarioSpec`` JSON for fleet aging studies,
alert-stream JSON for ``repro resched`` and ``--profile/--workers`` knobs
for suite replays — each with its own parsing, validation and
cache-keying path.  This module collapses them into one typed layer:

* :class:`FlowJob`, :class:`SuiteJob`, :class:`FleetJob` and
  :class:`ReschedJob` are frozen dataclasses with JSON/dict round-trip
  (:meth:`JobSpec.to_dict` / :meth:`JobSpec.from_dict`), schema
  validation raising :class:`SpecError` with actionable messages, and a
  canonical :meth:`JobSpec.fingerprint` — sha256 over sorted-key compact
  JSON, the same hashing discipline the pipeline keys stage artifacts
  with (:meth:`repro.core.pipeline.Pipeline.stage_keys`).
* :class:`ScenarioSpec` / :class:`VariationSpec` (previously
  ``repro.aging.scenario``, which now re-exports from here) describe
  everything random or physical about a lifetime study and ride inside
  :class:`FleetJob` / :class:`ReschedJob` as nested specs.

Fingerprints cover only *semantic* fields: knobs that cannot change the
result (worker counts) are declared per class in ``NON_SEMANTIC`` and
excluded, just as the stage keys leave out the fleet's worker count.
Two submissions with equal fingerprints are therefore interchangeable —
the property the service orchestrator's dedupe relies on
(:mod:`repro.service.orchestrator`).

Import discipline: this module imports nothing from :mod:`repro.aging`
(or any other heavy subsystem) at module level — the degradation/hazard
model classes load lazily inside default factories and (de)serialisers —
so the ``repro.aging.scenario`` re-export shim cannot create an import
cycle regardless of which end is imported first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, ClassVar, Mapping

#: Bumped when the canonical serialisation of any spec changes meaning,
#: so stale fingerprints can never alias fresh ones.
SPEC_VERSION = 1

#: Default lifetime checkpoints (geometric sweep, lifetime units).
DEFAULT_CHECKPOINTS = tuple(0.25 * 2 ** (k / 2.0) for k in range(14))


class SpecError(ValueError):
    """A job/scenario document failed validation (message says how)."""


def canonical_fingerprint(payload: Mapping[str, Any]) -> str:
    """sha256 over sorted-key compact JSON — the shared hashing idiom."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Lazy model access (keeps this module import-cycle-proof)
# ----------------------------------------------------------------------
def _models():
    from repro.aging.degradation import BtiModel, EmModel, HciModel

    return BtiModel, HciModel, EmModel


def _hazards():
    from repro.aging.hazard import WeibullHazard, WeibullMixture

    return WeibullHazard, WeibullMixture


# ----------------------------------------------------------------------
# Scenario specs (the fleet/aging surface)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VariationSpec:
    """Per-device process spread of the degradation-law amplitudes.

    Each device draws one lognormal multiplier per mechanism
    (``exp(N(0, sigma))``), modeling die-to-die process variation of the
    BTI/HCI/EM susceptibility.
    """

    bti_sigma: float = 0.15
    hci_sigma: float = 0.20
    em_sigma: float = 0.25

    def __post_init__(self) -> None:
        for name in ("bti_sigma", "hci_sigma", "em_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of a (fleet) lifetime study.

    ``seed`` drives the population draws (process variation, lifetimes,
    weak-gate selection); ``gate_seed`` drives the deterministic per-gate
    stress/activity/current factors of the underlying
    :class:`~repro.aging.degradation.AgingScenario`.
    """

    bti: Any = field(default_factory=lambda: _models()[0]())
    hci: Any = field(default_factory=lambda: _models()[1]())
    em: Any = field(default_factory=lambda: _models()[2]())
    stress_spread: float = 0.5
    variation: VariationSpec = field(default_factory=VariationSpec)
    hazard: Any = field(default_factory=lambda: _hazards()[1].bathtub())
    checkpoints: tuple[float, ...] = DEFAULT_CHECKPOINTS
    #: Weak (marginal-defect) gates injected into infant-mortality devices.
    infant_weak_gates: int = 2
    #: Clamp of the per-device aging time-scale tau = wearout_scale / L.
    tau_min: float = 0.25
    tau_max: float = 8.0
    #: Operating clock period as a multiple of the t=0 critical path (the
    #: design's timing margin the degradation has to eat through).
    clock_margin: float = 1.15
    gate_seed: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.checkpoints:
            raise ValueError("scenario needs at least one checkpoint")
        if list(self.checkpoints) != sorted(self.checkpoints):
            raise ValueError("checkpoints must be ascending")
        if self.checkpoints[0] <= 0.0:
            raise ValueError("checkpoints must be positive")
        if self.infant_weak_gates < 0:
            raise ValueError("infant_weak_gates must be non-negative")
        if not 0.0 < self.tau_min <= self.tau_max:
            raise ValueError("need 0 < tau_min <= tau_max")
        if self.clock_margin < 1.0:
            raise ValueError("clock_margin must be >= 1")

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def aging_scenario(self):
        """The per-gate degradation scenario this spec describes."""
        from repro.aging.degradation import AgingScenario

        return AgingScenario(bti=self.bti, hci=self.hci, em=self.em,
                             seed=self.gate_seed,
                             stress_spread=self.stress_spread)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["checkpoints"] = list(self.checkpoints)
        d["hazard"] = {
            "components": [asdict(c) for c in self.hazard.components],
            "weights": list(self.hazard.weights),
        }
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown scenario fields: {', '.join(sorted(unknown))}")
        bti_cls, hci_cls, em_cls = _models()
        hazard_cls, mixture_cls = _hazards()
        kwargs: dict = dict(data)
        for name, model_cls in (("bti", bti_cls), ("hci", hci_cls),
                                ("em", em_cls)):
            if name in kwargs and isinstance(kwargs[name], dict):
                kwargs[name] = model_cls(**kwargs[name])
        if "variation" in kwargs and isinstance(kwargs["variation"], dict):
            kwargs["variation"] = VariationSpec(**kwargs["variation"])
        if "hazard" in kwargs and isinstance(kwargs["hazard"], dict):
            h = kwargs["hazard"]
            kwargs["hazard"] = mixture_cls(
                components=tuple(hazard_cls(**c)
                                 for c in h["components"]),
                weights=tuple(h["weights"]),
            )
        if "checkpoints" in kwargs:
            kwargs["checkpoints"] = tuple(kwargs["checkpoints"])
        return cls(**kwargs)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def fingerprint(self) -> str:
        """Stable content hash — the stage-cache key component."""
        return canonical_fingerprint(self.to_dict())[:16]


# ----------------------------------------------------------------------
# Job specs (the service/CLI surface)
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    """Spec field value → JSON document value (tuples become lists)."""
    if isinstance(value, ScenarioSpec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


class JobSpec:
    """Base machinery shared by every job type.

    Subclasses are frozen dataclasses; ``kind`` names the job type in
    serialized documents and ``NON_SEMANTIC`` lists fields that cannot
    change the result (excluded from :meth:`fingerprint`).
    """

    kind: ClassVar[str] = ""
    NON_SEMANTIC: ClassVar[frozenset[str]] = frozenset()

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):  # type: ignore[arg-type]
            out[f.name] = _jsonable(getattr(self, f.name))
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"{cls.kind} job document must be a JSON "
                            f"object, got {type(data).__name__}")
        payload = dict(data)
        kind = payload.pop("kind", cls.kind)
        if kind != cls.kind:
            raise SpecError(f"expected a {cls.kind!r} job document, "
                            f"got kind {kind!r}")
        known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(
                f"unknown {cls.kind} job field(s): {', '.join(unknown)} "
                f"(known fields: {', '.join(sorted(known))})")
        try:
            return cls(**cls._coerce(payload))
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid {cls.kind} job: {exc}") from exc

    @classmethod
    def _coerce(cls, payload: dict) -> dict:
        """Subclass hook: JSON-typed values → constructor arguments."""
        return payload

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    # -- identity -------------------------------------------------------
    def semantic_dict(self) -> dict:
        """The serialized spec with non-semantic fields removed."""
        d = self.to_dict()
        for name in self.NON_SEMANTIC:
            d.pop(name, None)
        return d

    def fingerprint(self) -> str:
        """Canonical content hash over the semantic fields.

        Equal fingerprints mean interchangeable results: the orchestrator
        dedupes submissions on this key, and repeated runs replay from
        the stage store.
        """
        return canonical_fingerprint(
            {"version": SPEC_VERSION, "spec": self.semantic_dict()})


@dataclass(frozen=True)
class FlowJob(JobSpec):
    """One complete HDF test flow on one circuit.

    ``circuit`` resolves like the CLI argument: a ``.bench``/``.v`` path,
    an embedded name (``s27``, ``c17``) or a suite circuit name.
    """

    kind: ClassVar[str] = "flow"

    circuit: str = ""
    fast_ratio: float = 3.0
    monitor_fraction: float = 0.25
    pattern_cap: int | None = None
    atpg_seed: int = 7
    with_schedules: bool = True
    with_coverage_schedules: bool = False

    def __post_init__(self) -> None:
        if not self.circuit:
            raise SpecError("flow job needs a non-empty 'circuit'")
        if self.fast_ratio < 1.0:
            raise SpecError("fast_ratio must be >= 1")
        if not 0.0 <= self.monitor_fraction <= 1.0:
            raise SpecError("monitor_fraction must lie in [0, 1]")
        if self.pattern_cap is not None and self.pattern_cap < 1:
            raise SpecError("pattern_cap must be positive when given")

    def flow_config(self):
        """The :class:`FlowConfig` this job runs under."""
        from repro.core.config import FlowConfig

        return FlowConfig(
            fast_ratio=self.fast_ratio,
            monitor_fraction=self.monitor_fraction,
            pattern_cap=self.pattern_cap,
            atpg_seed=self.atpg_seed,
        )


@dataclass(frozen=True)
class SuiteJob(JobSpec):
    """One suite replay (Tables I–III drivers, ``repro suite``).

    ``workers`` is the number of processes draining the suite's stage
    work units; it is non-semantic — results are bit-identical for any
    count — so it does not enter the fingerprint.
    """

    kind: ClassVar[str] = "suite"
    NON_SEMANTIC: ClassVar[frozenset[str]] = frozenset({"workers"})

    names: tuple[str, ...] = ()
    scale: float = 1.0
    with_schedules: bool = True
    with_coverage_schedules: bool = False
    fast_ratio: float = 3.0
    monitor_fraction: float = 0.25
    atpg_seed: int = 7
    #: Worker processes draining the stage work units.
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.names:
            raise SpecError("suite job needs at least one circuit name")
        object.__setattr__(self, "names", tuple(self.names))
        if self.scale <= 0.0:
            raise SpecError("scale must be positive")
        if self.workers < 1:
            raise SpecError("workers must be >= 1")

    @classmethod
    def _coerce(cls, payload: dict) -> dict:
        if "names" in payload and payload["names"] is not None:
            payload["names"] = tuple(payload["names"])
        return payload

    @classmethod
    def from_profile(cls, profile: str, *, count: int = 40,
                     **overrides: Any) -> "SuiteJob":
        """The CLI's ``--profile quick|paper|synth`` resolution."""
        from repro.circuits.library import (
            QUICK_SUITE_NAMES,
            paper_suite,
            synthetic_suite,
        )

        if profile == "quick":
            base: dict[str, Any] = {"names": tuple(QUICK_SUITE_NAMES),
                                    "scale": 0.6}
        elif profile == "paper":
            base = {"names": tuple(e.name for e in paper_suite())}
        elif profile == "synth":
            base = {"names": tuple(e.name
                                   for e in synthetic_suite(count)),
                    "with_schedules": False}
        else:
            raise SpecError(f"unknown suite profile {profile!r} "
                            f"(known: quick, paper, synth)")
        base.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**base)

    def run_config(self):
        """The :class:`SuiteRunConfig` this job executes as."""
        from repro.experiments.runner import SuiteRunConfig

        return SuiteRunConfig(
            names=self.names, scale=self.scale,
            with_schedules=self.with_schedules,
            with_coverage_schedules=self.with_coverage_schedules,
            fast_ratio=self.fast_ratio,
            monitor_fraction=self.monitor_fraction,
            atpg_seed=self.atpg_seed)


@dataclass(frozen=True)
class FleetJob(JobSpec):
    """One fleet-scale Monte Carlo aging study.

    The nested :class:`ScenarioSpec` carries everything random or
    physical; ``jobs`` only shards the population across processes
    (results are bit-identical), so it stays out of the fingerprint.
    """

    kind: ClassVar[str] = "fleet"
    NON_SEMANTIC: ClassVar[frozenset[str]] = frozenset({"jobs"})

    circuit: str = ""
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    devices: int = 1024
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.circuit:
            raise SpecError("fleet job needs a non-empty 'circuit'")
        if self.devices < 1:
            raise SpecError("devices must be >= 1")
        if self.jobs < 1:
            raise SpecError("jobs must be >= 1")

    @classmethod
    def _coerce(cls, payload: dict) -> dict:
        if isinstance(payload.get("scenario"), Mapping):
            payload["scenario"] = ScenarioSpec.from_dict(
                dict(payload["scenario"]))
        return payload


def _canonical_alerts(alerts: Any) -> tuple[tuple[tuple[int, float], ...],
                                            ...]:
    """Alert stream → ordered events of sorted ``(gate, shift)`` pairs."""
    out = []
    for k, event in enumerate(alerts):
        try:
            pairs = sorted((int(g), float(s)) for g, s in event)
        except (TypeError, ValueError):
            raise SpecError(
                f"alert #{k} must be a list of [gate, shift_ps] pairs, "
                f"got {event!r}") from None
        out.append(tuple(pairs))
    return tuple(out)


@dataclass(frozen=True)
class ReschedJob(JobSpec):
    """One in-field alert-stream replay through the warm re-solver.

    ``alerts`` is an explicit stream — ordered events, each a tuple of
    sorted ``(gate, shift_ps)`` pairs (the canonical form of
    :class:`repro.scheduling.resched.AlertDelta`).  When empty, a
    synthetic stream is generated from ``scenario`` (or the bench
    default scenario when that is ``None`` too).
    """

    kind: ClassVar[str] = "resched"

    circuit: str = ""
    fast_ratio: float = 3.0
    monitor_fraction: float = 0.25
    pattern_cap: int | None = None
    atpg_seed: int = 7
    alerts: tuple[tuple[tuple[int, float], ...], ...] = ()
    scenario: ScenarioSpec | None = None
    #: Synthetic-generator granularity: gates per alert event.
    max_gates: int = 1

    def __post_init__(self) -> None:
        if not self.circuit:
            raise SpecError("resched job needs a non-empty 'circuit'")
        if self.fast_ratio < 1.0:
            raise SpecError("fast_ratio must be >= 1")
        if not 0.0 <= self.monitor_fraction <= 1.0:
            raise SpecError("monitor_fraction must lie in [0, 1]")
        if self.pattern_cap is not None and self.pattern_cap < 1:
            raise SpecError("pattern_cap must be positive when given")
        if self.max_gates < 1:
            raise SpecError("max_gates must be >= 1")
        object.__setattr__(self, "alerts",
                           _canonical_alerts(self.alerts))

    @classmethod
    def _coerce(cls, payload: dict) -> dict:
        if isinstance(payload.get("scenario"), Mapping):
            payload["scenario"] = ScenarioSpec.from_dict(
                dict(payload["scenario"]))
        if "alerts" in payload and payload["alerts"] is not None:
            payload["alerts"] = _canonical_alerts(payload["alerts"])
        return payload

    @classmethod
    def alerts_from_deltas(cls, deltas) -> tuple[
            tuple[tuple[int, float], ...], ...]:
        """``AlertDelta`` events → the spec's canonical alert tuples."""
        return tuple(delta.shifts for delta in deltas)

    def alert_deltas(self):
        """The explicit alert stream as ``AlertDelta`` events."""
        from repro.scheduling.resched import AlertDelta

        return [AlertDelta.from_mapping(dict(pairs))
                for pairs in self.alerts]

    def flow_config(self):
        from repro.core.config import FlowConfig

        return FlowConfig(
            fast_ratio=self.fast_ratio,
            monitor_fraction=self.monitor_fraction,
            pattern_cap=self.pattern_cap,
            atpg_seed=self.atpg_seed,
        )


#: Registry of serialized job kinds (the ``"kind"`` document field).
JOB_TYPES: dict[str, type[JobSpec]] = {
    cls.kind: cls for cls in (FlowJob, SuiteJob, FleetJob, ReschedJob)}


def job_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Parse any job document, dispatching on its ``kind`` field."""
    if not isinstance(data, Mapping):
        raise SpecError(f"job document must be a JSON object, "
                        f"got {type(data).__name__}")
    kind = data.get("kind")
    if kind is None:
        raise SpecError("job document needs a 'kind' field "
                        f"(one of: {', '.join(sorted(JOB_TYPES))})")
    if kind not in JOB_TYPES:
        raise SpecError(f"unknown job kind {kind!r} "
                        f"(known kinds: {', '.join(sorted(JOB_TYPES))})")
    return JOB_TYPES[kind].from_dict(data)


def job_from_json(text: str) -> JobSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"job document is not valid JSON: {exc}") from exc
    return job_from_dict(data)


def load_job(path: str | Path) -> JobSpec:
    """Parse a job document from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read job file {path}: {exc}") from exc
    return job_from_json(text)
