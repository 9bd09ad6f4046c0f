"""Transition-list waveforms for timing-accurate small-delay-fault simulation.

A :class:`Waveform` is a right-continuous, piecewise-constant binary signal:
an initial value plus a sorted list of ``(time, value)`` transitions.  The
waveform simulator computes one waveform per net and test pattern; the
detection range of a fault is extracted by XOR-ing the fault-free and faulty
output waveforms (Sec. III-B of the paper).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from repro.utils.intervals import EPS, Interval, IntervalSet


class Waveform:
    """Immutable piecewise-constant binary waveform.

    ``events`` is a tuple of ``(time, value)`` pairs sorted by time with
    strictly alternating values (canonical form).  The signal holds
    ``initial`` before the first event and the last event's value afterwards.
    """

    __slots__ = ("initial", "events")

    def __init__(self, initial: int, events: Iterable[tuple[float, int]] = ()) -> None:
        if initial not in (0, 1):
            raise ValueError(f"waveform initial value must be 0/1, got {initial!r}")
        self.initial = initial
        self.events = _canonicalize(initial, events)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value: int) -> "Waveform":
        return cls(value)

    @classmethod
    def step(cls, initial: int, at: float) -> "Waveform":
        """Single transition from ``initial`` to its complement at time ``at``."""
        return cls(initial, [(at, 1 - initial)])

    @classmethod
    def from_canonical(cls, initial: int,
                       events: tuple[tuple[float, int], ...]) -> "Waveform":
        """Construct from events already in canonical form, skipping
        :func:`_canonicalize`.

        Callers must guarantee the invariants (time-sorted with gaps
        ``> EPS``, strictly alternating values starting opposite
        ``initial``); :func:`sequential_schedule` output with a threshold
        above ``2·EPS`` satisfies them by construction.  This is the hot
        constructor of the simulation engine — re-normalizing provably
        canonical schedules dominated waveform creation otherwise.
        """
        w = object.__new__(cls)
        w.initial = initial
        w.events = events
        return w

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value_at(self, t: float) -> int:
        """Signal value at time ``t`` (right-continuous at transitions).

        Binary search over the sorted event times: the value is the one set
        by the last event at or before ``t + EPS``.  Values are 0/1, so the
        probe ``(t + EPS, 2)`` sorts after every event at that time and
        ``bisect_right`` lands exactly where the old linear scan stopped.
        """
        idx = bisect_right(self.events, (t + EPS, 2))
        return self.events[idx - 1][1] if idx else self.initial

    @property
    def final_value(self) -> int:
        return self.events[-1][1] if self.events else self.initial

    @property
    def last_event_time(self) -> float:
        """Time after which the signal is stable (0.0 for constants)."""
        return self.events[-1][0] if self.events else 0.0

    @property
    def num_transitions(self) -> int:
        return len(self.events)

    def has_transition(self, *, rising: bool | None = None) -> bool:
        """True when the waveform toggles (optionally restricted by polarity)."""
        events = self.events
        if rising is None:
            return bool(events)
        if not events:
            return False
        # Canonical events strictly alternate, so a polarity is present
        # iff the first event has it or there are at least two events.
        return events[0][1] == (1 if rising else 0) or len(events) >= 2

    def is_stable_in(self, lo: float, hi: float) -> bool:
        """True if no transition falls strictly inside ``(lo, hi)``.

        Used to model the monitor detection window (guard band): an aging
        alert is raised exactly when the observed signal toggles inside the
        window (Sec. II-B).
        """
        return not any(lo + EPS < t < hi - EPS for t, _ in self.events)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def delayed(self, d_rise: float, d_fall: float, *,
                inertial: float = 0.0) -> "Waveform":
        """Polarity-dependent delay: rising edges move by ``d_rise``, falling
        edges by ``d_fall``; pulses narrower than ``inertial`` are filtered.

        This models both a gate's output stage and a small delay fault
        ``(g, δ)`` slowing one transition polarity at its fault site.
        Edges are rescheduled in their *causal* order with inertial
        cancellation: when unequal rise/fall delays make a later edge
        overtake an earlier one, the in-flight pulse annihilates instead of
        surviving as a spurious permanent value change.
        """
        if not self.events:
            return self
        moved = [(t + (d_rise if v == 1 else d_fall), v)
                 for t, v in self.events]
        return scheduled_waveform(self.initial, moved, inertial)

    def shifted(self, d: float) -> "Waveform":
        """Uniform translation by ``d`` (a monitor delay element)."""
        return Waveform(self.initial, [(t + d, v) for t, v in self.events])

    def inertial_filtered(self, threshold: float) -> "Waveform":
        """Remove pulses narrower than ``threshold`` (inertial delay model).

        Repeatedly cancels adjacent transition pairs closer than
        ``threshold`` until the waveform is stable, mirroring pulse filtering
        in CMOS gates (Sec. II-A).
        """
        if threshold <= 0.0 or len(self.events) < 2:
            return self
        events = list(self.events)
        changed = True
        while changed and len(events) >= 2:
            changed = False
            for i in range(len(events) - 1):
                if events[i + 1][0] - events[i][0] < threshold - EPS:
                    del events[i:i + 2]
                    changed = True
                    break
        return Waveform(self.initial, events)

    def inverted(self) -> "Waveform":
        return Waveform(1 - self.initial, [(t, 1 - v) for t, v in self.events])

    # ------------------------------------------------------------------
    # Comparison / detection
    # ------------------------------------------------------------------
    def diff_intervals(self, other: "Waveform", horizon: float) -> IntervalSet:
        """Times in ``[0, horizon]`` where the two waveforms differ.

        This is the XOR of the fault-free and faulty output waveforms from
        which the detection range of a fault is derived (Sec. III-B).
        """
        pieces: list[Interval] = []
        times = sorted({0.0, horizon,
                        *(t for t, _ in self.events if 0.0 < t < horizon),
                        *(t for t, _ in other.events if 0.0 < t < horizon)})
        start: float | None = None
        for t in times:
            differ = self.value_at(t) != other.value_at(t)
            if differ and start is None:
                start = t
            elif not differ and start is not None:
                pieces.append(Interval(start, t))
                start = None
        if start is not None and horizon - start > EPS:
            pieces.append(Interval(start, horizon))
        return IntervalSet(pieces)

    def sample(self, times: Sequence[float]) -> list[int]:
        """Values at a sorted sequence of sample times (single sweep)."""
        out: list[int] = []
        idx = 0
        value = self.initial
        for t in times:
            while idx < len(self.events) and self.events[idx][0] <= t + EPS:
                value = self.events[idx][1]
                idx += 1
            out.append(value)
        return out

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Waveform):
            return NotImplemented
        if self.initial != other.initial:
            return False
        se, oe = self.events, other.events
        # Fast path: exact tuple equality (the common case — the incremental
        # fault simulator compares recomputed waveforms against shared
        # fault-free ones, which are bit-identical when unaffected).
        if se == oe:
            return True
        if len(se) != len(oe):
            return False
        return all(
            abs(ta - tb) <= EPS and va == vb
            for (ta, va), (tb, vb) in zip(se, oe)
        )

    def __hash__(self) -> int:
        return hash((self.initial,
                     tuple((round(t, 6), v) for t, v in self.events)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = "".join(f" →{v}@{t:g}" for t, v in self.events)
        return f"Waveform({self.initial}{parts})"


def sequential_schedule(initial: int,
                        events: Iterable[tuple[float, int]],
                        inertial: float = 0.0) -> list[tuple[float, int]]:
    """Inertial-delay transition scheduling.

    ``events`` are candidate output transitions in *causal* order (the
    order their triggering input events occur), with already-delayed times
    that may be non-monotonic when rise/fall delays differ.  A new
    transition closer than ``inertial`` to — or earlier than — a pending
    one cancels it (the pulse never forms), exactly like the event-driven
    engine's scheduling rule.  The returned list is time-monotonic with all
    surviving transitions separated by at least ``inertial``.
    """
    out: list[tuple[float, int]] = []
    for t, v in events:
        while out and t - out[-1][0] < inertial - EPS:
            out.pop()
        last = out[-1][1] if out else initial
        if v != last:
            out.append((t, v))
    return out


def scheduled_waveform(initial: int,
                       events: Iterable[tuple[float, int]],
                       inertial: float = 0.0) -> Waveform:
    """:func:`sequential_schedule` + :class:`Waveform` in one step.

    When the inertial threshold exceeds ``2·EPS`` the schedule is canonical
    by construction (strictly increasing times with gaps ``> EPS``,
    alternating values), so the normalizing constructor is bypassed.
    """
    sched = sequential_schedule(initial, events, inertial)
    if inertial > 2 * EPS:
        return Waveform.from_canonical(initial, tuple(sched))
    return Waveform(initial, sched)


def _canonicalize(initial: int,
                  events: Iterable[tuple[float, int]]) -> tuple[tuple[float, int], ...]:
    """Sort events, collapse same-time duplicates (last wins) and drop no-ops."""
    items = sorted(((float(t), int(v)) for t, v in events), key=lambda e: e[0])
    collapsed: list[tuple[float, int]] = []
    for t, v in items:
        if v not in (0, 1):
            raise ValueError(f"waveform values must be 0/1, got {v!r}")
        if collapsed and abs(collapsed[-1][0] - t) <= EPS:
            collapsed[-1] = (collapsed[-1][0], v)
        else:
            collapsed.append((t, v))
    out: list[tuple[float, int]] = []
    value = initial
    for t, v in collapsed:
        if v != value:
            out.append((t, v))
            value = v
    return tuple(out)
