"""Spans recorded from outside the program, around its public calls.

A :class:`Tracer` keeps spans in memory and writes them as JSON lines
when a workload ends.  Every span has a trace id (one per operation: a
pass, an alert or a request), its own id, its parent, a name, start and
end (``time.perf_counter`` seconds) and free-form attributes.

The layers are timed through their public seams only:

* :func:`proxy_pipeline` wraps every stage of ``DEFAULT_PIPELINE`` in a
  :class:`ProxyStage` that keeps the stage's name, deps, artifact type,
  config fields, ``config_key``, ``cacheable`` and ``CACHE_VERSION`` -- so
  stage keys, and therefore cache behaviour, are unchanged -- and opens a
  span around ``run``.  The flow's ``StageTimer`` totals are sliced per
  stage span and stored as the span's ``timer`` attribute.
* :class:`StoreProxy` is passed wherever the program takes a stage store
  (``load``/``store``) and times each call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class Tracer:
    """In-memory span sink; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_trace(self, kind: str) -> str:
        return f"{kind}-{next(self._ids)}"

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, trace: str | None = None,
             **attrs: Any) -> Iterator[dict]:
        """Record one span; nested calls on a thread become its children.

        ``trace`` starts a new root; a nested span inherits its parent's
        trace id.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "trace": trace or (parent["trace"] if parent else "orphan"),
            "span": next(self._ids),
            "parent": parent["span"] if parent and not trace else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attrs),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, *, trace: str,
            parent: int | None = None, **attrs: Any) -> dict:
        """Record a span measured elsewhere (e.g. from job timestamps)."""
        record = {"trace": trace, "span": next(self._ids), "parent": parent,
                  "name": name, "start": start, "end": end,
                  "attrs": dict(attrs)}
        self.spans.append(record)
        return record

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[int, float] = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(s["span"], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["span"]] = (hi - lo) - covered
    return out


# ----------------------------------------------------------------------
# Proxies at the program's public seams
# ----------------------------------------------------------------------
def _proxy_stage_class():
    from repro.core.stages import Stage

    class ProxyStage(Stage):
        """A pipeline stage that opens a span around the wrapped stage."""

        def __init__(self, inner: Stage, tracer: Tracer) -> None:
            self.inner = inner
            self.tracer = tracer
            self.name = inner.name
            self.deps = inner.deps
            self.artifact_type = inner.artifact_type
            self.config_fields = inner.config_fields
            self.CACHE_VERSION = inner.CACHE_VERSION

        def cacheable(self, ctx) -> bool:
            return self.inner.cacheable(ctx)

        def config_key(self, ctx) -> dict[str, Any]:
            return self.inner.config_key(ctx)

        def run(self, ctx, inputs):
            before = dict(ctx.timer.totals) if ctx.timer else {}
            counts = dict(ctx.timer.counts) if ctx.timer else {}
            with self.tracer.span(f"pipeline.{self.name}") as span:
                artifact = self.inner.run(ctx, inputs)
            if ctx.timer is not None:
                span["attrs"]["timer"] = {
                    key: {"seconds": total - before.get(key, 0.0),
                          "count": ctx.timer.counts.get(key, 0)
                          - counts.get(key, 0)}
                    for key, total in ctx.timer.totals.items()
                    if total != before.get(key, 0.0)}
            return artifact

    return ProxyStage


def proxy_pipeline(tracer: Tracer):
    """A ``Pipeline`` of proxies around every ``DEFAULT_PIPELINE`` stage."""
    from repro.core.pipeline import DEFAULT_PIPELINE, Pipeline

    proxy = _proxy_stage_class()
    return Pipeline(proxy(DEFAULT_PIPELINE.get(name), tracer)
                    for name in DEFAULT_PIPELINE.stages())


class StoreProxy:
    """Times and counts every ``load``/``store`` on a stage store.

    Spans carry the entry key so a caller can attribute them to the
    operation that owns the key.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def load(self, key: str):
        with self.tracer.span("store.load", trace="store", key=key) as span:
            obj = self.inner.load(key)
        span["attrs"]["hit"] = obj is not None
        return obj

    def store(self, key: str, obj) -> None:
        with self.tracer.span("store.store", trace="store", key=key):
            self.inner.store(key, obj)
