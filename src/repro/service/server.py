"""Stdlib-only HTTP/JSON API over the job orchestrator.

Endpoints (all JSON):

* ``POST /jobs``              — submit a job document (``{"kind": ...}``);
  returns ``202`` with the job id, fingerprint and dedup target, ``400``
  for a bad ``Content-Length`` or a body that is not UTF-8 JSON, and
  ``413`` for a body over :data:`MAX_BODY_BYTES`.
* ``GET  /jobs``              — list all submissions.
* ``GET  /jobs/<id>``         — status (state, cache, seconds, error).
* ``GET  /jobs/<id>/result``  — the result payload once terminal
  (``409`` while queued/running).
* ``GET  /jobs/<id>/stream``  — chunked event stream: one JSON object
  per line (queued, started, per-stage timings, done/failed), closing
  after the terminal event.
* ``GET  /jobs/<id>/events``  — polling alternative (``?since=N``).
* ``POST /jobs/<id>/cancel``  — cancel a queued job.
* ``GET  /healthz``           — liveness probe.

The orchestrator's asyncio loop runs in a dedicated daemon thread;
handler threads (``ThreadingHTTPServer``) submit/cancel by bridging with
``asyncio.run_coroutine_threadsafe`` and read the thread-safe record
store directly for status and streaming.  No third-party dependencies.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.core.spec import SpecError, job_from_dict
from repro.service.orchestrator import ENV_STORE, Orchestrator

DEFAULT_PORT = 8732

#: Largest accepted ``POST /jobs`` body; a longer one is answered ``413``
#: before any of it is read.
MAX_BODY_BYTES = 1 << 20


class HdfService:
    """The serving container: orchestrator loop thread + HTTP server."""

    def __init__(self, *, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 store=ENV_STORE, workers: int = 2):
        self.orchestrator = Orchestrator(store=store, workers=workers)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-service-loop", daemon=True)
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True

    # -- loop plumbing --------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call(self, coro) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HdfService":
        self._loop_thread.start()
        self._call(self.orchestrator.start())
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        try:
            self._call(self.orchestrator.close())
        except RuntimeError:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=5.0)

    # -- operations (shared by handler threads and tests) ---------------
    def submit(self, document: dict) -> dict:
        spec = job_from_dict(document)
        record = self._call(self.orchestrator.submit(spec))
        return {"id": record.id, "kind": spec.kind,
                "fingerprint": record.fingerprint,
                "state": record.state,
                "deduped": record.dedup_of is not None,
                "dedup_of": record.dedup_of}

    def cancel(self, job_id: str) -> bool:
        return self._call(self.orchestrator.cancel(job_id))


def _make_handler(service: HdfService):
    orch = service.orchestrator

    class ServiceHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-hdf-service"

        # -- helpers ---------------------------------------------------
        def _json(self, status: int, payload: dict) -> None:
            body = json.dumps(payload, indent=2, sort_keys=True).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._json(status, {"error": message})

        def _record_or_404(self, job_id: str):
            record = orch.get(job_id)
            if record is None:
                self._error(404, f"unknown job id {job_id!r}")
            return record

        def _read_body(self) -> bytes | None:
            """The request body, or ``None`` once a 400/413 is sent.

            A rejected request closes the connection: its body, if any,
            is left unread, so the stream cannot carry another request.
            """
            header = self.headers.get("Content-Length")
            try:
                length = int(header)
            except (TypeError, ValueError):
                length = -1
            if length < 0:
                self.close_connection = True
                self._error(400, f"invalid Content-Length {header!r}")
                return None
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                self._error(413, f"request body of {length} bytes exceeds "
                                 f"{MAX_BODY_BYTES}")
                return None
            return self.rfile.read(length)

        def log_message(self, fmt: str, *args) -> None:
            pass  # keep stdout/stderr for the serve banner only

        # -- routes ----------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            path, _, query = self.path.partition("?")
            parts = [p for p in path.split("/") if p]
            if parts == ["healthz"]:
                self._json(200, {"ok": True, "jobs": len(orch.jobs())})
            elif parts == ["jobs"]:
                self._json(200, {"jobs": orch.jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                record = self._record_or_404(parts[1])
                if record is not None:
                    self._json(200, record.status())
            elif len(parts) == 3 and parts[0] == "jobs":
                job_id, verb = parts[1], parts[2]
                record = self._record_or_404(job_id)
                if record is None:
                    return
                if verb == "result":
                    if not record.terminal:
                        self._error(409, f"job {job_id} is "
                                         f"{record.state}; result not "
                                         f"ready")
                    elif record.state != "done":
                        self._json(200, {**record.status()})
                    else:
                        self._json(200, {**record.status(),
                                         "result": record.payload})
                elif verb == "events":
                    since = _since(query)
                    events, terminal = orch.events_since(job_id, since)
                    self._json(200, {"events": events,
                                     "terminal": terminal})
                elif verb == "stream":
                    self._stream(job_id)
                else:
                    self._error(404, f"unknown endpoint {path!r}")
            else:
                self._error(404, f"unknown endpoint {path!r}")

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            parts = [p for p in self.path.split("/") if p]
            if parts == ["jobs"]:
                raw = self._read_body()
                if raw is None:
                    return
                try:
                    document = json.loads(raw.decode("utf-8") or "null")
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    self._error(400, f"request body is not UTF-8 "
                                     f"JSON: {exc}")
                    return
                try:
                    response = service.submit(document)
                except SpecError as exc:
                    self._error(400, str(exc))
                    return
                self._json(202, response)
            elif (len(parts) == 3 and parts[0] == "jobs"
                    and parts[2] == "cancel"):
                record = self._record_or_404(parts[1])
                if record is not None:
                    cancelled = service.cancel(parts[1])
                    self._json(200, {"id": parts[1],
                                     "cancelled": cancelled,
                                     "state": record.state})
            else:
                self._error(404, f"unknown endpoint {self.path!r}")

        def _stream(self, job_id: str) -> None:
            """Chunked JSON-lines event stream until the terminal event."""
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()

            def write_chunk(data: bytes) -> None:
                self.wfile.write(f"{len(data):X}\r\n".encode())
                self.wfile.write(data + b"\r\n")
                self.wfile.flush()

            seen = 0
            while True:
                events, terminal = orch.wait_events(job_id, seen,
                                                    timeout=10.0)
                for event in events:
                    line = json.dumps(event,
                                      separators=(", ", ": ")) + "\n"
                    write_chunk(line.encode())
                seen += len(events)
                if terminal and not events:
                    break
                if terminal and events:
                    # Drain whatever landed with the terminal flip, then
                    # re-check so the final event is always delivered.
                    continue
            write_chunk(b"")  # terminating zero-length chunk

    return ServiceHandler


def _since(query: str) -> int:
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == "since":
            try:
                return max(0, int(value))
            except ValueError:
                return 0
    return 0


def serve(*, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          store=ENV_STORE, workers: int = 2) -> HdfService:
    """Build and start a service (the ``repro serve`` entry point)."""
    return HdfService(host=host, port=port, store=store,
                      workers=workers).start()
