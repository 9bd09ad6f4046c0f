"""Service layer: facade equivalence, orchestrator dedupe, HTTP API.

The facade (:func:`repro.service.orchestrator.run_job`) must be
output-identical to driving the underlying pipelines directly — the CLI
and the HTTP service share it, so these are the golden tests pinning the
refactor.  The orchestrator tests pin the dedupe contract: identical
in-flight submissions execute once, repeats after completion replay from
the stage store.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.spec import FleetJob, FlowJob, ReschedJob, ScenarioSpec, SuiteJob
from repro.experiments.artifact_cache import StageCache
from repro.service.orchestrator import (
    Orchestrator,
    resolve_circuit,
    run_job,
)
from repro.service.server import MAX_BODY_BYTES, HdfService


# ----------------------------------------------------------------------
# Circuit resolution
# ----------------------------------------------------------------------
class TestResolveCircuit:
    def test_embedded_name(self):
        assert resolve_circuit("s27").name == "s27"

    def test_suite_name(self):
        assert resolve_circuit("s9234").name == "s9234"

    def test_bench_file(self, tmp_path, s27):
        from repro.netlist.bench import save_bench

        path = tmp_path / "mine.bench"
        save_bench(s27, path)
        assert resolve_circuit(str(path)).stats() == s27.stats()

    def test_unknown_spec_is_actionable(self):
        from repro.core.spec import SpecError

        with pytest.raises(SpecError, match="cannot resolve circuit"):
            resolve_circuit("never-a-circuit")


# ----------------------------------------------------------------------
# Facade golden equivalence (CLI == service == direct pipeline)
# ----------------------------------------------------------------------
class TestFacadeEquivalence:
    def test_flow_job_matches_direct_flow(self, s27):
        from repro.core import FlowConfig, HdfTestFlow

        outcome = run_job(FlowJob(circuit="s27"), store=None)
        direct = HdfTestFlow(s27, FlowConfig()).run()
        assert outcome.value.table1_row() == direct.table1_row()
        assert outcome.value.table2_row() == direct.table2_row()
        assert outcome.payload["table1"] == direct.table1_row()
        assert outcome.cache == "uncached"
        assert outcome.fingerprint == FlowJob(circuit="s27").fingerprint()

    def test_fleet_job_matches_direct_study(self, s27):
        from repro.experiments.fleet import run_fleet_study

        job = FleetJob(circuit="s27", devices=32,
                       scenario=ScenarioSpec(seed=2))
        outcome = run_job(job, store=None)
        direct = run_fleet_study(s27, spec=job.scenario, devices=32)
        assert outcome.value.summary()["metrics"] == \
            direct.summary()["metrics"]
        assert outcome.payload["scenario"] == job.scenario.fingerprint()

    def test_suite_job_matches_direct_suite(self):
        from repro.experiments.runner import SuiteRunConfig, run_suite

        job = SuiteJob(names=("s9234",), scale=0.25,
                       with_schedules=False)
        outcome = run_job(job, store=None)
        direct = run_suite(SuiteRunConfig(names=("s9234",), scale=0.25,
                                          with_schedules=False))
        assert outcome.value["s9234"].table1_row() == \
            direct["s9234"].table1_row()
        assert outcome.payload["results"]["s9234"]["faults"] == \
            direct["s9234"].classification.num_faults

    def test_resched_job_replay_is_deterministic(self):
        job = ReschedJob(circuit="s27", alerts=(((13, 2.0),),
                                                ((16, 1.0),)))
        a = run_job(job, store=None)
        b = run_job(job, store=None)
        assert a.payload["initial"] == b.payload["initial"]
        assert [e["covered"] for e in a.payload["events"]] == \
            [e["covered"] for e in b.payload["events"]]
        assert a.payload["summary"]["alerts"] == 2

    def test_store_round_trip_hits_every_stage(self, tmp_path):
        store = StageCache(tmp_path)
        first = run_job(FlowJob(circuit="s27"), store=store)
        second = run_job(FlowJob(circuit="s27"), store=store)
        assert first.cache == "miss"
        assert second.cache == "hit"
        assert second.payload["table1"] == first.payload["table1"]
        assert second.payload["table2"] == first.payload["table2"]

    def test_progress_events_cover_stages(self):
        events = []
        run_job(FlowJob(circuit="s27", with_schedules=False),
                store=None, progress=events.append)
        kinds = {e["event"] for e in events}
        assert "log" in kinds and "stage" in kinds
        stages = {e["stage"] for e in events if e["event"] == "stage"}
        assert {"sta", "atpg", "simulation"} <= stages


# ----------------------------------------------------------------------
# Orchestrator dedupe
# ----------------------------------------------------------------------
class _Loop:
    """A background asyncio loop the tests drive the orchestrator on."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def close(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5.0)


@pytest.fixture()
def loop():
    background = _Loop()
    yield background
    background.close()


def _wait_terminal(orch, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        record = orch.get(job_id)
        if record.terminal:
            return record
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish")


JOB = FlowJob(circuit="s27", with_schedules=False)


class TestOrchestrator:
    def test_identical_inflight_submissions_execute_once(self, loop):
        orch = Orchestrator(store=None, workers=2)
        # Submit both before starting the workers: the second MUST
        # attach to the first, not race it to the queue.
        first = loop.call(orch.submit(JOB))
        second = loop.call(orch.submit(JOB))
        assert second.dedup_of == first.id
        loop.call(orch.start())
        try:
            done_first = _wait_terminal(orch, first.id)
            done_second = _wait_terminal(orch, second.id)
            assert done_first.state == done_second.state == "done"
            assert done_first.cache == "uncached"   # store=None
            assert done_second.cache == "dedup"
            assert done_second.payload == done_first.payload
        finally:
            loop.call(orch.close())

    def test_resubmission_after_completion_replays_from_store(
            self, loop, tmp_path):
        orch = Orchestrator(store=StageCache(tmp_path), workers=1)
        loop.call(orch.start())
        try:
            first = loop.call(orch.submit(JOB))
            assert _wait_terminal(orch, first.id).cache == "miss"
            again = loop.call(orch.submit(JOB))
            assert again.dedup_of is None           # not in flight anymore
            done = _wait_terminal(orch, again.id)
            assert done.cache == "hit"
            # Stage timings differ between the cold and replay runs;
            # the result rows must not.
            assert done.payload["table1"] == \
                orch.get(first.id).payload["table1"]
        finally:
            loop.call(orch.close())

    def test_different_fingerprints_do_not_dedupe(self, loop):
        orch = Orchestrator(store=None, workers=1)
        a = loop.call(orch.submit(JOB))
        b = loop.call(orch.submit(FlowJob(circuit="c17",
                                          with_schedules=False)))
        assert a.dedup_of is None and b.dedup_of is None

    def test_cancel_queued_job_frees_the_slot(self, loop):
        orch = Orchestrator(store=None, workers=1)
        first = loop.call(orch.submit(JOB))
        assert loop.call(orch.cancel(first.id))
        assert orch.get(first.id).state == "cancelled"
        follow = loop.call(orch.submit(JOB))
        assert follow.dedup_of is None              # slot was freed
        assert not loop.call(orch.cancel(first.id))  # already terminal

    def test_cancelled_primary_promotes_its_followers(self, loop):
        # Regression: cancelling a queued primary used to strand its
        # dedup followers in "queued" forever (their /stream never ended).
        orch = Orchestrator(store=None, workers=1)
        first = loop.call(orch.submit(JOB))
        second = loop.call(orch.submit(JOB))
        third = loop.call(orch.submit(JOB))
        assert second.dedup_of == third.dedup_of == first.id
        assert loop.call(orch.cancel(first.id))
        assert orch.get(second.id).dedup_of is None   # new primary
        assert orch.get(third.id).dedup_of == second.id
        loop.call(orch.start())
        try:
            done = _wait_terminal(orch, second.id, timeout=30.0)
            follower = _wait_terminal(orch, third.id, timeout=30.0)
            assert done.state == follower.state == "done"
            assert done.cache == "uncached"
            assert follower.cache == "dedup"
            assert orch.get(first.id).state == "cancelled"
        finally:
            loop.call(orch.close())

    def test_execution_failure_is_reported_not_raised(self, loop):
        orch = Orchestrator(store=None, workers=1)
        loop.call(orch.start())
        try:
            record = loop.call(orch.submit(
                FlowJob(circuit="never-a-circuit")))
            done = _wait_terminal(orch, record.id)
            assert done.state == "failed"
            assert "cannot resolve circuit" in done.error
        finally:
            loop.call(orch.close())

    def test_event_log_orders_lifecycle(self, loop):
        orch = Orchestrator(store=None, workers=1)
        loop.call(orch.start())
        try:
            record = loop.call(orch.submit(JOB))
            _wait_terminal(orch, record.id)
            events, terminal = orch.events_since(record.id)
            assert terminal
            kinds = [e["event"] for e in events]
            assert kinds[0] == "queued"
            assert kinds[1] == "started"
            assert kinds[-1] == "done"
            assert "stage" in kinds
            assert [e["seq"] for e in events] == list(range(len(events)))
        finally:
            loop.call(orch.close())


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
def _get(url: str) -> dict:
    with urllib.request.urlopen(url) as resp:
        return json.loads(resp.read())


def _post(url: str, document) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = HdfService(host="127.0.0.1", port=0,
                     store=StageCache(tmp_path_factory.mktemp("svc")),
                     workers=1).start()
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()


def _wait_done(service, job_id, timeout=60.0) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = _get(f"{service.url}/jobs/{job_id}")
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish over HTTP")


class TestHttpApi:
    def test_healthz(self, service):
        assert _get(f"{service.url}/healthz")["ok"] is True

    def test_submit_status_result_and_cached_resubmit(self, service):
        document = {"kind": "flow", "circuit": "s27",
                    "with_schedules": False}
        submitted = _post(f"{service.url}/jobs", document)
        assert submitted["kind"] == "flow"
        status = _wait_done(service, submitted["id"])
        assert status["state"] == "done"
        result = _get(f"{service.url}/jobs/{submitted['id']}/result")
        assert result["result"]["circuit"] == "s27"
        assert "table1" in result["result"]

        again = _post(f"{service.url}/jobs", document)
        assert again["fingerprint"] == submitted["fingerprint"]
        final = _wait_done(service, again["id"])
        assert final["cache"] in ("hit", "dedup")

    def test_stream_delivers_lifecycle_events(self, service):
        submitted = _post(f"{service.url}/jobs",
                          {"kind": "flow", "circuit": "c17",
                           "with_schedules": False})
        with urllib.request.urlopen(
                f"{service.url}/jobs/{submitted['id']}/stream") as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in resp if line.strip()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] in ("done", "failed")
        assert all(e["job"] == submitted["id"] for e in events)

    def test_events_endpoint_paginates(self, service):
        submitted = _post(f"{service.url}/jobs",
                          {"kind": "flow", "circuit": "s27",
                           "with_schedules": False})
        _wait_done(service, submitted["id"])
        page = _get(f"{service.url}/jobs/{submitted['id']}/events")
        assert page["terminal"] is True
        rest = _get(f"{service.url}/jobs/{submitted['id']}/events"
                    f"?since={len(page['events'])}")
        assert rest["events"] == []

    def test_bad_document_is_400_with_message(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{service.url}/jobs", {"kind": "warp"})
        assert err.value.code == 400
        assert "unknown job kind" in json.loads(err.value.read())["error"]

    def test_non_finite_alert_shift_is_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{service.url}/jobs",
                  {"kind": "resched", "circuit": "s27",
                   "alerts": [[[3, float("nan")]]]})
        assert err.value.code == 400
        assert "not finite" in json.loads(err.value.read())["error"]

    def test_alert_on_unknown_gate_fails_the_job(self, service):
        submitted = _post(f"{service.url}/jobs",
                          {"kind": "resched", "circuit": "s27",
                           "alerts": [[[99999, 2.0]]]})
        status = _wait_done(service, submitted["id"])
        assert status["state"] == "failed"
        assert "gate 99999" in status["error"]

    def test_unknown_job_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{service.url}/jobs/job-9999")
        assert err.value.code == 404

    def test_jobs_listing_grows(self, service):
        before = len(_get(f"{service.url}/jobs")["jobs"])
        _post(f"{service.url}/jobs", {"kind": "flow", "circuit": "s27",
                                      "with_schedules": False})
        assert len(_get(f"{service.url}/jobs")["jobs"]) == before + 1


def test_finished_records_are_bounded(monkeypatch, tmp_path):
    """Beyond ``MAX_FINISHED_JOBS`` the records that finished first are
    evicted: their ids answer 404, the newest ones still serve."""
    from repro.service import orchestrator

    monkeypatch.setattr(orchestrator, "MAX_FINISHED_JOBS", 3)
    svc = HdfService(host="127.0.0.1", port=0, store=StageCache(tmp_path),
                     workers=1).start()
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    try:
        ids = []
        for _ in range(6):
            submitted = _post(f"{svc.url}/jobs",
                              {"kind": "flow", "circuit": "c17",
                               "with_schedules": False})
            assert _wait_done(svc, submitted["id"])["state"] == "done"
            ids.append(submitted["id"])
        for job_id in ids[:3]:
            for suffix in ("", "/result", "/events", "/stream"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(f"{svc.url}/jobs/{job_id}{suffix}")
                assert err.value.code == 404, (job_id, suffix)
        for job_id in ids[3:]:
            result = _get(f"{svc.url}/jobs/{job_id}/result")
            assert result["result"]["circuit"] == "c17"
            with urllib.request.urlopen(
                    f"{svc.url}/jobs/{job_id}/stream") as resp:
                events = [json.loads(line) for line in resp if line.strip()]
            assert events[-1]["event"] == "done"
        assert [j["id"] for j in _get(f"{svc.url}/jobs")["jobs"]] == ids[3:]
    finally:
        svc.shutdown()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


_VALID_BODY = b'{"kind": "flow", "circuit": "c17", "with_schedules": false}'
_NON_UTF8_BODY = b'{"kind": "\xff"}'


@pytest.mark.parametrize("headers, body, status", [
    ([], b"", 400),
    (["Content-Length: abc"], b"{}", 400),
    (["Content-Length: -1"], b"{}", 400),
    ([f"Content-Length: {len(_NON_UTF8_BODY)}"], _NON_UTF8_BODY, 400),
    ([f"Content-Length: {MAX_BODY_BYTES + 1}"], b"", 413),
    ([f"Content-Length: {len(_VALID_BODY)}"], _VALID_BODY, 202),
], ids=["missing-length", "non-integer-length", "negative-length",
        "non-utf8-body", "oversized-body", "valid"])
def test_post_jobs_answers_malformed_bodies(service, headers, body, status):
    host, port = service.address
    head = "\r\n".join(["POST /jobs HTTP/1.1", f"Host: {host}",
                         "Connection: close", *headers, "", ""])
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(head.encode() + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply[:80]
    assert _get(f"{service.url}/healthz")["ok"] is True
