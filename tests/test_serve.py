"""The queue front-end (``repro-serve`` + HTTP API) and the restart drills.

The fast half drives the CLI and the stdlib HTTP server against a queue
nobody drains (submission, dedup, admission, visibility of dead/deferred
jobs, the events cursor).  The slow half spawns real workers: a drain
round-trip, a poison job dead-lettering, and the acceptance drill —
SIGKILL the drain supervisor mid-run, restart against the same queue
database, and require every job to reach a terminal state exactly once
with the experiment snapshot byte-identical to a sequential clean run.
"""

import http.client
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import experiments
from repro.engine.registry import system_codes
from repro.service.api import make_server
from repro.service.breaker import BreakerBoard
from repro.service.config import QueueConfig, ServiceConfig
from repro.service.queue import DEAD, DONE, QUEUED, JobQueue
from repro.service.queue_supervisor import QueueSupervisor
from repro.service.serve import main as serve_main

GRAPH = "road-USA-W"

FAST = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0)


def snapshot_bytes() -> str:
    """The memo serialized the way ``save_results`` writes cells.json."""
    rows = [experiments.cell_to_row(v)
            for v in experiments.all_results().values()]
    rows.sort(key=lambda r: (r["system"], r["app"], r["graph"]))
    return json.dumps(rows, sort_keys=True, indent=1,
                      default=experiments._jsonify)


def ok_row(system="GB", app="bfs", graph=GRAPH):
    return {"system": system, "app": app, "graph": graph, "status": "ok",
            "seconds": 1.5, "mrss_gb": 0.25, "counters": {},
            "answer": None, "thread_sweep": {}, "attempts": 1}


# ----------------------------------------------------------------------
# CLI (no workers spawned)
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_submit_prints_job_and_dedups(self, tmp_path, capsys):
        q = str(tmp_path / "q.db")
        assert serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH,
                           "--tenant", "alice", "--idem-key", "k1"]) == 0
        job = json.loads(capsys.readouterr().out)
        assert job["state"] == "queued" and job["tenant"] == "alice"
        assert serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH,
                           "--idem-key", "k1"]) == 0
        assert json.loads(capsys.readouterr().out)["id"] == job["id"]

    def test_submit_rejects_bad_payload_with_suggestion(self, tmp_path,
                                                        capsys):
        rc = serve_main(["submit", "--queue", str(tmp_path / "q.db"),
                         "GB", "bsf", GRAPH])
        assert rc == 2
        assert "bfs" in capsys.readouterr().err  # did-you-mean

    def test_submit_rejects_malformed_fault_spec(self, tmp_path, capsys):
        q = str(tmp_path / "q.db")
        rc = serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH,
                         "--fault", "kernel:explode"])
        assert rc == 2
        assert "explode" in capsys.readouterr().err
        assert JobQueue(q).jobs() == []

    def test_status_counts_and_tenants(self, tmp_path, capsys):
        q = str(tmp_path / "q.db")
        serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH])
        capsys.readouterr()
        assert serve_main(["status", "--queue", q]) == 0
        out = capsys.readouterr().out
        assert "queued=1" in out and "tenant default" in out
        assert "dead letters:" not in out  # nothing dead yet

    def test_result_exit_codes(self, tmp_path, capsys):
        q = str(tmp_path / "q.db")
        serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH])
        capsys.readouterr()
        assert serve_main(["result", "--queue", q, "99"]) == 2
        assert serve_main(["result", "--queue", q, "1"]) == 1  # not run yet
        assert "state=queued" in capsys.readouterr().err

    def test_unknown_knob_fails_every_subcommand(self, tmp_path, capsys,
                                                 monkeypatch):
        q = str(tmp_path / "q.db")
        monkeypatch.setenv("REPRO_JOB_MAX_ATTEMTPS", "1")
        assert serve_main(["status", "--queue", q]) == 2
        assert "REPRO_JOB_MAX_ATTEMPTS" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_ALLOW_UNKNOWN_KNOBS", "1")
        assert serve_main(["status", "--queue", q]) == 0

    def test_drain_wants_positive_workers(self, tmp_path, capsys):
        rc = serve_main(["drain", "--queue", str(tmp_path / "q.db"),
                         "--workers", "0"])
        assert rc == 2

    def test_drain_rejects_malformed_kernel_threads(self, tmp_path, capsys,
                                                    monkeypatch):
        q = str(tmp_path / "q.db")
        serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH])
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "abc")
        assert serve_main(["drain", "--queue", q, "--workers", "2"]) == 2
        assert "REPRO_KERNEL_THREADS" in capsys.readouterr().err
        queue = JobQueue(q)
        assert queue.counts()["queued"] == 1  # nothing leased or run
        queue.close()

    def test_admission_denied_exit_code(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_TENANT_MAX_ACTIVE", "1")
        q = str(tmp_path / "q.db")
        assert serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH]) == 0
        assert serve_main(["submit", "--queue", q, "SS", "bfs", GRAPH]) == 3
        assert "admission denied" in capsys.readouterr().err


# ----------------------------------------------------------------------
# HTTP API (stdlib server on port 0, no workers)
# ----------------------------------------------------------------------
def _request(base, path, payload=None):
    """(status, body) for a GET, or a POST when ``payload`` is given."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def api(tmp_path):
    """A live API server over an empty queue; yields its base URL."""
    server = make_server(tmp_path / "q.db",
                         config=QueueConfig(tenant_max_active=2))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


class TestHTTPAPI:
    def test_health_and_systems(self, api):
        status, body = _request(api, "/health")
        assert status == 200 and body["ok"] and body["counts"]["queued"] == 0
        status, body = _request(api, "/systems")
        codes = {s["code"] for s in body["systems"]}
        assert status == 200 and set(system_codes()) <= codes
        # A job runs on the system it names; nothing stands in for it.
        assert not any("fallbacks" in s for s in body["systems"])

    def test_kept_alive_requests_skip_delayed_ack(self, api):
        # Headers and body leave as two segments; without TCP_NODELAY a
        # kept-alive client waits out a delayed ACK (~40 ms) per request.
        host, port = api.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        requests = [("GET", "/health", None), ("GET", "/systems", None),
                    ("POST", "/jobs", json.dumps({
                        "system": "GB", "app": "bfs", "graph": GRAPH,
                        "idem_key": "keep-alive"}))]
        elapsed = []
        try:
            for i in range(20):
                method, path, body = requests[i % len(requests)]
                start = time.perf_counter()
                conn.request(method, path, body=body)
                response = conn.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - start)
                assert response.status in (200, 201)
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.020, elapsed

    def test_submit_created_then_dedup(self, api):
        payload = {"system": "GB", "app": "bfs", "graph": GRAPH,
                   "idem_key": "cell-1"}
        status, created = _request(api, "/jobs", payload)
        assert status == 201 and created["state"] == "queued"
        status, deduped = _request(api, "/jobs", payload)
        assert status == 200 and deduped["id"] == created["id"]

    def test_submit_error_mapping(self, api):
        status, body = _request(api, "/jobs", {"system": "GB"})
        assert status == 400 and "missing required" in body["error"]
        status, body = _request(api, "/jobs", {"system": "GBX",
                                               "app": "bfs",
                                               "graph": GRAPH})
        assert status == 400 and "GB" in body["error"]  # did-you-mean

    def test_malformed_fault_spec_maps_to_400(self, api):
        status, body = _request(api, "/jobs", {
            "system": "GB", "app": "bfs", "graph": GRAPH,
            "params": {"faults": "kernel:explode"}})
        assert status == 400 and "params.faults" in body["error"]
        status, body = _request(api, "/health")
        assert body["counts"]["queued"] == 0

    @pytest.mark.parametrize("field,value,words", [
        ("params", "abc", "params must be an object"),
        ("params", [1, 2], "params must be an object"),
        ("priority", "high", "priority must be an integer"),
        ("priority", 1.5, "priority must be an integer"),
        ("max_attempts", "x", "max_attempts must be an integer"),
        ("max_attempts", 0, "max_attempts must be >= 1"),
    ])
    def test_malformed_field_maps_to_400(self, api, field, value, words):
        # Each used to escape as ValueError/TypeError (the client saw the
        # connection drop) or, for max_attempts, to be stored as text that
        # the drain's retry check later compared against an int.
        status, body = _request(api, "/jobs", {
            "system": "GB", "app": "bfs", "graph": GRAPH, field: value})
        assert status == 400 and words in body["error"]
        status, body = _request(api, "/health")
        assert status == 200 and body["counts"]["queued"] == 0

    def test_well_formed_fields_are_stored_as_given(self, api):
        status, job = _request(api, "/jobs", {
            "system": "GB", "app": "bfs", "graph": GRAPH,
            "params": {}, "priority": 3, "max_attempts": 2})
        assert status == 201
        assert job["priority"] == 3 and job["max_attempts"] == 2

    def test_admission_cap_maps_to_429(self, api):
        for system in ("GB", "SS"):
            status, _ = _request(api, "/jobs", {
                "system": system, "app": "bfs", "graph": GRAPH,
                "tenant": "alice"})
            assert status == 201
        status, body = _request(api, "/jobs", {
            "system": "LS", "app": "bfs", "graph": GRAPH,
            "tenant": "alice"})
        assert status == 429 and "alice" in body["error"]

    def test_job_views_and_404s(self, api):
        _request(api, "/jobs", {"system": "GB", "app": "bfs",
                                "graph": GRAPH})
        status, job = _request(api, "/jobs/1")
        assert status == 200 and job["has_result"] is False
        assert _request(api, "/jobs/999")[0] == 404
        assert _request(api, "/jobs/not-a-number")[0] == 404
        assert _request(api, "/nope")[0] == 404
        status, body = _request(api, "/jobs/1/result")
        assert status == 409 and body["state"] == "queued"

    def test_events_cursor(self, api):
        _request(api, "/jobs", {"system": "GB", "app": "bfs",
                                "graph": GRAPH})
        status, body = _request(api, "/jobs/1/events")
        assert status == 200
        assert [e["kind"] for e in body["events"]] == ["submitted"]
        cursor = body["next_since"]
        status, body = _request(api, f"/jobs/1/events?since={cursor}")
        assert status == 200 and body["events"] == []
        assert body["next_since"] == cursor


# ----------------------------------------------------------------------
# Breaker admission over the queue (supervisor internals, no workers)
# ----------------------------------------------------------------------
class TestQueueAdmission:
    def _supervisor(self, queue, open_codes, cooldown):
        """A supervisor whose ``open_codes`` breakers each opened on one
        failure and half-open after ``cooldown`` decisions."""
        supervisor = QueueSupervisor(queue, workers=1, config=FAST,
                                     owner="test")
        supervisor._breakers = BreakerBoard(system_codes(), 1, cooldown)
        for code in open_codes:
            supervisor._breakers.record(code, ok=False)
        return supervisor

    def _clocked_queue(self, tmp_path):
        """A queue on a hand-advanced clock (deferrals pass on demand)."""
        now = [1000.0]
        queue = JobQueue(tmp_path / "q.db", QueueConfig(defer_seconds=1.0),
                         clock=lambda: now[0])
        return queue, now

    def test_open_breaker_with_no_fallback_defers(self, tmp_path, capsys):
        path = tmp_path / "q.db"
        queue = JobQueue(path, QueueConfig(defer_seconds=30.0))
        job = queue.submit("GB", "bfs", GRAPH)
        supervisor = self._supervisor(queue, system_codes(), cooldown=99)
        assert supervisor._next_assignment(0) is None
        assert supervisor.stats["deferred"] == 1
        deferred = queue.get(job.id)
        assert deferred.state == QUEUED and deferred.attempts == 0
        assert "circuit breaker open for GB" in deferred.note
        assert queue.counts()["deferred"] == 1
        assert [e["kind"] for e in queue.events(job.id)] \
            == ["submitted", "deferred"]
        # ... and the deferral is visible in `repro-serve status`.
        assert serve_main(["status", "--queue", str(path)]) == 0
        out = capsys.readouterr().out
        assert "deferred (backoff/breaker window):" in out
        assert "circuit breaker open for GB" in out
        queue.close()

    def test_open_breaker_reroutes_and_rekeys_degraded(self, tmp_path):
        # An open GB breaker defers the GB job until the cooldown earns
        # the half-open probe, which runs on GB itself.
        queue, now = self._clocked_queue(tmp_path)
        job = queue.submit("GB", "bfs", GRAPH)
        supervisor = self._supervisor(queue, ("GB",), cooldown=3)
        payloads = []
        for _ in range(3):
            payloads.append(supervisor._next_assignment(0))
            now[0] += 1.5
        assert payloads[:2] == [None, None]
        assert payloads[2]["id"] == job.id
        assert payloads[2]["system"] == "GB"
        assert supervisor.stats["deferred"] == 2
        supervisor._task_done(job.id, ok_row(system="GB"))
        done = queue.get(job.id)
        assert done.state == DONE and done.result == ok_row(system="GB")
        assert supervisor._breakers.states()["GB"]["state"] == "closed"
        kinds = [e["kind"] for e in queue.events(job.id)]
        assert kinds == ["submitted", "deferred", "deferred", "leased",
                         "done"]
        queue.close()

    def test_lost_lease_hands_the_probe_back(self, tmp_path, monkeypatch):
        # The half-open probe is admitted, then the lease is lost to a
        # race: the probe must not be spent, or GB would defer forever.
        queue, _now = self._clocked_queue(tmp_path)
        job = queue.submit("GB", "bfs", GRAPH)
        supervisor = self._supervisor(queue, ("GB",), cooldown=1)
        real_lease = queue.lease
        calls = []

        def lease(job_id, owner):
            calls.append(job_id)
            return None if len(calls) == 1 else real_lease(job_id, owner)

        monkeypatch.setattr(queue, "lease", lease)
        payload = supervisor._next_assignment(0)
        assert len(calls) == 2
        assert payload["id"] == job.id and payload["system"] == "GB"
        queue.close()

    def test_memory_deferral_does_not_spend_the_probe(self, tmp_path,
                                                      monkeypatch):
        # The memory check runs before the breaker, so a job deferred for
        # memory never holds the half-open probe.
        queue, now = self._clocked_queue(tmp_path)
        job = queue.submit("GB", "bfs", GRAPH)
        supervisor = self._supervisor(queue, ("GB",), cooldown=1)
        verdicts = iter([("no", None)])
        monkeypatch.setattr(supervisor, "_fit",
                            lambda job: next(verdicts, ("fits", None)))
        assert supervisor._next_assignment(0) is None
        assert supervisor.stats["mem_deferred"] == 1
        now[0] += 1.5
        payload = supervisor._next_assignment(0)
        assert payload["id"] == job.id and payload["system"] == "GB"
        queue.close()


# ----------------------------------------------------------------------
# Real workers: drain round-trip, dead letters, kill-and-restart
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDrainCLI:
    def test_submit_drain_result_roundtrip(self, tmp_path, capsys,
                                           monkeypatch, isolated_grid):
        monkeypatch.setenv("REPRO_SERVICE_HEARTBEAT", "0.05")
        q = str(tmp_path / "q.db")
        assert serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH]) == 0
        job = json.loads(capsys.readouterr().out)
        assert serve_main(["drain", "--queue", q, "--workers", "1"]) == 0
        counts = json.loads(capsys.readouterr().out.strip())
        assert counts["done"] == 1 and counts["dead"] == 0
        assert serve_main(["result", "--queue", q, str(job["id"])]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["system"] == "GB" and row["status"] == "ok"
        assert row["seconds"] > 0


@pytest.mark.slow
class TestDeadLetterDrill:
    def test_poison_job_dead_letters_but_stays_visible(
            self, tmp_path, capsys, monkeypatch, isolated_grid):
        # This cell kills its worker on *every* attempt; the other job
        # must still complete and the poison job must end up a visible
        # dead letter, not a silent drop or a stuck drain.
        monkeypatch.setenv("REPRO_FAULTS", f"cell:kill@GB:bfs:{GRAPH}")
        path = tmp_path / "q.db"
        queue = JobQueue(path, QueueConfig(
            max_attempts=2, backoff_base=0.05, backoff_cap=0.1,
            lease_seconds=30.0))
        poison = queue.submit("GB", "bfs", GRAPH, max_attempts=2)
        healthy = queue.submit("SS", "bfs", GRAPH)
        supervisor = QueueSupervisor(queue, workers=1, config=FAST,
                                     owner="drill")
        counts = supervisor.drain()
        assert counts["dead"] == 1 and counts["done"] == 1
        assert supervisor.stats["dead"] == 1
        dead = queue.get(poison.id)
        assert dead.state == DEAD and dead.attempts == 2
        assert queue.events(poison.id)[-1]["kind"] == "dead"
        assert queue.get(healthy.id).state == DONE
        queue.close()
        assert serve_main(["status", "--queue", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dead letters:" in out
        assert f"#{poison.id} GB bfs {GRAPH}" in out


#: Stand-alone drain driver for the SIGKILL drill.  A real file with a
#: __main__ guard because the worker pool uses the spawn start method
#: (the child re-imports its __main__ from its path).
DRAIN_CHILD = """\
import sys

from repro.service.config import QueueConfig, ServiceConfig
from repro.service.queue import JobQueue
from repro.service.queue_supervisor import QueueSupervisor

if __name__ == "__main__":
    queue = JobQueue(sys.argv[1], QueueConfig(lease_seconds=5.0))
    config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0)
    QueueSupervisor(queue, workers=2, config=config,
                    owner="child").drain()
"""


@pytest.mark.slow
class TestKillAndRestartDrill:
    def test_sigkill_supervisor_restart_commits_exactly_once(
            self, tmp_path, isolated_grid):
        """The acceptance drill for the durable queue.

        SIGKILL a drain supervisor (and thereby orphan its leases) while
        the grid is in flight, restart against the same queue database,
        and require: every job terminal exactly once, nothing lost,
        nothing duplicated, and the mirrored experiment snapshot
        byte-identical to an uninterrupted sequential run.
        """
        apps = ("bfs", "cc")
        for app in apps:
            for system in ("SS", "GB", "LS"):
                experiments.run_cell(system, app, GRAPH)
        baseline = snapshot_bytes()
        experiments.clear_cache()

        path = tmp_path / "q.db"
        queue = JobQueue(path, QueueConfig(lease_seconds=5.0))
        job_ids = [
            queue.submit(system, app, GRAPH, tenant="drill",
                         idem_key=f"drill:{system}:{app}").id
            for app in apps for system in ("SS", "GB", "LS")]

        script = tmp_path / "drain_child.py"
        script.write_text(DRAIN_CHILD)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, str(script), str(path)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                counts = queue.counts()
                if counts["done"] + counts["err"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("child drain made no progress before kill")
        finally:
            child.kill()
            child.wait()

        # Takeover: a fresh supervisor on the same database reclaims the
        # dead one's leases and finishes the grid, mirroring results.
        supervisor = QueueSupervisor(
            JobQueue(path, QueueConfig(lease_seconds=5.0)), workers=2,
            config=FAST, mirror_jobs=job_ids, owner="restart")
        counts = supervisor.drain()
        assert counts["queued"] == 0 and counts["leased"] == 0
        assert counts["dead"] == 0 and counts["err"] == 0
        assert counts["done"] == len(job_ids)
        for job_id in job_ids:
            job = queue.get(job_id)
            assert job.state == DONE and job.result is not None
            kinds = [e["kind"] for e in queue.events(job_id)]
            # Exactly one terminal commit ever, across both supervisors.
            assert kinds.count("done") == 1 and kinds.count("dead") == 0
        assert snapshot_bytes() == baseline
        queue.close()
