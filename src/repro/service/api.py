"""Stdlib HTTP JSON API over the durable job queue.

A deliberately thin front-end: ``http.server.ThreadingHTTPServer`` plus
hand-rolled routing, no third-party dependencies, every response JSON.
Each request opens its own :class:`~repro.service.queue.JobQueue`
connection (SQLite connections are not shareable across the server's
request threads; WAL mode keeps concurrent readers and the drain
supervisor's writer out of each other's way).  The server itself holds
one more connection, and reuses idle handler threads (see
:class:`_Server`).

Routes::

    GET  /health                   liveness + queue state counts
    GET  /systems                  engine-registry catalog (valid targets)
    GET  /jobs?tenant=&state=      job listing (dead letters included)
    GET  /jobs/<id>                one job's public view
    GET  /jobs/<id>/result         committed result row (409 until done)
    GET  /jobs/<id>/events?since=N progress stream (long-poll cursor)
    POST /jobs                     submit {system, app, graph, params?,
                                   tenant?, priority?, idem_key?,
                                   deadline_ms?}

Error mapping: a malformed request is **400** (:class:`repro.errors.
InvalidValue` — did-you-mean text included verbatim), tenant admission
rejection is **429** (:class:`repro.errors.AdmissionDenied`), unknown
paths and ids are **404**.  ``POST /jobs`` answers **200** when the
idempotency key matched an existing job and **201** when it created one —
clients can tell a dedup from a fresh accept.

Load shedding: when the ``REPRO_QUEUE_HIGH_WATER`` depth watermark is
configured and the queue's open jobs reach it, ``POST /jobs`` answers
**503** with a ``Retry-After`` header instead of accepting work it cannot
serve in time — shed at the door, not after the deadline has already
burned in the queue.  ``GET /health`` reports the same decision as
``shedding`` so clients can back off before submitting.

Progress streaming is poll-based rather than chunked: ``/events?since=N``
returns every event after sequence ``N`` (heartbeats the drain supervisor
records from worker liveness, lease/requeue transitions, and the final
OpEvent-derived counter summary), and the client advances its cursor.
With the supervisor's heartbeat cadence this gives live progress through
plain ``curl`` loops without holding server threads open.
"""

from __future__ import annotations

import json
import queue as _queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro import errors
from repro.service import governor
from repro.service.config import QueueConfig
from repro.service.queue import JobQueue


class _Handler(BaseHTTPRequestHandler):
    """One request = one queue connection = one JSON response."""

    #: Bound by :func:`make_server` on a per-server subclass.
    queue_path: Optional[str] = None
    queue_config: Optional[QueueConfig] = None
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: ``_reply`` writes headers and body as two segments,
    #: which a kept-alive client would otherwise wait out as a delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass  # tests and drills drive this server; keep stderr clean

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _reply(self, code: int, payload, headers=None) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _shed(self, queue: JobQueue):
        """The admission-control decision for this request (None = admit).

        With shedding off (no high-water mark) this never touches SQLite.
        """
        high_water = queue.config.high_water
        if not high_water:
            return None
        return governor.shed_decision(queue.counts(), high_water)

    def _with_queue(self, fn) -> None:
        queue = JobQueue(self.queue_path, config=self.queue_config)
        try:
            fn(queue)
        except errors.AdmissionDenied as exc:
            self._reply(429, {"error": str(exc)})
        except errors.InvalidValue as exc:
            self._reply(400, {"error": str(exc)})
        finally:
            queue.close()

    def _job_or_404(self, queue: JobQueue, raw_id: str):
        try:
            job_id = int(raw_id)
        except ValueError:
            self._reply(404, {"error": f"not a job id: {raw_id!r}"})
            return None
        job = queue.get(job_id)
        if job is None:
            self._reply(404, {"error": f"no such job: {job_id}"})
        return job

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self):
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]

        if parts == ["health"]:
            def _health(q):
                shed = self._shed(q)
                self._reply(200, {"ok": True, "queue": q.path,
                                  "counts": q.counts(), "shedding": shed})
            return self._with_queue(_health)
        if parts == ["systems"]:
            from repro.engine.registry import catalog

            return self._reply(200, {"systems": list(catalog())})
        if parts and parts[0] == "jobs":
            if len(parts) == 1:
                def _list(q):
                    jobs = q.jobs(
                        tenant=query.get("tenant", [None])[0],
                        state=query.get("state", [None])[0])
                    self._reply(200, {"jobs": [j.to_json() for j in jobs],
                                      "counts": q.counts()})
                return self._with_queue(_list)
            if len(parts) == 2:
                def _get(q):
                    job = self._job_or_404(q, parts[1])
                    if job is not None:
                        self._reply(200, job.to_json())
                return self._with_queue(_get)
            if len(parts) == 3 and parts[2] == "result":
                def _result(q):
                    job = self._job_or_404(q, parts[1])
                    if job is None:
                        return
                    if job.result is None:
                        self._reply(409, {
                            "error": f"job {job.id} has no result yet",
                            "state": job.state, "note": job.note})
                        return
                    self._reply(200, {"job": job.to_json(),
                                      "result": job.result})
                return self._with_queue(_result)
            if len(parts) == 3 and parts[2] == "events":
                def _events(q):
                    job = self._job_or_404(q, parts[1])
                    if job is None:
                        return
                    try:
                        since = int(query.get("since", ["0"])[0])
                    except ValueError:
                        self._reply(400, {"error": "since wants an integer"})
                        return
                    events = q.events(job.id, since=since)
                    self._reply(200, {
                        "job": job.id, "state": job.state, "events": events,
                        "next_since": events[-1]["seq"] if events else since})
                return self._with_queue(_events)
        self._reply(404, {"error": f"no such route: {url.path}"})

    def do_POST(self):
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts != ["jobs"]:
            return self._reply(404, {"error": f"no such route: {url.path}"})
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError):
            return self._reply(400, {"error": "body must be a JSON object"})
        if not isinstance(body, dict):
            return self._reply(400, {"error": "body must be a JSON object"})
        missing = [k for k in ("system", "app", "graph") if k not in body]
        if missing:
            return self._reply(400, {
                "error": f"missing required field(s): {', '.join(missing)}"})

        def _submit(q):
            existing = (q.find(body["idem_key"])
                        if body.get("idem_key") is not None else None)
            if existing is None:
                # Idempotent resubmits always answer (the job is already
                # in); only *new* work is shed at the watermark.
                shed = self._shed(q)
                if shed is not None:
                    self._reply(503, {"error": "queue over high water; "
                                               "retry later", "shed": shed},
                                headers={"Retry-After": shed["retry_after"]})
                    return
            job = q.submit(
                body["system"], body["app"], body["graph"],
                params=body.get("params"),
                tenant=body.get("tenant", "default"),
                priority=body.get("priority", 0),
                idem_key=body.get("idem_key"),
                max_attempts=body.get("max_attempts"),
                deadline_ms=body.get("deadline_ms"))
            self._reply(200 if existing is not None else 201, job.to_json())
        return self._with_queue(_submit)


class _Server(ThreadingHTTPServer):
    """A thread per connection, as ``ThreadingHTTPServer`` gives, but a
    finished thread parks and takes the next connection; a new one starts
    only when none is parked.  Parked threads wait until
    :meth:`server_close`, so there are as many as the most connections
    ever open at once.

    A freshly started thread waits behind whatever holds the CPU (a
    drain's workers, say) before it serves anything, while a parked one is
    woken: a ``GET /jobs/<id>`` beside a 2-worker drain on a 2-core host
    took 0.7 ms or 1.2-5 ms, depending on that wait, on a new thread, and
    0.7 ms on a parked one.

    The server also keeps one queue connection open until
    :meth:`server_close`; opening it first makes a path that is not a
    queue fail before the port is bound.  Were a request's own connection the last one,
    its close would checkpoint and delete the WAL after the reply had
    gone, and the client's next request would find the file locked and
    sleep out SQLite's 1 ms busy back-off (~40 % of back-to-back POSTs).
    """

    def __init__(self, address, handler, queue_path: str,
                 config: Optional[QueueConfig]):
        self._keeper = JobQueue(queue_path, config=config)
        self._pending: _queue.SimpleQueue = _queue.SimpleQueue()
        self._lock = threading.Lock()
        self._parked = self._started = 0
        try:
            super().__init__(address, handler)
        except BaseException:
            self._keeper.close()
            raise

    def process_request(self, request, client_address):
        with self._lock:
            start = self._parked == 0
            if start:
                self._started += 1
            else:
                self._parked -= 1  # claimed: no other request counts it
        self._pending.put((request, client_address))
        if start:
            threading.Thread(target=self._serve, daemon=True,
                             name="repro-api").start()

    def _serve(self):
        while (item := self._pending.get()) is not None:
            self.process_request_thread(*item)
            with self._lock:
                self._parked += 1

    def server_close(self):
        super().server_close()
        with self._lock:
            started, self._started = self._started, 0
        for _ in range(started):
            self._pending.put(None)
        self._keeper.close()


def make_server(queue_path, host: str = "127.0.0.1", port: int = 0,
                config: Optional[QueueConfig] = None) -> ThreadingHTTPServer:
    """Build (but do not start) the API server bound to one queue DB.

    ``port=0`` picks a free port (read it back from
    ``server.server_address``); call ``serve_forever()`` to run, from the
    CLI (``repro-serve api``) or a test thread.
    """
    handler = type("BoundHandler", (_Handler,), {
        "queue_path": str(queue_path), "queue_config": config})
    return _Server((host, int(port)), handler, str(queue_path), config)
