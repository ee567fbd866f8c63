"""``service-http``: tiny jobs through ``repro-serve api`` + ``drain``.

Closed loop, one client: N jobs (a seed-shuffled mix of 21 cells that each
take < 50 ms in-process) are POSTed one after another; then ``repro-serve
drain --workers 2`` starts, and while it drains one reader issues a
``GET /jobs/<id>`` and an idempotent re-POST every 20 ms — reads beside
writes on the same SQLite queue.  Cells this small make queue, lease, IPC,
commit and instantiate a large part of every job, so ``repro.service``
does most of the work here and almost none on the other workloads; the
concurrent reader is there so a drain-side gain that costs API readers
shows up as ``read_*`` getting worse.

Each request opens its own connection, as ``curl`` does.  (On a kept-alive
connection this server answers in ~44 ms instead of ~4 ms: it writes
headers and body separately and the second write waits for a delayed ACK.)
"""

from __future__ import annotations

import http.client
import json
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

from perfbench import cells, harness

JOB_CELLS = (cells.grid(cells.SYSTEMS, ("bfs", "cc", "pr", "sssp"),
                        ["rmat22"])
             + cells.grid(cells.SYSTEMS, ("cc", "pr", "tc"),
                          ["road-USA-W"]))

#: Jobs per second of ``--seconds``: submit (~4 ms) plus drain (~7.5 ms)
#: per job fill the measuring time on the 2-core reference host.  The job
#: count depends on the argument only, never on how fast the run goes.
JOBS_PER_SECOND = 75
SMOKE_JOBS = 100
WORKERS = 2
READER_PAUSE_S = 0.020
DRAIN_TIMEOUT_S = 150.0


class Client:
    """One-connection-per-request JSON client for the API."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def request(self, method: str, path: str, body=None):
        """Returns ``(status, payload, seconds)``."""
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type":
                                           "application/json"}
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        return response.status, json.loads(raw), time.perf_counter() - t0


def _start_api(ctx, queue_path):
    """Spawn ``repro-serve api`` on a free port; returns (proc, client)."""
    err_path = ctx.tmp / f"{queue_path.stem}-api.err"
    with open(err_path, "w") as err:
        proc = ctx.children.popen(
            [sys.executable, "-m", "repro.service.serve", "api",
             "--queue", str(queue_path), "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=err)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        match = re.search(r"API on http://([\d.]+):(\d+)",
                          err_path.read_text())
        if match:
            return proc, Client(match.group(1), int(match.group(2)))
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    raise RuntimeError("repro-serve api did not come up: "
                       + err_path.read_text()[-2000:])


def _job_body(index: int, cell: cells.Cell) -> dict:
    return {"system": cell.system, "app": cell.app, "graph": cell.graph,
            "idem_key": f"job-{index}"}


def run(ctx: harness.Context) -> harness.Outcome:
    from repro.graphs import datasets

    n_jobs = SMOKE_JOBS if ctx.smoke else int(JOBS_PER_SECOND * ctx.seconds)
    jobs = [JOB_CELLS[i % len(JOB_CELLS)] for i in range(n_jobs)]
    random.Random(ctx.seed).shuffle(jobs)
    by_name = {g: datasets.get_dataset(g)
               for g in sorted({cell.graph for cell in JOB_CELLS})}
    state: dict = {}

    def set_up():
        if "api" in state:
            ctx.children.kill(state["api"])
        ctx.use_fresh_store()
        datasets.clear_cache()
        with ctx.tracer.span("publish_and_load"):
            for dataset in by_name.values():
                dataset.build()
                dataset.build_symmetric()
        state["queue"] = ctx.tmp / f"queue-{ctx.store.name}.db"
        with ctx.tracer.span("start_api"):
            state["api"], state["client"] = _start_api(ctx, state["queue"])

    setup_samples = ctx.repeat_set_up(set_up)
    client: Client = state["client"]

    ids, posts = _submit(client, jobs)
    drain = _drain_beside_reader(ctx, client, state["queue"], ids, jobs)
    fetched = _read_back(client, ids)
    health_s: List[float] = []
    for _ in range(5 if ctx.smoke else 40):
        _status, health, seconds = client.request("GET", "/health")
        health_s.append(seconds)
    ctx.children.kill(state["api"])  # reaped, so its RSS counts below

    failures, stamps = _check(jobs, ids, fetched,
                              (drain["counts"], health["counts"]))
    done_at = [s["done"] for s in stamps if "done" in s]
    submit_s = [seconds for _started, seconds in posts]
    reads = drain["reads"]
    thin = ctx.smoke  # a smoke run has too few reads for a real p90
    end_to_end = {
        "setup_s": ctx.setup_seconds(setup_samples),
        # Drain start to last commit, on the queue's own event clock.
        "pass_s": (max(done_at) if done_at else drain["ended"])
        - drain["started"],
        "submit_p50_ms": harness.percentile(submit_s, 50) * 1e3,
        "submit_p90_ms": harness.percentile(submit_s, 90, thin) * 1e3,
        "read_p50_ms": harness.percentile(reads, 50) * 1e3,
        "read_p90_ms": harness.percentile(reads, 90, thin) * 1e3,
        "peak_rss_mb": harness.peak_rss_mb(children=True),
    }
    outcome = harness.Outcome(
        end_to_end=end_to_end, attempted=n_jobs, failures=failures,
        samples={"setup_s": setup_samples, "n_submit": len(submit_s),
                 "n_read": len(reads),
                 "n_resubmit": len(drain["resubmits"]),
                 "drain_exit_s": drain["ended"] - drain["started"]})

    if ctx.trace:
        _job_spans(ctx, ids, posts, fetched, stamps, drain["started"],
                   drain["ended"])
        outcome.per_layer, outcome.layers_self_s = _per_layer(
            ctx, jobs, by_name, stamps, drain["started"],
            end_to_end["pass_s"])
        outcome.per_layer.update({
            "api.submit_p99_ms":
                harness.percentile(submit_s, 99, allow_thin=True) * 1e3,
            "api.read_p99_ms":
                harness.percentile(reads, 99, allow_thin=True) * 1e3,
            "api.resubmit_p50_ms":
                statistics.median(drain["resubmits"]) * 1e3,
            "api.health_p50_ms": statistics.median(health_s) * 1e3,
        })
    return outcome


def _submit(client: Client, jobs):
    """N sequential POSTs; returns job ids and (wall start, seconds)."""
    ids: List[int] = []
    posts: List[tuple] = []
    for index, cell in enumerate(jobs):
        started = time.time()
        status, payload, seconds = client.request(
            "POST", "/jobs", _job_body(index, cell))
        if status != 201:
            raise RuntimeError(f"POST /jobs answered {status}: {payload}")
        ids.append(payload["id"])
        posts.append((started, seconds))
    return ids, posts


def _drain_beside_reader(ctx, client: Client, queue_path, ids, jobs) -> dict:
    """Run ``repro-serve drain`` to completion with one reader beside it."""
    stop = threading.Event()
    reads: List[float] = []
    resubmits: List[float] = []
    reader_errors: List[BaseException] = []

    def reader():
        pick = random.Random(ctx.seed + 1)
        try:
            while not stop.is_set():
                k = pick.randrange(len(ids))
                status, _payload, seconds = client.request(
                    "GET", f"/jobs/{ids[k]}")
                if status != 200:
                    raise RuntimeError(f"GET /jobs/{ids[k]}: {status}")
                reads.append(seconds)
                status, payload, seconds = client.request(
                    "POST", "/jobs", _job_body(k, jobs[k]))
                if status != 200 or payload["id"] != ids[k]:
                    raise RuntimeError(
                        f"idempotent re-POST of job {ids[k]} answered "
                        f"{status} {payload}")
                resubmits.append(seconds)
                stop.wait(READER_PAUSE_S)
        except Exception as exc:  # surfaced after join, below
            reader_errors.append(exc)

    thread = threading.Thread(target=reader, name="perfbench-reader")
    drain_out = ctx.tmp / "drain.out"
    started = time.time()
    with open(drain_out, "w") as out, \
            open(ctx.tmp / "drain.err", "w") as err:
        drain = ctx.children.popen(
            [sys.executable, "-m", "repro.service.serve", "drain",
             "--queue", str(queue_path), "--workers", str(WORKERS)],
            stdout=out, stderr=err)
    thread.start()
    try:
        drain.wait(timeout=DRAIN_TIMEOUT_S)
    finally:
        stop.set()
        thread.join(timeout=60)
    ended = time.time()
    if thread.is_alive():
        raise RuntimeError("reader thread did not stop")
    if reader_errors:
        raise reader_errors[0]
    if drain.returncode != 0:
        raise RuntimeError(
            f"repro-serve drain exited {drain.returncode}: "
            + (ctx.tmp / "drain.err").read_text()[-2000:])
    return {"started": started, "ended": ended, "reads": reads,
            "resubmits": resubmits,
            "counts": json.loads(drain_out.read_text())}


def _read_back(client: Client, ids):
    """Every job's result and event list, over two connections."""
    def fetch(job_id: int):
        started = time.time()
        status, result, _ = client.request("GET", f"/jobs/{job_id}/result")
        ended = time.time()
        _status, events, _ = client.request("GET", f"/jobs/{job_id}/events")
        return status, result, events, started, ended

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(fetch, ids))


def _check(jobs, ids, fetched, queue_counts):
    """Failure lines, and each job's ``{event kind: timestamp}``."""
    expected = cells.load_expected()
    failures: List[str] = []
    stamps: List[Dict[str, float]] = []
    for cell, job_id, (status, result, events, _s, _e) in zip(jobs, ids,
                                                              fetched):
        kinds = [e["kind"] for e in events.get("events", [])]
        stamps.append({e["kind"]: e["ts"] for e in events.get("events", [])})
        row = {key: v for key, v in (result.get("result") or {}).items()
               if key != "thread_sweep"}
        bad = cells.mismatched_fields(row or None, expected.get(cell))
        if status != 200 or events.get("state") != "done":
            failures.append(f"job {job_id} {cell}: result {status}, "
                            f"state {events.get('state')}")
        elif kinds.count("done") != 1:
            failures.append(f"job {job_id}: {kinds.count('done')} done "
                            "events, expected exactly one")
        elif bad:
            failures.append(f"job {job_id} {cell}: differs from pinned "
                            f"row on {bad}")
    for counts in queue_counts:
        if counts["done"] != len(jobs) or counts["dead"] != 0:
            failures.append(f"queue counts {counts}, expected done="
                            f"{len(jobs)} dead=0")
    return failures, stamps


def _job_spans(ctx, ids, posts, fetched, stamps, drain_started,
               drain_ended) -> None:
    """job -> {post, queue_wait, service, get_result}; drain -> first_commit.

    ``queue_wait`` starts when the job could first have been leased: at
    its submission or at drain start, whichever is later.
    """
    tracer = ctx.tracer
    for k, job_id in enumerate(ids):
        trace = f"job-{job_id}"
        posted, post_s = posts[k]
        _status, _result, _events, fetch_start, fetch_end = fetched[k]
        job = tracer.add("job", posted, fetch_end, trace=trace)
        tracer.add("post", posted, posted + post_s, parent=job, trace=trace)
        stamp = stamps[k]
        if "leased" in stamp and "done" in stamp:
            ready = max(stamp.get("submitted", posted), drain_started)
            tracer.add("queue_wait", ready, stamp["leased"], parent=job,
                       trace=trace)
            tracer.add("service", stamp["leased"], stamp["done"],
                       parent=job, trace=trace)
        tracer.add("get_result", fetch_start, fetch_end, parent=job,
                   trace=trace)
    drain = tracer.add("drain", drain_started, drain_ended, trace="drain")
    done_at = [s["done"] for s in stamps if "done" in s]
    if done_at:
        tracer.add("first_commit", drain_started, min(done_at),
                   parent=drain, trace="drain")


def _per_layer(ctx, jobs, by_name, stamps, drain_started, pass_s):
    from perfbench import layers

    n_jobs = len(jobs)
    leased = [s["leased"] for s in stamps if "leased" in s]
    done = [s["done"] for s in stamps if "done" in s]
    waits = [s["leased"] - max(s.get("submitted", 0.0), drain_started)
             for s in stamps if "leased" in s]
    service = [s["done"] - s["leased"] for s in stamps
               if "leased" in s and "done" in s]
    per_layer = {
        "pool.spawn_ready_s": min(leased) - drain_started,
        "pool.first_commit_s": min(done) - drain_started,
        "supervisor.queue_wait_p50_ms": statistics.median(waits) * 1e3,
        "supervisor.service_p50_ms": statistics.median(service) * 1e3,
        "supervisor.service_p90_ms":
            harness.percentile(service, 90, allow_thin=True) * 1e3,
    }
    per_layer.update(_queue_probes(ctx))

    # The distinct cells, replayed in this process: what the jobs would
    # cost with no queue, no pool and no HTTP around them.
    distinct = list(JOB_CELLS)
    passes = []
    for index in range(1 if ctx.smoke else 3):
        trace = f"replay-{index}"
        with ctx.tracer.span("replay", trace=trace):
            passes.append([cells.run_cell(cell, by_name[cell.graph],
                                          ctx.tracer, trace)
                           for cell in distinct])
    medians = layers.cell_medians(passes)
    per_layer.update(layers.cell_metrics(medians, jobs))
    per_layer["supervisor.tax_ms_per_job"] = (
        (WORKERS * pass_s - per_layer["core.cell_sum_s"]) / n_jobs * 1e3)

    profiled = layers.profiled_passes(ctx, distinct, by_name, budget_s=0.0)
    events = float(sum(run.events for run in passes[0]))
    per_layer["engine.events_per_pass"] = events
    per_layer.update(layers.self_time_metrics(profiled, events))
    per_layer["trace.overhead_frac"] = (
        profiled.walls[0] / sum(medians[cell] for cell in distinct) - 1.0)
    per_layer.update(layers.direct_probes(
        ctx, by_name["rmat22"], distinct, by_name, with_join=True))
    return per_layer, profiled.layers


def _queue_probes(ctx) -> Dict[str, float]:
    """Direct ``JobQueue`` calls: the floor under the HTTP numbers."""
    from repro.service.queue import JobQueue

    ops = 100 if ctx.smoke else 1000
    queue = JobQueue(ctx.tmp / "probe-queue.db")
    try:
        t0 = time.perf_counter()
        submitted = [queue.submit("LS", "bfs", "rmat22", idem_key=f"p{i}")
                     for i in range(ops)]
        submit_s = time.perf_counter() - t0
        row = {"status": "ok", "seconds": 1.0, "counters": {}}
        t0 = time.perf_counter()
        for job in submitted:
            lease = queue.lease(job.id, "probe")
            queue.complete(job.id, "probe", lease.attempts, row)
        lease_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for job in submitted:
            queue.events(job.id)
        events_s = time.perf_counter() - t0
    finally:
        queue.close()
    return {"queue.submit_us": submit_s / ops * 1e6,
            "queue.lease_complete_us": lease_s / ops * 1e6,
            "queue.events_read_us": events_s / ops * 1e6}
