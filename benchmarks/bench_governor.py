"""Resource-governor overhead benchmarks (cancellation, shedding, drain).

A plain script (no pytest tests), like ``bench_queue.py``: run

    PYTHONPATH=src python benchmarks/bench_governor.py

and it writes ``BENCH_governor.json`` at the repo root.  Three numbers
bound what end-to-end governance costs a *healthy* run:

* ``cancel_check`` — the cooperative-cancellation tax on the pagerank
  hot loop with an armed far-future
  :class:`~repro.engine.cancel.CancelToken` installed (every OpEvent
  boundary pays one ``tripped()`` call).  This is the one **asserted
  floor**: checks-per-cell x per-check cost, as a fraction of the
  baseline cell time, must stay under ``MAX_CANCEL_OVERHEAD`` (2 %) — a
  deadline nobody hits must be free.  A raw A/B of the same cells is
  reported alongside but not gated (ms-scale cells swing several percent
  from machine drift alone).
* ``shed_latency`` — how fast the API says no: wall-clock round-trip of
  a ``POST /jobs`` answered 503 + Retry-After past the high-water mark
  (shedding is only useful when rejecting is much cheaper than serving).
* ``drain`` — graceful-drain time as a function of in-flight cells:
  from ``request_drain()`` to the event loop exiting, with every worker
  mid-cell on a deliberately slowed kernel.  The floor is the slowest
  in-flight cell's remainder; the measurement shows the supervisor adds
  ticks, not seconds, on top.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import threading
import time
import urllib.error
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_governor.json"

GRAPH = "road-USA-W"

#: The asserted ceiling for cancellation-check overhead on the pagerank
#: hot loop (fraction of baseline min-of-runs time).
MAX_CANCEL_OVERHEAD = 0.02

CANCEL_REPEATS = 5
CANCEL_BATCH = 10
SHED_REPEATS = 50


def bench_cancel_check():
    from repro.core import experiments
    from repro.engine import cancel

    def sample():
        # One sample = a batch of cells, so per-cell jitter (~ms on this
        # scaled-down graph) partially amortizes.
        t0 = time.perf_counter()
        for _ in range(CANCEL_BATCH):
            experiments.clear_cache()
            result = experiments.run_cell("GB", "pr", GRAPH,
                                          use_cache=False)
            assert result.status == "ok"
        return time.perf_counter() - t0

    sample()  # warm the dataset cache (graph generation dominates)

    # How many OpEvent-boundary checks does one pagerank cell pay?
    calls = [0]
    original = cancel.check

    def counting():
        calls[0] += 1
        original()

    cancel.check = counting
    try:
        experiments.clear_cache()
        experiments.run_cell("GB", "pr", GRAPH, use_cache=False)
    finally:
        cancel.check = original
    checks_per_cell = calls[0]

    # Per-check cost with an armed (never-firing) token installed — the
    # worst steady state: every check pays tripped()'s event + clock.
    token = cancel.CancelToken(deadline=time.monotonic() + 3600.0)
    reps = 200_000
    with cancel.scope(token):
        t0 = time.perf_counter()
        for _ in range(reps):
            cancel.check()
        per_check = (time.perf_counter() - t0) / reps

    # The asserted floor multiplies the two deterministic measurements:
    # a raw A/B of ~20 ms cells swings several percent run to run from
    # machine drift alone, far above the true cost, so the A/B below is
    # reported for the trajectory but not gated.
    base_samples, governed_samples = [], []
    for _ in range(CANCEL_REPEATS):  # interleave against machine drift
        base_samples.append(sample())
        with cancel.scope(token):
            governed_samples.append(sample())
    baseline = min(base_samples) / CANCEL_BATCH
    governed = min(governed_samples) / CANCEL_BATCH
    overhead = checks_per_cell * per_check / baseline
    assert overhead < MAX_CANCEL_OVERHEAD, (
        f"cancellation checks cost {overhead:.2%} of the pagerank hot "
        f"loop (budget {MAX_CANCEL_OVERHEAD:.0%}: {checks_per_cell} "
        f"checks x {per_check * 1e9:.0f} ns on a {baseline * 1e3:.1f} ms "
        f"cell)")
    return {"checks_per_cell": checks_per_cell,
            "ns_per_check": round(per_check * 1e9, 1),
            "baseline_cell_seconds": round(baseline, 5),
            "governed_cell_seconds": round(governed, 5),
            "overhead_fraction": round(overhead, 6),
            "ab_delta_fraction": round(governed / baseline - 1.0, 4),
            "asserted_max": MAX_CANCEL_OVERHEAD,
            "cells_per_sample": CANCEL_BATCH,
            "repeats": CANCEL_REPEATS}


def bench_shed_latency(tmp):
    from repro.service.api import make_server
    from repro.service.config import QueueConfig
    from repro.service.queue import JobQueue

    path = pathlib.Path(tmp) / "shed.db"
    config = QueueConfig(high_water=1)
    queue = JobQueue(path, config)
    queue.submit("GB", "bfs", GRAPH)  # at the watermark: all else sheds
    queue.close()
    server = make_server(path, config=config)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    body = json.dumps({"system": "GB", "app": "cc",
                       "graph": GRAPH}).encode()
    latencies = []
    try:
        for _ in range(SHED_REPEATS):
            req = urllib.request.Request(
                f"http://{host}:{port}/jobs", data=body)
            t0 = time.perf_counter()
            try:
                urllib.request.urlopen(req, timeout=10)
                raise AssertionError("expected a 503 shed response")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                assert int(exc.headers["Retry-After"]) >= 1
                exc.read()
            latencies.append(time.perf_counter() - t0)
    finally:
        server.shutdown()
        server.server_close()
    latencies.sort()
    return {"requests": SHED_REPEATS,
            "p50_ms": round(latencies[len(latencies) // 2] * 1000, 2),
            "p90_ms": round(latencies[int(len(latencies) * 0.9)] * 1000, 2)}


def bench_drain(tmp, inflight):
    from repro.service.config import QueueConfig, ServiceConfig
    from repro.service.queue import JobQueue
    from repro.service.queue_supervisor import QueueSupervisor

    path = pathlib.Path(tmp) / f"drain{inflight}.db"
    setup = JobQueue(path, QueueConfig(lease_seconds=60.0))
    apps = ("pr", "bfs", "cc", "sssp")
    for i in range(inflight):
        # Only the first 20 kernel trips sleep: ~2 s in flight per
        # cell, comfortably inside the drain grace on any machine.
        setup.submit("GB", apps[i % len(apps)], GRAPH,
                     params={"faults": "kernel:slow:ms=100:times=20"})
    setup.close()
    config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=60.0)
    done = {}

    def _drain():
        # SQLite connections are thread-bound: the supervisor's queue
        # handle must be born in the thread that drains with it.
        queue = JobQueue(path, QueueConfig(lease_seconds=60.0))
        supervisor = QueueSupervisor(queue, workers=inflight,
                                     config=config,
                                     owner=f"bench{inflight}")
        done["supervisor"] = supervisor
        done["counts"] = supervisor.drain()
        queue.close()

    thread = threading.Thread(target=_drain)
    thread.start()
    monitor = JobQueue(path, QueueConfig(lease_seconds=60.0))
    deadline = time.time() + 120
    while time.time() < deadline:
        if monitor.counts()["leased"] >= inflight:
            break
        time.sleep(0.02)
    else:
        raise AssertionError(f"{inflight} cells never went in flight")
    monitor.close()
    t0 = time.perf_counter()
    done["supervisor"].request_drain()  # signal-safe: flags only
    thread.join(timeout=120)
    elapsed = time.perf_counter() - t0
    assert not thread.is_alive(), "drain did not complete"
    counts = done["counts"]
    assert counts["leased"] == 0 and counts["dead"] == 0
    assert counts["done"] == inflight  # in-flight cells landed, none shot
    return {"inflight": inflight, "drain_seconds": round(elapsed, 3)}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        report = {
            "cancel_check": bench_cancel_check(),
            "shed_latency": bench_shed_latency(tmp),
            "drain": [bench_drain(tmp, n) for n in (1, 2, 4)],
        }
        report["total_bench_seconds"] = round(time.perf_counter() - t0, 1)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[written to {OUT_PATH}]")


if __name__ == "__main__":
    main()
