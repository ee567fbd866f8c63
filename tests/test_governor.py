"""End-to-end resource governance: deadlines, memory budgets, shedding,
and graceful drain.

The fast half exercises the policy pieces in isolation — the cooperative
:class:`~repro.engine.cancel.CancelToken`, the acting fault kinds
(``memhog``/``slow``), the governor's pure admission arithmetic, the
queue's deadline column under a fake clock, the supervisor's pre-dispatch
cancellation and memory-deferral paths (no workers spawned), the API's
503 + Retry-After shedding, and ``repro-serve status --json``.

The slow half spawns real workers for the acceptance drills: a
tight-deadline job must end ``CANCELLED`` with a partial trace, a
``memhog``-faulted cell must end ``OOM`` after exactly one sharded retry,
and ``kill -TERM`` mid-drain must exit 0 with nothing leased and the
finished grid byte-identical to a sequential clean run with the governor
enabled.
"""

import dataclasses
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import errors, faults
from repro.faults import plan
from repro.core import experiments
from repro.engine import cancel
from repro.engine.registry import system_codes
from repro.service import governor, heartbeat
from repro.service.api import make_server
from repro.service.breaker import BreakerBoard
from repro.service.config import (QueueConfig, ServiceConfig,
                                  validate_env_knobs)
from repro.service.heartbeat import WorkerHealth
from repro.service.queue import DEAD, DONE, QUEUED, JobQueue
from repro.service.queue_supervisor import (MAX_MEM_DEFERRALS,
                                            QueueSupervisor)
from repro.service.serve import main as serve_main
from repro.sparse.parallel import kernel_threads_from_env

GRAPH = "road-USA-W"

FAST = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0)


class FakeClock:
    """A settable queue clock (wall time must be injectable, never read)."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def snapshot_bytes() -> str:
    rows = [experiments.cell_to_row(v)
            for v in experiments.all_results().values()]
    rows.sort(key=lambda r: (r["system"], r["app"], r["graph"]))
    return json.dumps(rows, sort_keys=True, indent=1,
                      default=experiments._jsonify)


# ----------------------------------------------------------------------
# Cooperative cancellation primitive
# ----------------------------------------------------------------------
class TestCancelToken:
    def test_check_is_noop_without_token(self):
        cancel.clear()
        cancel.check()  # must not raise

    def test_manual_cancel_trips_check(self):
        token = cancel.CancelToken()
        with cancel.scope(token):
            cancel.check()
            token.cancel("drain")
            with pytest.raises(errors.Cancelled) as exc:
                cancel.check()
            assert exc.value.reason == "drain"
        cancel.check()  # scope restored

    def test_first_reason_wins(self):
        token = cancel.CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.tripped() == "first"

    def test_deadline_trips_with_fake_clock(self):
        clock = FakeClock(now=50.0)
        token = cancel.CancelToken(deadline=51.0, clock=clock)
        assert token.tripped() is None
        clock.advance(2.0)
        assert token.tripped() == "deadline"
        clock.advance(-2.0)  # a tripped token stays tripped
        assert token.tripped() == "deadline"

    def test_scope_restores_previous_token(self):
        outer = cancel.CancelToken()
        with cancel.scope(outer):
            inner = cancel.CancelToken()
            with cancel.scope(inner):
                assert cancel.active_token() is inner
            assert cancel.active_token() is outer
        assert cancel.active_token() is None

    @pytest.mark.slow
    def test_expired_token_cancels_cell_with_partial_trace(
            self, isolated_grid):
        clock = FakeClock(now=10.0)
        token = cancel.CancelToken(deadline=5.0, clock=clock)
        with cancel.scope(token):
            result = experiments.run_cell("GB", "pr", GRAPH,
                                          use_cache=False)
        assert result.status == experiments.CANCELLED
        assert result.seconds is None
        assert result.error["type"] == "Cancelled"
        assert "deadline" in result.error["message"]


# ----------------------------------------------------------------------
# Acting fault kinds (memhog / slow)
# ----------------------------------------------------------------------
class TestActingFaults:
    def test_parse_memhog_and_slow_specs(self):
        spec = plan.parse_spec("kernel:memhog:mb=64:times=2")
        assert spec.kind == "memhog" and spec.mb == 64 and spec.times == 2
        spec = plan.parse_spec("kernel:slow:ms=250")
        assert spec.kind == "slow" and spec.ms == 250

    def test_acting_kinds_cannot_be_transient(self):
        with pytest.raises(errors.InvalidValue):
            plan.parse_spec("kernel:memhog:transient")

    def test_memhog_pins_ballast(self):
        plan = faults.plan_from_env(
            {"REPRO_FAULTS": "kernel:memhog:mb=1:times=2"})
        plan.trip("kernel")
        plan.trip("kernel")
        plan.trip("kernel")  # past times=2: no further ballast
        assert len(plan.ballast) == 2
        assert all(block.nbytes == 1 << 20 for block in plan.ballast)
        assert [f[2] for f in plan.fired] == ["memhog", "memhog"]

    def test_slow_sleeps_without_raising(self):
        plan = faults.plan_from_env(
            {"REPRO_FAULTS": "kernel:slow:ms=30:times=1"})
        start = time.monotonic()
        plan.trip("kernel")
        assert time.monotonic() - start >= 0.025
        assert plan.fired[0][2] == "slow"


# ----------------------------------------------------------------------
# Governor policy arithmetic (pure functions)
# ----------------------------------------------------------------------
class TestGovernorPolicy:
    MANIFEST = {"nrows": 1000, "nnz": 10_000, "shard_rows": 250,
                "shards": [{"nnz": 3000}, {"nnz": 4000}, {"nnz": 3000}]}

    def test_estimate_footprint(self):
        total, shard = governor.estimate_footprint(self.MANIFEST)
        assert total == 10_000 * 16 + 1000 * 8
        assert shard == 4000 * 16 + 1000 * 8

    def test_fit_verdicts(self):
        total, shard = governor.estimate_footprint(self.MANIFEST)
        assert governor.fit_verdict(self.MANIFEST, total + 1) == "fits"
        assert governor.fit_verdict(self.MANIFEST, shard + 1) == "sharded"
        assert governor.fit_verdict(self.MANIFEST, shard - 1) == "no"
        assert governor.fit_verdict(self.MANIFEST, 0) == "fits"  # off
        assert governor.fit_verdict(None, 1 << 30) == "fits"

    def test_headroom_charges_against_budget(self):
        total, _ = governor.estimate_footprint(self.MANIFEST)
        assert governor.fit_verdict(self.MANIFEST, total + 1,
                                    headroom=2) != "fits"

    def test_shed_decision_depth_and_latency(self):
        # Depth is the one watermark: open (queued + leased) jobs >= it.
        counts = {"queued": 3, "leased": 1}
        shed = governor.shed_decision(counts, 4)
        assert shed["reason"] == "queue depth" and shed["depth"] == 4
        assert 1 <= shed["retry_after"] <= 60
        assert governor.shed_decision(counts, 5) is None
        assert governor.shed_decision(counts, 0) is None  # shedding off
        assert governor.shed_decision({"queued": 0}, 4) is None

    def test_retry_after_is_bounded(self):
        shed = governor.shed_decision({"queued": 10_000}, 1)
        assert shed["retry_after"] == 60

    def test_looks_like_oom_forensics(self):
        budget = 100
        assert governor.looks_like_oom([10, 50, 90], budget)
        assert governor.looks_like_oom([85], budget)  # single high sample
        assert not governor.looks_like_oom([90, 85, 10], budget)  # falling
        assert not governor.looks_like_oom([10, 20, 30], budget)  # low
        assert not governor.looks_like_oom([], budget)
        assert not governor.looks_like_oom([0, 0], budget)  # no samples
        assert not governor.looks_like_oom([90, 95], 0)  # governor off

    def test_read_rss_bytes_self(self):
        assert governor.read_rss_bytes() > 0


# ----------------------------------------------------------------------
# One pool size: --workers processes, each inheriting REPRO_KERNEL_THREADS
# ----------------------------------------------------------------------
class TestCoresBudget:
    def _pool(self, tmp_path, workers):
        queue = JobQueue(tmp_path / "q.db", QueueConfig())
        return QueueSupervisor(queue, workers=workers, config=FAST,
                               owner="pool")

    def test_split_cores_passthrough_without_budget(self, tmp_path,
                                                    monkeypatch):
        # The pool is exactly --workers, whatever the kernel width.
        for threads in ("1", "4", "16"):
            monkeypatch.setenv("REPRO_KERNEL_THREADS", threads)
            for workers in (1, 2, 3, 8):
                supervisor = self._pool(tmp_path, workers)
                assert supervisor.pool_size == workers
                supervisor.queue.close()

    def test_split_cores_kernel_threads_win_the_tie(self, tmp_path,
                                                    monkeypatch):
        # A dispatched RUN payload goes to the worker as the queue built
        # it: no kernel width is stamped on it.
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
        supervisor = self._pool(tmp_path, 4)
        sent = []

        class Conn:
            def send(self, message):
                sent.append(message)

        handle = WorkerHealth(0, conn=Conn())
        payload = {"id": 1, "system": "GB", "app": "bfs", "graph": GRAPH,
                   "sweep": False, "attempt": 1}
        supervisor._send_run(handle, payload)
        assert sent == [(heartbeat.RUN, payload)]
        supervisor.queue.close()

    def test_split_cores_never_oversubscribes(self, monkeypatch):
        # Service knobs do not read the kernel width at all.
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
        assert ServiceConfig.from_env() == ServiceConfig()
        assert {f.name for f in dataclasses.fields(ServiceConfig)}.isdisjoint(
            {"cores_budget", "kernel_threads"})

    def test_worker_pool_clamps_and_records_split(self, tmp_path):
        supervisor = self._pool(tmp_path, 8)
        assert supervisor.pool_size == 8
        assert not hasattr(supervisor, "cores_split")
        supervisor.queue.close()

    def test_worker_pool_without_budget_keeps_request(self, tmp_path):
        supervisor = self._pool(tmp_path, 3)
        assert supervisor.pool_size == 3
        assert "3 workers" in supervisor.describe()
        supervisor.queue.close()

    def test_config_reads_both_knobs(self):
        with pytest.raises(errors.InvalidValue, match="REPRO_CORES_BUDGET"):
            validate_env_knobs({"REPRO_CORES_BUDGET": "8"})
        assert validate_env_knobs({"REPRO_KERNEL_THREADS": "4"}) == ()
        with pytest.raises(errors.InvalidValue, match="REPRO_KERNEL_THREADS"):
            kernel_threads_from_env({"REPRO_KERNEL_THREADS": "0"})

    def test_task_scope_sets_and_restores_kernel_threads_env(
            self, monkeypatch):
        # A worker keeps the width it inherited, even if a payload
        # carries a kernel_threads key.
        from repro.service.worker import _task_scope

        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        with _task_scope({"kernel_threads": 4}):
            assert os.environ["REPRO_KERNEL_THREADS"] == "2"
        assert os.environ["REPRO_KERNEL_THREADS"] == "2"

    def test_publish_status_exposes_cores_split(self, tmp_path, capsys):
        supervisor = self._pool(tmp_path, 8)
        supervisor._publish_status()
        supervisor.queue.close()
        assert serve_main(["status", "--queue", str(tmp_path / "q.db"),
                           "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert "cores" not in status
        assert status["supervisor"]["owner"] == "pool"


# ----------------------------------------------------------------------
# Deadline trips mid-kernel (between shard tasks / flop batches)
# ----------------------------------------------------------------------
class TestMidKernelDeadline:
    """A tripped deadline must stop a long SpGEMM *inside* the kernel —
    between shard tasks or flop batches — not wait for the next OpEvent
    boundary that a multi-second kernel may never reach in time."""

    def _operands(self, shard_rows=16):
        import scipy.sparse as sp
        from repro.sparse.blocked import BlockedCSR
        from repro.sparse.csr import build_csr

        def rand(seed):
            coo = sp.random(160, 160, density=0.05,
                            random_state=seed).tocoo()
            return build_csr(160, 160, coo.row, coo.col, coo.data)

        A, B = rand(41), rand(42)
        return A, BlockedCSR.from_csr(A, shard_rows=shard_rows), B

    def _clock_burning_mult(self, clock):
        import numpy as np
        from repro.sparse.semiring_ops import BINARY_FNS

        def slow_mult(a, b):
            # Each multiply burns fake seconds; the deadline trips inside
            # the first shard/batch and the *next* entry check raises.
            clock.advance(10.0)
            return np.multiply(a, b)

        return BINARY_FNS["times"].__class__("times", slow_mult)

    def test_deadline_cancels_between_shard_tasks(self):
        from repro.sparse.semiring_ops import MONOID_FNS
        from repro.sparse.spgemm import spgemm_saxpy

        _, A_blocked, B = self._operands()
        clock = FakeClock(now=100.0)
        token = cancel.CancelToken(deadline=101.0, clock=clock)
        mult = self._clock_burning_mult(clock)
        with cancel.scope(token):
            with pytest.raises(errors.Cancelled):
                spgemm_saxpy(A_blocked, B, MONOID_FNS["plus"], mult)

    def test_deadline_cancels_between_flop_batches_monolithic(self):
        from repro.sparse.semiring_ops import MONOID_FNS
        from repro.sparse.spgemm import spgemm_saxpy

        A, _, B = self._operands()
        clock = FakeClock(now=100.0)
        token = cancel.CancelToken(deadline=101.0, clock=clock)
        mult = self._clock_burning_mult(clock)
        with cancel.scope(token):
            with pytest.raises(errors.Cancelled):
                # A tiny flop budget forces many batches, so the per-batch
                # check fires long before the kernel would finish.
                spgemm_saxpy(A, B, MONOID_FNS["plus"], mult,
                             batch_flops=64)


# ----------------------------------------------------------------------
# Queue deadline column (fake clock, no workers)
# ----------------------------------------------------------------------
class TestQueueDeadline:
    def test_submit_persists_absolute_deadline(self, tmp_path):
        clock = FakeClock(now=1000.0)
        queue = JobQueue(tmp_path / "q.db", QueueConfig(), clock=clock)
        job = queue.submit("GB", "bfs", GRAPH, deadline_ms=2500)
        assert job.deadline == 1002.5
        assert queue.get(job.id).deadline == 1002.5
        detail = queue.events(job.id)[0]["detail"]
        assert detail["deadline_ms"] == 2500
        assert queue.submit("SS", "bfs", GRAPH).deadline is None
        queue.close()

    def test_default_deadline_comes_from_config(self, tmp_path):
        # No queue-wide default exists: only the submitter sets a deadline.
        clock = FakeClock(now=1000.0)
        queue = JobQueue(tmp_path / "q.db", QueueConfig(), clock=clock)
        job = queue.submit("GB", "bfs", GRAPH)
        assert job.deadline is None
        assert "deadline_ms" not in queue.events(job.id)[0]["detail"]
        clock.advance(10_000.0)
        assert queue.peek_ready().id == job.id  # never expires while queued
        queue.close()

    def test_bad_deadline_rejected(self, tmp_path):
        queue = JobQueue(tmp_path / "q.db", QueueConfig())
        for bad in (-1, 0, "soon"):
            with pytest.raises(errors.InvalidValue):
                queue.submit("GB", "bfs", GRAPH, deadline_ms=bad)
        queue.close()

    def test_oldest_ready_wait_tracks_fake_clock(self, tmp_path):
        # Readiness and the deferred count follow the injected clock.
        clock = FakeClock(now=1000.0)
        queue = JobQueue(tmp_path / "q.db", QueueConfig(defer_seconds=5.0),
                         clock=clock)
        assert queue.peek_ready() is None
        job = queue.submit("GB", "bfs", GRAPH)
        assert queue.peek_ready().id == job.id
        queue.defer(job.id, note="test")
        assert queue.peek_ready() is None
        assert queue.counts()["deferred"] == 1
        clock.advance(7.5)
        assert queue.peek_ready().id == job.id
        assert queue.counts()["deferred"] == 0
        queue.close()

    def test_meta_roundtrip_and_reserved_key(self, tmp_path):
        queue = JobQueue(tmp_path / "q.db", QueueConfig())
        assert queue.get_meta("workers", default=[]) == []
        queue.set_meta("workers", [{"worker_id": 0, "rss": 123}])
        queue.set_meta("workers", [{"worker_id": 0, "rss": 456}])
        assert queue.get_meta("workers")[0]["rss"] == 456
        with pytest.raises(errors.InvalidValue):
            queue.set_meta("schema", 99)
        queue.close()


# ----------------------------------------------------------------------
# Supervisor admission paths (no workers spawned)
# ----------------------------------------------------------------------
class TestGovernorAdmission:
    def _supervisor(self, queue, config=FAST):
        supervisor = QueueSupervisor(queue, workers=1, config=config,
                                     owner="test")
        supervisor._breakers = BreakerBoard(system_codes(), 5, 8)
        return supervisor

    def test_expired_job_cancelled_before_dispatch(self, tmp_path):
        clock = FakeClock(now=1000.0)
        queue = JobQueue(tmp_path / "q.db", QueueConfig(), clock=clock)
        job = queue.submit("GB", "bfs", GRAPH, deadline_ms=100)
        clock.advance(1.0)  # budget burned while queued
        supervisor = self._supervisor(queue)
        assert supervisor._next_assignment() is None
        assert supervisor.stats["cancelled"] == 1
        done = queue.get(job.id)
        assert done.state == DONE
        assert done.result["status"] == experiments.CANCELLED
        assert done.result["error"]["type"] == "Cancelled"
        queue.close()

    def test_payload_carries_remaining_budget(self, tmp_path):
        clock = FakeClock(now=1000.0)
        queue = JobQueue(tmp_path / "q.db", QueueConfig(), clock=clock)
        queue.submit("GB", "bfs", GRAPH, deadline_ms=60_000)
        clock.advance(10.0)
        supervisor = self._supervisor(queue)
        payload = supervisor._next_assignment()
        # 50 s of budget remain but the static cell deadline (8 s) caps.
        assert payload["deadline_seconds"] == FAST.cell_deadline
        queue.close()

    def test_per_job_faults_travel_in_payload(self, tmp_path):
        queue = JobQueue(tmp_path / "q.db", QueueConfig())
        queue.submit("GB", "bfs", GRAPH,
                     params={"faults": "kernel:slow:ms=10"})
        payload = self._supervisor(queue)._next_assignment()
        assert payload["faults"] == "kernel:slow:ms=10"
        queue.close()

    def test_over_budget_job_dispatched_sharded_up_front(self, tmp_path):
        queue = JobQueue(tmp_path / "q.db", QueueConfig())
        queue.submit("GB", "pr", GRAPH)
        config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0,
                               mem_budget_mb=1.0)
        supervisor = self._supervisor(queue, config=config)
        # Monolithic estimate over the 1 MB budget; shards fit.
        supervisor._manifests[GRAPH] = {
            "nrows": 1000, "nnz": 100_000, "shard_rows": 125,
            "shards": [{"nnz": 12_500}] * 8}
        payload = supervisor._next_assignment()
        assert payload["shard_rows"] == 125
        queue.close()

    def test_unfittable_job_defers_then_dead_letters(self, tmp_path):
        clock = FakeClock(now=1000.0)
        queue = JobQueue(tmp_path / "q.db",
                         QueueConfig(defer_seconds=5.0), clock=clock)
        job = queue.submit("GB", "pr", GRAPH, max_attempts=1)
        config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0,
                               mem_budget_mb=1.0)
        supervisor = self._supervisor(queue, config=config)
        supervisor._manifests[GRAPH] = {
            "nrows": 10_000_000, "nnz": 100_000_000, "shard_rows": 8192,
            "shards": [{"nnz": 50_000_000}] * 2}  # no shard fits either
        for round_no in range(MAX_MEM_DEFERRALS):
            assert supervisor._next_assignment() is None
            assert queue.get(job.id).state == QUEUED
            clock.advance(1000.0)  # past any backoff window
        assert supervisor.stats["mem_deferred"] == MAX_MEM_DEFERRALS
        assert supervisor._next_assignment() is None
        dead = queue.get(job.id)
        assert dead.state == DEAD
        assert "memory budget" in dead.note
        assert supervisor.stats["dead"] == 1
        queue.close()


# ----------------------------------------------------------------------
# API load shedding (stdlib server, no workers)
# ----------------------------------------------------------------------
def _request(base, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


@pytest.fixture
def shedding_api(tmp_path):
    """A live API whose queue sheds past a depth of 2."""
    server = make_server(tmp_path / "q.db",
                         config=QueueConfig(high_water=2))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


class TestAPIShedding:
    def test_503_with_retry_after_past_high_water(self, shedding_api):
        submit = {"system": "GB", "app": "bfs", "graph": GRAPH}
        for app in ("bfs", "cc"):
            status, _, _ = _request(shedding_api, "/jobs",
                                    dict(submit, app=app))
            assert status == 201
        status, body, headers = _request(shedding_api, "/jobs",
                                         dict(submit, app="pr"))
        assert status == 503
        assert body["shed"]["reason"] == "queue depth"
        assert int(headers["Retry-After"]) >= 1

    def test_idempotent_resubmit_bypasses_shedding(self, shedding_api):
        submit = {"system": "GB", "app": "bfs", "graph": GRAPH,
                  "idem_key": "k1"}
        assert _request(shedding_api, "/jobs", submit)[0] == 201
        status, _, _ = _request(shedding_api, "/jobs", {
            "system": "GB", "app": "cc", "graph": GRAPH})
        assert status == 201  # now at the watermark
        status, deduped, _ = _request(shedding_api, "/jobs", submit)
        assert status == 200 and deduped["id"] == 1

    def test_health_reports_shed_state(self, shedding_api):
        status, body, _ = _request(shedding_api, "/health")
        assert status == 200 and body["shedding"] is None
        for app in ("bfs", "cc"):
            _request(shedding_api, "/jobs",
                     {"system": "GB", "app": app, "graph": GRAPH})
        status, body, _ = _request(shedding_api, "/health")
        assert body["shedding"]["reason"] == "queue depth"

    def test_submit_accepts_deadline_ms(self, shedding_api):
        status, job, _ = _request(shedding_api, "/jobs", {
            "system": "GB", "app": "bfs", "graph": GRAPH,
            "deadline_ms": 1500})
        assert status == 201 and job["deadline"] is not None
        status, body, _ = _request(shedding_api, "/jobs", {
            "system": "GB", "app": "cc", "graph": GRAPH,
            "deadline_ms": -5})
        assert status == 400 and "deadline_ms" in body["error"]


# ----------------------------------------------------------------------
# CLI surface (no workers)
# ----------------------------------------------------------------------
class TestGovernorCLI:
    def test_submit_deadline_and_fault_flags(self, tmp_path, capsys):
        q = str(tmp_path / "q.db")
        assert serve_main(["submit", "--queue", q, "GB", "pr", GRAPH,
                           "--deadline-ms", "2000",
                           "--fault", "kernel:slow:ms=10"]) == 0
        job = json.loads(capsys.readouterr().out)
        assert job["deadline"] is not None
        assert job["params"]["faults"] == "kernel:slow:ms=10"

    def test_status_json_includes_governor_snapshot(self, tmp_path,
                                                    capsys):
        q = str(tmp_path / "q.db")
        serve_main(["submit", "--queue", q, "GB", "bfs", GRAPH])
        capsys.readouterr()
        assert serve_main(["status", "--queue", q, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"]["queued"] == 1
        assert status["tenants"]["default"]["queued"] == 1
        # Nobody has drained yet: the published snapshot is empty but
        # present, so dashboards need no schema special-casing.
        assert status["workers"] == [] and status["breakers"] == {}
        assert "cores" not in status
        assert status["dead"] == []


# ----------------------------------------------------------------------
# The wall-clock audit: queue logic must use the injectable clock
# ----------------------------------------------------------------------
class TestClockDiscipline:
    def test_no_wall_clock_calls_in_service_layer(self):
        service = pathlib.Path(__file__).resolve().parent.parent \
            / "src" / "repro" / "service"
        offenders = []
        for path in sorted(service.glob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(),
                                          start=1):
                if re.search(r"\btime\.time\(\)", line):
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        # ``clock=time.time`` default *references* are fine (injectable);
        # direct calls would desynchronize replayed/fake-clock runs.
        assert offenders == [], "\n".join(offenders)


# ----------------------------------------------------------------------
# Real workers: the acceptance drills
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDeadlineDrill:
    def test_tight_deadline_job_ends_cancelled_with_partial_trace(
            self, tmp_path, isolated_grid):
        queue = JobQueue(tmp_path / "q.db",
                         QueueConfig(lease_seconds=30.0))
        # The deadline runs from submission and a worker spawn takes
        # ~0.25 s of it, so leave room for a loaded host to still
        # dispatch before expiry.
        job = queue.submit("GB", "pr", GRAPH, deadline_ms=1500,
                           params={"faults": "kernel:slow:ms=200:times=0"})
        supervisor = QueueSupervisor(queue, workers=1, config=FAST,
                                     owner="drill")
        counts = supervisor.drain()
        assert counts["done"] == 1 and counts["dead"] == 0
        done = queue.get(job.id)
        assert done.state == DONE
        assert done.result["status"] == experiments.CANCELLED
        assert done.result["error"]["type"] == "Cancelled"
        # Partial trace: the cell ran some OpEvent rounds before yielding.
        assert done.result["counters"].get("loops", 0) > 0
        assert done.result["seconds"] is None
        queue.close()


@pytest.mark.slow
class TestOOMDrill:
    def test_memhog_job_ends_oom_after_one_sharded_retry(
            self, tmp_path, isolated_grid):
        queue = JobQueue(tmp_path / "q.db",
                         QueueConfig(lease_seconds=30.0))
        job = queue.submit("GB", "pr", GRAPH,
                           params={"faults": "kernel:memhog:mb=192:times=0"})
        config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=30.0,
                               mem_budget_mb=128.0)
        supervisor = QueueSupervisor(queue, workers=1, config=config,
                                     owner="drill")
        counts = supervisor.drain()
        assert counts["done"] == 1 and counts["dead"] == 0
        assert supervisor.stats["oom_retried"] == 1
        assert supervisor.stats["oom_quarantined"] == 1
        done = queue.get(job.id)
        assert done.state == DONE and done.attempts == 2
        assert done.result["status"] == experiments.OOM
        assert done.result["error"]["type"] == "WorkerOOM"
        assert "sharded retry" in done.result["error"]["message"]
        queue.close()


#: Stand-alone ``repro-serve drain`` driver: a real file with a __main__
#: guard (spawned workers re-import their __main__), running the actual
#: CLI so the SIGTERM handler under test is the one users get.
DRAIN_CHILD = """\
import sys

from repro.service.serve import main

if __name__ == "__main__":
    sys.exit(main(["drain", "--queue", sys.argv[1], "--workers", "1"]))
"""


@pytest.mark.slow
class TestSigtermDrainDrill:
    def test_sigterm_drains_gracefully_and_rerun_is_byte_identical(
            self, tmp_path, isolated_grid):
        """The graceful-drain acceptance drill.

        ``kill -TERM`` a draining supervisor while a cell is in flight:
        the process must let the cell land, fail nothing, exit 0, and
        leave no leased jobs behind.  A follow-up drain (governor knobs
        enabled) finishes the grid byte-identical to a sequential run.
        """
        cells = [("GB", "pr"), ("SS", "bfs"), ("GB", "bfs"), ("LS", "bfs")]
        for system, app in cells:
            experiments.run_cell(system, app, GRAPH)
        baseline = snapshot_bytes()
        experiments.clear_cache()

        path = tmp_path / "q.db"
        queue = JobQueue(path, QueueConfig(lease_seconds=30.0))
        job_ids = []
        for priority, (system, app) in enumerate(reversed(cells)):
            params = {}
            if (system, app) == ("GB", "pr"):
                # The in-flight cell at SIGTERM time: slow enough to
                # still be running, guaranteed to finish afterwards.
                params["faults"] = "kernel:slow:ms=150:times=0"
            job_ids.append(queue.submit(
                system, app, GRAPH, priority=priority, params=params,
                deadline_ms=600_000).id)

        script = tmp_path / "drain_child.py"
        script.write_text(DRAIN_CHILD)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        env["REPRO_SERVICE_HEARTBEAT"] = "0.05"
        child = subprocess.Popen(
            [sys.executable, str(script), str(path)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if queue.counts()["leased"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("child never leased a job")
        except BaseException:
            child.kill()
            child.wait()
            raise
        child.send_signal(signal.SIGTERM)
        rc = child.wait(timeout=120)
        assert rc == 0  # graceful drain is not an error

        counts = queue.counts()
        assert counts["leased"] == 0  # nothing abandoned mid-lease
        assert counts["dead"] == 0 and counts["err"] == 0
        assert counts["done"] >= 1  # the in-flight cell landed
        assert counts["done"] + counts["queued"] == len(job_ids)

        # Finish the drain with the governor fully enabled: generous
        # budgets must not perturb a healthy run's bytes.
        config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=30.0,
                               mem_budget_mb=8192.0)
        supervisor = QueueSupervisor(
            JobQueue(path, QueueConfig(lease_seconds=30.0)), workers=1,
            config=config, mirror_jobs=job_ids, owner="finisher")
        counts = supervisor.drain()
        assert counts["done"] == len(job_ids)
        assert counts["dead"] == 0 and counts["leased"] == 0
        for job_id in job_ids:
            job = queue.get(job_id)
            assert job.state == DONE
            kinds = [e["kind"] for e in queue.events(job_id)]
            assert kinds.count("done") == 1  # exactly-once commit
        assert snapshot_bytes() == baseline
        queue.close()
