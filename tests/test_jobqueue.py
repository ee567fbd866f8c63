"""The durable job queue: state machine, leases, retry, tenancy, torn WAL.

Everything here is single-process and clock-injected — the queue's whole
contract (exactly-once commit, lease fencing, backoff windows, admission
caps, crash recovery of a torn SQLite WAL) is testable without spawning a
single worker.  The multi-process drills that drive real workers through
the queue live in ``tests/test_serve.py``.
"""

import shutil

import pytest

from repro import errors
from repro.service.config import (KNOWN_KNOBS, QueueConfig,
                                  validate_env_knobs)
from repro.service.queue import (DEAD, DONE, ERR, LEASED, QUEUED,
                                 JobQueue, backoff_seconds)

GRAPH = "road-USA-W"

#: Small budgets so every path (retry, dead-letter) is a few steps away.
CONFIG = QueueConfig(max_attempts=3, backoff_base=0.1, backoff_cap=1.0,
                     defer_seconds=0.5, lease_seconds=5.0)


@pytest.fixture
def clock():
    """A settable clock: ``clock.now`` is the queue's current time."""
    class _Clock:
        now = 1000.0

        def __call__(self):
            return self.now

    return _Clock()


@pytest.fixture
def queue(tmp_path, clock):
    q = JobQueue(tmp_path / "q.db", CONFIG, clock=clock)
    yield q
    q.close()


def ok_row(system="GB", app="bfs", graph=GRAPH, status="ok"):
    return {"system": system, "app": app, "graph": graph,
            "status": status, "seconds": 1.5 if status == "ok" else None,
            "mrss_gb": 0.25, "counters": {"loops": 3.0}, "answer": None,
            "thread_sweep": {}, "attempts": 1}


class TestSubmit:
    def test_submit_and_get_roundtrip(self, queue, clock):
        job = queue.submit("GB", "bfs", GRAPH, params={"sweep": True},
                           tenant="alice", priority=2, idem_key="k")
        assert job.state == QUEUED and job.attempts == 0
        assert job.key == ("GB", "bfs", GRAPH)
        fetched = queue.get(job.id)
        assert fetched == job
        assert fetched.params == {"sweep": True}
        assert fetched.created == clock.now
        assert queue.get(99_999) is None

    def test_payload_is_validated_with_suggestions(self, queue):
        with pytest.raises(errors.InvalidValue, match="GB"):
            queue.submit("GBX", "bfs", GRAPH)
        with pytest.raises(errors.InvalidValue, match="bfs"):
            queue.submit("GB", "bsf", GRAPH)
        with pytest.raises(errors.InvalidValue):
            queue.submit("GB", "bfs", "no-such-graph")
        with pytest.raises(errors.InvalidValue, match="tenant"):
            queue.submit("GB", "bfs", GRAPH, tenant="")

    def test_idempotency_key_dedups_even_terminal_jobs(self, queue):
        job = queue.submit("GB", "bfs", GRAPH, idem_key="cell-1")
        assert queue.submit("GB", "bfs", GRAPH, idem_key="cell-1").id \
            == job.id
        leased = queue.lease(job.id, "w")
        assert queue.complete(job.id, "w", leased.attempts, ok_row())
        again = queue.submit("GB", "bfs", GRAPH, idem_key="cell-1")
        assert again.id == job.id and again.state == DONE
        assert queue.find("cell-1").id == job.id
        assert queue.find("never-used") is None

    def test_keyless_submissions_are_always_new_jobs(self, queue):
        a = queue.submit("GB", "bfs", GRAPH)
        b = queue.submit("GB", "bfs", GRAPH)
        assert a.id != b.id

    def test_tenant_admission_cap(self, tmp_path, clock):
        q = JobQueue(tmp_path / "capped.db",
                     QueueConfig(tenant_max_active=2), clock=clock)
        q.submit("GB", "bfs", GRAPH, tenant="alice")
        q.submit("LS", "bfs", GRAPH, tenant="alice")
        with pytest.raises(errors.AdmissionDenied, match="alice"):
            q.submit("SS", "bfs", GRAPH, tenant="alice")
        # Other tenants are unaffected; terminal jobs free the cap.
        q.submit("SS", "bfs", GRAPH, tenant="bob")
        job = q.peek_ready()
        leased = q.lease(job.id, "w")
        assert q.complete(job.id, "w", leased.attempts, ok_row())
        q.submit("SS", "cc", GRAPH, tenant="alice")
        q.close()

    def test_priority_then_fifo_dispatch_order(self, queue):
        low = queue.submit("GB", "bfs", GRAPH, priority=0)
        high = queue.submit("LS", "bfs", GRAPH, priority=5)
        assert queue.peek_ready().id == high.id
        queue.lease(high.id, "w")
        assert queue.peek_ready().id == low.id


class TestLeaseLifecycle:
    def test_lease_is_exclusive_and_tokened(self, queue):
        job = queue.submit("GB", "bfs", GRAPH)
        leased = queue.lease(job.id, "w1")
        assert leased.state == LEASED and leased.attempts == 1
        assert leased.lease_deadline == queue.clock() + 5.0
        assert queue.lease(job.id, "w2") is None  # already taken

    def test_complete_is_exactly_once(self, queue):
        job = queue.submit("GB", "bfs", GRAPH)
        leased = queue.lease(job.id, "w1")
        assert queue.complete(job.id, "w1", leased.attempts, ok_row())
        done = queue.get(job.id)
        assert done.state == DONE and done.result["status"] == "ok"
        # Duplicate and stale commits are both rejected no-ops.
        assert not queue.complete(job.id, "w1", leased.attempts, ok_row())
        assert not queue.complete(job.id, "w2", leased.attempts, ok_row())
        assert queue.get(job.id).result == done.result

    def test_stale_token_cannot_commit_after_retry(self, queue, clock):
        job = queue.submit("GB", "bfs", GRAPH)
        first = queue.lease(job.id, "w1")
        queue.fail(job.id, "w1", first.attempts, "worker died")
        clock.now += 60
        second = queue.lease(job.id, "w2")
        # The zombie first worker's result arrives late: fenced out.
        assert not queue.complete(job.id, "w1", first.attempts, ok_row())
        assert queue.get(job.id).state == LEASED
        assert queue.complete(job.id, "w2", second.attempts, ok_row())

    def test_err_rows_are_terminal_with_result(self, queue):
        job = queue.submit("GB", "bfs", GRAPH)
        leased = queue.lease(job.id, "w")
        assert queue.complete(job.id, "w", leased.attempts,
                              ok_row(status="ERR"))
        got = queue.get(job.id)
        assert got.state == ERR and got.result["status"] == "ERR"

    def test_fail_requeues_with_backoff_then_dead_letters(self, queue,
                                                          clock):
        job = queue.submit("GB", "bfs", GRAPH)
        for attempt in range(1, CONFIG.max_attempts + 1):
            leased = queue.lease(job.id, "w")
            assert leased is not None and leased.attempts == attempt
            state = queue.fail(job.id, "w", attempt, f"crash {attempt}")
            if attempt < CONFIG.max_attempts:
                assert state == QUEUED
                requeued = queue.get(job.id)
                assert requeued.not_before > clock.now  # backoff window
                assert queue.peek_ready() is None
                clock.now = requeued.not_before + 0.01
            else:
                assert state == DEAD
        dead = queue.get(job.id)
        assert dead.state == DEAD and "crash 3" in dead.note
        assert not queue.has_open_jobs()
        kinds = [e["kind"] for e in queue.events(job.id)]
        assert kinds == ["submitted", "leased", "requeued", "leased",
                         "requeued", "leased", "dead"]

    def test_defer_charges_no_attempt(self, queue, clock):
        job = queue.submit("GB", "bfs", GRAPH)
        assert queue.defer(job.id, note="breaker open")
        deferred = queue.get(job.id)
        assert deferred.state == QUEUED and deferred.attempts == 0
        assert deferred.not_before == clock.now + CONFIG.defer_seconds
        assert queue.peek_ready() is None
        assert queue.counts()["deferred"] == 1
        clock.now += CONFIG.defer_seconds + 0.01
        assert queue.peek_ready().id == job.id

    def test_renew_extends_only_the_owners_live_lease(self, queue, clock):
        job = queue.submit("GB", "bfs", GRAPH)
        queue.lease(job.id, "w1")
        clock.now += 3
        assert queue.renew(job.id, "w1")
        assert queue.get(job.id).lease_deadline == clock.now + 5.0
        assert not queue.renew(job.id, "w2")


class TestCrashRecovery:
    def test_expired_lease_is_requeued(self, queue, clock):
        job = queue.submit("GB", "bfs", GRAPH)
        queue.lease(job.id, "dead-supervisor")
        assert queue.expire_leases() == []  # still live
        clock.now += 6
        assert queue.expire_leases() == [job.id]
        assert queue.get(job.id).state == QUEUED

    def test_requeue_orphans_takes_over_immediately(self, queue):
        job = queue.submit("GB", "bfs", GRAPH)
        queue.lease(job.id, "dead-supervisor")
        assert queue.requeue_orphans() == [job.id]
        requeued = queue.get(job.id)
        assert requeued.state == QUEUED
        assert "orphaned lease" in requeued.note

    def test_state_survives_reopen(self, tmp_path, clock):
        path = tmp_path / "q.db"
        q = JobQueue(path, CONFIG, clock=clock)
        job = q.submit("GB", "bfs", GRAPH, idem_key="persists")
        leased = q.lease(job.id, "w")
        q.complete(job.id, "w", leased.attempts, ok_row())
        q.close()
        q2 = JobQueue(path, CONFIG, clock=clock)
        reloaded = q2.get(job.id)
        assert reloaded.state == DONE and reloaded.result["status"] == "ok"
        assert q2.submit("GB", "bfs", GRAPH, idem_key="persists").id \
            == job.id
        assert [e["kind"] for e in q2.events(job.id)] \
            == ["submitted", "leased", "done"]
        q2.close()

    def test_torn_wal_tail_recovers_longest_valid_prefix(self, tmp_path,
                                                         clock):
        """The satellite drill: SIGKILL mid-WAL-append loses only the tail.

        A copy of the database files taken while the writer is still open
        is exactly what a kill leaves on disk: all committed transactions
        live in ``q.db-wal`` (never checkpointed).  Tearing bytes off the
        WAL's end simulates the interrupted final write; SQLite's frame
        checksums must recover the longest valid prefix — whole jobs,
        in submission order, never a corrupt row — and the recovered
        database must accept new writes.
        """
        path = tmp_path / "q.db"
        q = JobQueue(path, CONFIG, clock=clock)
        apps = ("bfs", "cc", "pr", "sssp", "tc", "ktruss")
        for i, app in enumerate(apps):
            q.submit("GB", app, GRAPH, idem_key=f"k{i}")
        wal = tmp_path / "q.db-wal"
        assert wal.exists() and wal.stat().st_size > 0
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        shutil.copy(path, crash_dir / "q.db")
        shutil.copy(wal, crash_dir / "q.db-wal")
        q.close()

        torn = crash_dir / "q.db-wal"
        with open(torn, "r+b") as f:
            f.truncate(torn.stat().st_size - 100)  # mid-frame tear

        recovered = JobQueue(crash_dir / "q.db", CONFIG, clock=clock)
        jobs = recovered.jobs()
        # A strict prefix: the torn final frame dropped at least the
        # last submission, and nothing interior was lost or reordered.
        assert len(jobs) < len(apps)
        assert [j.idem_key for j in jobs] \
            == [f"k{i}" for i in range(len(jobs))]
        for job in jobs:
            assert job.state == QUEUED and job.app in apps
        # The recovered queue is fully writable: the lost submission can
        # simply be resubmitted (fresh — its key died with the tail).
        resubmitted = recovered.submit("GB", apps[-1], GRAPH,
                                      idem_key=f"k{len(apps) - 1}")
        assert resubmitted.state == QUEUED
        recovered.close()

    def test_mismatched_schema_is_rejected(self, tmp_path, clock):
        path = tmp_path / "q.db"
        q = JobQueue(path, CONFIG, clock=clock)
        q._conn.execute("UPDATE queue_meta SET value='99' "
                        "WHERE key='schema'")
        q._conn.commit()
        q.close()
        with pytest.raises(errors.InvalidValue, match="schema"):
            JobQueue(path, CONFIG, clock=clock)


class TestBackoff:
    def test_deterministic_and_exponential(self):
        assert backoff_seconds(7, 2, 0.5, 30.0) \
            == backoff_seconds(7, 2, 0.5, 30.0)
        bases = [backoff_seconds(1, a, 0.5, 1000.0) / (0.5 * 2 ** (a - 1))
                 for a in range(1, 6)]
        # Jitter stretches each delay by a factor in [1, 1.5).
        assert all(1.0 <= b < 1.5 for b in bases)

    def test_cap_bounds_the_delay(self):
        assert backoff_seconds(1, 30, 0.5, 2.0) < 2.0 * 1.5

    def test_jitter_differs_across_jobs(self):
        delays = {backoff_seconds(job_id, 1, 0.5, 30.0)
                  for job_id in range(20)}
        assert len(delays) > 1


class TestQueueConfig:
    def test_from_env_reads_all_knobs(self):
        cfg = QueueConfig.from_env({
            "REPRO_JOB_MAX_ATTEMPTS": "5", "REPRO_JOB_BACKOFF": "0.5",
            "REPRO_JOB_BACKOFF_CAP": "60", "REPRO_JOB_DEFER": "2",
            "REPRO_LEASE_SECONDS": "7", "REPRO_TENANT_MAX_ACTIVE": "9",
            "REPRO_QUEUE_HIGH_WATER": "11"})
        assert cfg.max_attempts == 5
        assert cfg.backoff_base == 0.5 and cfg.backoff_cap == 60.0
        assert cfg.defer_seconds == 2.0 and cfg.lease_seconds == 7.0
        assert cfg.tenant_max_active == 9 and cfg.high_water == 11

    def test_invalid_values_fail_fast(self):
        with pytest.raises(errors.InvalidValue):
            QueueConfig(max_attempts=0)
        with pytest.raises(errors.InvalidValue):
            QueueConfig(backoff_base=2.0, backoff_cap=1.0)
        with pytest.raises(errors.InvalidValue):
            QueueConfig(lease_seconds=0)
        with pytest.raises(errors.InvalidValue):
            QueueConfig.from_env({"REPRO_JOB_MAX_ATTEMPTS": "many"})


class TestKnobValidator:
    def test_clean_environment_passes(self):
        assert validate_env_knobs({"PATH": "/bin",
                                   "REPRO_FAULTS": "x"}) == ()

    def test_typo_fails_fast_with_suggestion(self):
        with pytest.raises(errors.InvalidValue,
                           match="REPRO_JOB_MAX_ATTEMPTS"):
            validate_env_knobs({"REPRO_JOB_MAX_ATTEMTPS": "1"})

    def test_removed_knobs_fail_fast(self, tmp_path, monkeypatch, capsys):
        # Knobs that became constants (or whose behaviour went away) must
        # not be silently ignored by a stale environment.
        removed = ("REPRO_SERVICE_HEARTBEAT_TIMEOUT", "REPRO_CANCEL_GRACE",
                   "REPRO_DRAIN_GRACE", "REPRO_JOB_DEADLINE",
                   "REPRO_QUEUE_MAX_WAIT", "REPRO_PLAN_CACHE_STATS",
                   "REPRO_ARTIFACTS")
        for name in removed:
            assert name not in KNOWN_KNOBS
            with pytest.raises(errors.InvalidValue, match=name):
                validate_env_knobs({name: "1"})
        from repro.service.serve import main as serve_main

        monkeypatch.setenv("REPRO_DRAIN_GRACE", "60")
        assert serve_main(["drain", "--queue", str(tmp_path / "q.db")]) == 2
        assert "REPRO_DRAIN_GRACE" in capsys.readouterr().err

    def test_every_known_knob_is_accepted(self):
        assert validate_env_knobs({k: "1" for k in KNOWN_KNOBS
                                   if k != "REPRO_ALLOW_UNKNOWN_KNOBS"}) \
            == ()

    def test_escape_hatch_downgrades_to_warning(self, capsys):
        unknown = validate_env_knobs({"REPRO_TOTALLY_NEW_KNOB": "1",
                                      "REPRO_ALLOW_UNKNOWN_KNOBS": "1"})
        assert unknown == ("REPRO_TOTALLY_NEW_KNOB",)
        assert "REPRO_TOTALLY_NEW_KNOB" in capsys.readouterr().err
