"""Resumable grids: the job queue as the only checkpoint, atomic snapshots.

Every study grid drains a :class:`~repro.service.queue.JobQueue`
(``run_grid``), so a killed run resumes by draining the same queue file
again: jobs it already settled are recalled from their stored rows, the
rest run.  These tests kill grids mid-run, tear the queue's WAL, feed it
garbage, and replay stale and duplicate results.
"""

import json
import os
import shutil

import pytest

from repro import errors, faults
from repro.core import experiments
from repro.core.experiments import CellResult
from repro.core.runner import main as runner_main
from repro.service import (JobQueue, QueueSupervisor, ServiceConfig,
                           grid_tasks, run_grid)
from repro.service.serve import main as serve_main

#: Supervisor timings for drains that spawn no workers.
FAST = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0)

GRAPHS = ["road-USA-W", "rmat22"]
APPS = ["bfs"]
TASKS = grid_tasks(GRAPHS, APPS)


def fake_cell(system="SS", app="bfs", graph="rmat22", status="ok",
              seconds=1.25, **kwargs):
    return CellResult(system=system, app=app, graph=graph, status=status,
                      seconds=seconds if status == "ok" else None,
                      mrss_gb=1.0, counters={"instructions": 10.0},
                      answer=7, **kwargs)


def settle(queue, cell, owner="dead"):
    """Commit ``cell`` as a finished study job — what a killed run left."""
    job = queue.submit(cell.system, cell.app, cell.graph, tenant="study",
                       idem_key="study:{}:{}:{}".format(*cell.key))
    lease = queue.lease(job.id, owner)
    assert queue.complete(job.id, owner, lease.attempts,
                          experiments.cell_to_row(cell))
    return job.id


def terminal_events(queue, job_id):
    kinds = [e["kind"] for e in queue.events(job_id)]
    return sum(kinds.count(k) for k in ("done", "err", "dead"))


def recall(queue, job_ids):
    """Drain a queue whose jobs are all settled; returns the supervisor."""
    supervisor = QueueSupervisor(queue, 1, FAST, mirror_jobs=job_ids,
                                 owner="t")
    supervisor.drain(inline=True)
    return supervisor


@pytest.mark.usefixtures("isolated_grid")
class TestCellJournal:
    """The queue does what the per-cell journal did."""

    def test_append_load_roundtrip(self, tmp_path):
        # A settled job's stored row comes back as the same cell.
        queue = JobQueue(tmp_path / "q.db")
        a = fake_cell(system="SS", thread_sweep={1: 2.0, 56: 0.5})
        b = fake_cell(system="GB", status="TO")
        supervisor = recall(queue, [settle(queue, a), settle(queue, b)])
        queue.close()
        assert experiments.all_results() == {a.key: a, b.key: b}
        assert supervisor.stats["recalled"] == 2
        assert "2 cells recalled" in supervisor.describe()

    def test_last_record_per_key_wins(self, tmp_path, inline_pool):
        # One job per idempotency key: a re-run recalls, never duplicates.
        path = tmp_path / "q.db"
        run_grid(TASKS, 1, FAST, queue_path=path)
        experiments.clear_cache()
        _results, line = run_grid(TASKS, 1, FAST, queue_path=path)
        queue = JobQueue(path)
        keys = [job.idem_key for job in queue.jobs()]
        queue.close()
        assert len(keys) == len(set(keys)) == len(TASKS)
        assert len(inline_pool) == len(TASKS)  # the first run only
        assert f"{len(TASKS)} cells recalled" in line

    def test_wall_seconds_not_persisted(self, tmp_path):
        queue = JobQueue(tmp_path / "q.db")
        job_id = settle(queue, fake_cell(wall_seconds=123.0))
        assert "wall_seconds" not in queue.get(job_id).result
        recall(queue, [job_id])
        queue.close()
        (loaded,) = experiments.all_results().values()
        assert loaded.wall_seconds == 0.0

    def test_torn_tail_tolerated(self, tmp_path, inline_pool):
        # A kill mid-append leaves a torn WAL; the resume drains whatever
        # prefix survived and runs the rest, once per key.
        path = tmp_path / "q.db"
        queue = JobQueue(path)
        for task in TASKS[:3]:
            settle(queue, fake_cell(*task.key))
        crash = tmp_path / "crash"
        crash.mkdir()
        shutil.copy(path, crash / "q.db")
        shutil.copy(tmp_path / "q.db-wal", crash / "q.db-wal")
        queue.close()
        torn = crash / "q.db-wal"
        with open(torn, "r+b") as f:
            f.truncate(torn.stat().st_size - 100)  # mid-frame tear

        results, _line = run_grid(TASKS, 1, FAST,
                                  queue_path=crash / "q.db")
        assert set(results) == {task.key for task in TASKS}
        # The tear costs at most the last commit; the rest are recalled.
        assert len(TASKS) - 3 <= len(inline_pool) < len(TASKS)
        queue = JobQueue(crash / "q.db")
        jobs = queue.jobs()
        assert sorted(job.key for job in jobs) == \
            sorted(task.key for task in TASKS)
        assert all(job.state == "done" for job in jobs)
        assert all(terminal_events(queue, job.id) == 1 for job in jobs)
        queue.close()

    def test_interior_corruption_raises(self, tmp_path, capsys):
        # A file that is not a queue is one line and exit 2 on every CLI.
        path = tmp_path / "garbage.db"
        path.write_bytes(b"not a database\n" * 100)
        with pytest.raises(errors.InvalidValue, match="is not a job queue"):
            JobQueue(path)
        assert serve_main(["status", "--queue", str(path)]) == 2
        assert runner_main(["table2", "--graphs", "rmat22", "--apps", "bfs",
                            "--queue", str(path), "--resume"]) == 2
        assert runner_main(["all", "--out", str(tmp_path), "--queue",
                            str(path), "--resume", "--graphs", "rmat22",
                            "--apps", "bfs"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert all("is not a job queue" in line for line in err)
        assert experiments.all_results() == {}

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "q.db"
        queue = JobQueue(path)
        queue._conn.execute("UPDATE queue_meta SET value='99' "
                            "WHERE key='schema'")
        queue._conn.commit()
        queue.close()
        with pytest.raises(errors.InvalidValue, match="schema '99'"):
            run_grid(TASKS, 1, FAST, queue_path=path)

    def test_missing_file_loads_empty(self, tmp_path, inline_pool):
        # Resuming from a queue that does not exist yet recalls nothing.
        _results, line = run_grid(TASKS, 1, FAST,
                                  queue_path=tmp_path / "absent.db")
        assert "recalled" not in line
        assert len(inline_pool) == len(TASKS)

    def test_attach_fresh_discards_stale_journal(self, tmp_path, capsys,
                                                 inline_pool):
        # Without --resume, a killed run's queue — its settled cell lives
        # only in the -wal file — is removed with its siblings before the
        # run, so nothing is recalled from it.
        stale = tmp_path / "stale"
        stale.mkdir()
        queue = JobQueue(stale / "q.db")
        settle(queue, fake_cell(system="LS", seconds=424242.0))
        path = tmp_path / "q.db"
        shutil.copy(stale / "q.db", path)
        shutil.copy(stale / "q.db-wal", f"{path}-wal")
        queue.close()
        argv = ["table2", "--graphs", "rmat22", "--apps", "bfs",
                "--queue", str(path)]
        assert runner_main(argv) == 0
        captured = capsys.readouterr()
        assert "424242.00" not in captured.out
        assert "recalled" not in captured.err
        queue = JobQueue(path)
        assert [job.state for job in queue.jobs()] == ["done"] * 3
        queue.close()


@pytest.mark.usefixtures("isolated_grid")
class TestSnapshotPersistence:
    def test_save_is_atomic_and_versioned(self, tmp_path):
        experiments.seed_results([fake_cell()])
        path = tmp_path / "cells.json"
        experiments.save_results(str(path))
        assert not (tmp_path / "cells.json.tmp").exists()
        payload = json.loads(path.read_text())
        assert payload["schema"] == experiments.SCHEMA_VERSION
        assert len(payload["cells"]) == 1
        assert "wall_seconds" not in payload["cells"][0]

    def test_save_order_is_run_order_independent(self, tmp_path):
        a, b = fake_cell(system="SS"), fake_cell(system="GB")
        experiments.seed_results([a, b])
        experiments.save_results(str(tmp_path / "ab.json"))
        experiments.clear_cache()
        experiments.seed_results([b, a])
        experiments.save_results(str(tmp_path / "ba.json"))
        assert (tmp_path / "ab.json").read_bytes() == \
            (tmp_path / "ba.json").read_bytes()

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"schema": 99, "cells": []}))
        with pytest.raises(errors.InvalidValue, match="schema 99"):
            experiments.load_results(str(path))
        path.write_text(json.dumps("nonsense"))
        with pytest.raises(errors.InvalidValue):
            experiments.load_results(str(path))

    def test_load_rejects_unknown_row_fields(self, tmp_path):
        # A newer schema's field, and an older build's circuit-breaker
        # substitution flag: a row whose time may be another system's
        # must not load silently.
        for name, value in [("from_the_future", 1),
                            ("degraded", {"via": "SS",
                                          "reason": "breaker open"})]:
            row = experiments.cell_to_row(fake_cell())
            row[name] = value
            path = tmp_path / "cells.json"
            path.write_text(json.dumps(
                {"schema": experiments.SCHEMA_VERSION, "cells": [row]}))
            with pytest.raises(errors.InvalidValue, match=name):
                experiments.load_results(str(path))

    def test_legacy_unversioned_list_still_loads(self, tmp_path):
        legacy = [dict(experiments.cell_to_row(fake_cell()),
                       wall_seconds=0.5)]
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(legacy))
        assert experiments.load_results(str(path)) == 1
        (cell,) = experiments.all_results().values()
        assert cell.seconds == 1.25

    def test_shipped_snapshot_loads(self):
        shipped = os.path.join(os.path.dirname(__file__), os.pardir,
                               "benchmarks", "results", "cells.json")
        if not os.path.exists(shipped):
            pytest.skip("no shipped cells.json")
        assert experiments.load_results(shipped) > 100


@pytest.mark.usefixtures("isolated_grid")
class TestKillAndResume:
    def test_resume_reproduces_uninterrupted_run_byte_identically(
            self, tmp_path):
        # Uninterrupted reference run.
        run_grid(TASKS, 1, FAST)
        reference = tmp_path / "cells_ref.json"
        experiments.save_results(str(reference))

        # Calibrate a kill point: enough kernel trips to complete some
        # cells but not all (the simulation is deterministic, so this
        # count replays exactly).
        experiments.clear_cache()
        observer = faults.FaultPlan()
        with faults.injected(observer):
            run_grid(TASKS, 1, FAST)
        kill_at = int(observer.counts["kernel"] * 0.6)

        # Interrupted run: fatal fault (simulated kill) mid-grid.  The
        # cell it struck stays leased; the ones before it are settled.
        experiments.clear_cache()
        path = tmp_path / "q.db"
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fatal",
                                                  nth=kill_at)])
        with pytest.raises(faults.FatalFault):
            with faults.injected(plan):
                run_grid(TASKS, 1, FAST, queue_path=path)
        queue = JobQueue(path)
        counts = queue.counts()
        queue.close()
        assert 0 < counts["done"] < len(TASKS)
        assert counts["leased"] == 1

        # Resumed run: settled cells recalled, the rest recomputed.
        experiments.clear_cache()
        _results, line = run_grid(TASKS, 1, FAST, queue_path=path)
        assert f"{counts['done']} cells recalled" in line
        assert "1 reclaimed" in line
        resumed = tmp_path / "cells_resumed.json"
        experiments.save_results(str(resumed))

        assert resumed.read_bytes() == reference.read_bytes()

    def test_resumed_cells_are_recalled_not_rerun(self, tmp_path):
        path = tmp_path / "q.db"
        queue = JobQueue(path)
        marker = fake_cell(system="LS", app="bfs", graph="rmat22",
                           seconds=424242.0)
        settle(queue, marker)
        queue.close()
        task = grid_tasks(["rmat22"], ["bfs"], systems=("LS",))
        results, line = run_grid(task, 1, FAST, queue_path=path)
        assert results[marker.key].seconds == 424242.0  # from the queue
        assert "1 cells recalled" in line

    def test_journal_records_fresh_cells_during_run(self, tmp_path):
        # The queue holds every cell's committed row once the run ends.
        path = tmp_path / "q.db"
        task = grid_tasks(["rmat22"], ["bfs"], systems=("LS",))
        results, _line = run_grid(task, 1, FAST, queue_path=path)
        queue = JobQueue(path)
        job = queue.find("study:LS:bfs:rmat22")
        queue.close()
        assert job.state == "done"
        assert experiments.cell_from_row(job.result) == \
            results[("LS", "bfs", "rmat22")]


@pytest.mark.usefixtures("isolated_grid")
class TestOrderedCommitterIdempotence:
    """The at-least-once queue drain must not double-commit a cell.

    A drain mirrors a job only after the queue's fenced commit, and a
    restarted drain recalls the jobs its killed predecessor settled — so
    duplicate results, zombie results and replays each commit a key once.
    """

    def _row(self, app, seconds=1.0):
        return experiments.cell_to_row(fake_cell(app=app, seconds=seconds))

    def _supervisor(self, queue, job_ids):
        return QueueSupervisor(queue, 1, FAST, mirror_jobs=job_ids,
                               owner="mirror")

    def test_duplicate_offer_is_noop_and_byte_identical(self, tmp_path,
                                                        monkeypatch):
        queue = JobQueue(tmp_path / "q.db")
        job_id = queue.submit("SS", "bfs", "rmat22").id
        first, late = self._row("bfs", 1.0), self._row("bfs", 99.0)
        seen = []

        def run_pool(supervisor, _initial_workers):
            payload = supervisor._next_assignment()
            supervisor._task_done(payload["id"], first)
            seen.append(queue.get(job_id).result)
            # The same RESULT delivered again, with other bytes.
            supervisor._task_done(payload["id"], late)

        monkeypatch.setattr(QueueSupervisor, "_run_pool", run_pool)
        self._supervisor(queue, [job_id]).drain()
        assert queue.get(job_id).result == seen[0] == first
        assert terminal_events(queue, job_id) == 1
        queue.close()
        # The memo kept the first commit, not the late duplicate.
        key = ("SS", "bfs", "rmat22")
        assert experiments.all_results()[key].seconds == 1.0

    def test_offer_after_skip_is_noop(self, tmp_path, inline_pool):
        # The predecessor settled bfs; the restart recalls it and runs
        # only cc.
        queue = JobQueue(tmp_path / "q.db")
        done = queue.submit("SS", "bfs", "rmat22").id
        lease = queue.lease(done, "dead")
        assert queue.complete(done, "dead", lease.attempts,
                              self._row("bfs", 3.0))
        pending = queue.submit("SS", "cc", "rmat22").id
        supervisor = self._supervisor(queue, [done, pending])
        supervisor.drain()
        assert [job_id for job_id, _keys in inline_pool] == [pending]
        assert supervisor.stats["recalled"] == 1
        assert terminal_events(queue, done) == \
            terminal_events(queue, pending) == 1
        queue.close()
        assert experiments.all_results()[("SS", "bfs", "rmat22")] \
            .seconds == 3.0

    def test_out_of_order_offers_after_requeue_commit_in_order(
            self, tmp_path, monkeypatch):
        # Our lease is reclaimed and another supervisor commits the job;
        # our zombie attempt's result is fenced out.  A later mirroring
        # drain recalls the winner's row, once.
        now = [1000.0]
        queue = JobQueue(tmp_path / "q.db", clock=lambda: now[0])
        job_id = queue.submit("SS", "cc", "rmat22").id
        winner, stale = self._row("cc", 2.0), self._row("cc", 77.0)

        def run_pool(supervisor, _initial_workers):
            payload = supervisor._next_assignment()
            queue.requeue_orphans()
            now[0] += 1000.0  # past the retry backoff
            other = queue.lease(job_id, "other")
            assert queue.complete(job_id, "other", other.attempts, winner)
            supervisor._task_done(payload["id"], stale)

        monkeypatch.setattr(QueueSupervisor, "_run_pool", run_pool)
        zombie = self._supervisor(queue, [job_id])
        zombie.drain()
        assert zombie.stats["stale"] == 1
        assert experiments.all_results() == {}  # the zombie mirrored nothing
        self._supervisor(queue, [job_id]).drain()
        key = ("SS", "cc", "rmat22")
        assert experiments.all_results()[key].seconds == 2.0
        assert terminal_events(queue, job_id) == 1
        queue.close()

    def test_commit_after_supervisor_restart_does_not_duplicate(
            self, tmp_path, inline_pool):
        # The dead drain settled bfs and cc and never reached pr.
        queue = JobQueue(tmp_path / "q.db")
        ids = [queue.submit("SS", app, "rmat22").id
               for app in ("bfs", "cc", "pr")]
        for job_id, app in zip(ids[:2], ("bfs", "cc")):
            lease = queue.lease(job_id, "dead")
            assert queue.complete(job_id, "dead", lease.attempts,
                                  self._row(app))

        # Restart against the same queue and drain.
        supervisor = self._supervisor(queue, ids)
        supervisor.drain()
        assert [job_id for job_id, _keys in inline_pool] == [ids[2]]
        assert supervisor.stats["recalled"] == 2
        assert all(terminal_events(queue, job_id) == 1 for job_id in ids)
        queue.close()
        assert {key[1] for key in experiments.all_results()} == \
            {"bfs", "cc", "pr"}


class TestAtomicWriteJson:
    def test_replaces_atomically(self, tmp_path, isolated_grid):
        # cells.json is replaced whole: never half-written, no .tmp left.
        path = tmp_path / "cells.json"
        path.write_text("old")
        experiments.seed_results([fake_cell()])
        experiments.save_results(str(path))
        assert json.loads(path.read_text())["cells"][0]["seconds"] == 1.25
        assert not (tmp_path / "cells.json.tmp").exists()
