"""Checkpoint journal, atomic snapshots, and kill-and-resume recovery."""

import json
import os

import pytest

from repro import errors, faults
from repro.core import checkpoint, experiments
from repro.core.checkpoint import CellJournal
from repro.core.experiments import CellResult, run_cell
from repro.service import JobQueue, QueueSupervisor, ServiceConfig

#: Supervisor timings for drains that spawn no workers.
FAST = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0)

GRAPHS = ["road-USA-W", "rmat22"]
APPS = ["bfs"]
SYSTEMS = ("SS", "GB", "LS")


def run_grid():
    for app in APPS:
        for system in SYSTEMS:
            for graph in GRAPHS:
                run_cell(system, app, graph)


def fake_cell(system="SS", app="bfs", graph="rmat22", status="ok",
              seconds=1.25, **kwargs):
    return CellResult(system=system, app=app, graph=graph, status=status,
                      seconds=seconds if status == "ok" else None,
                      mrss_gb=1.0, counters={"instructions": 10.0},
                      answer=7, **kwargs)


class TestCellJournal:
    def test_append_load_roundtrip(self, tmp_path):
        journal = CellJournal(tmp_path / "j.jsonl")
        a = fake_cell(system="SS", thread_sweep={1: 2.0, 56: 0.5})
        b = fake_cell(system="GB", status="TO")
        journal.append(a)
        journal.append(b)
        loaded = journal.load()
        assert loaded[a.key] == a
        assert loaded[b.key] == b

    def test_last_record_per_key_wins(self, tmp_path):
        journal = CellJournal(tmp_path / "j.jsonl")
        journal.append(fake_cell(seconds=1.0))
        journal.append(fake_cell(seconds=2.0))
        (loaded,) = journal.load().values()
        assert loaded.seconds == 2.0

    def test_wall_seconds_not_persisted(self, tmp_path):
        journal = CellJournal(tmp_path / "j.jsonl")
        journal.append(fake_cell(wall_seconds=123.0))
        (loaded,) = journal.load().values()
        assert loaded.wall_seconds == 0.0

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path)
        journal.append(fake_cell(system="SS"))
        journal.append(fake_cell(system="GB"))
        with open(path, "a") as f:
            f.write('{"schema": 1, "cell": {"system": "LS", "app"')
        assert len(journal.load()) == 2

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path)
        journal.append(fake_cell(system="SS"))
        with open(path, "a") as f:
            f.write("not json\n")
        journal.append(fake_cell(system="GB"))
        with pytest.raises(errors.InvalidValue, match="corrupt journal"):
            journal.load()

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"schema": 99, "cell": {}}) + "\n")
        with pytest.raises(errors.InvalidValue, match="schema 99"):
            CellJournal(path).load()

    def test_missing_file_loads_empty(self, tmp_path):
        assert CellJournal(tmp_path / "absent.jsonl").load() == {}

    def test_attach_fresh_discards_stale_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CellJournal(path).append(fake_cell())
        checkpoint.attach(path, fresh=True)
        try:
            assert not path.exists()
        finally:
            experiments.set_journal(None)


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
        run_grid()
        reference = tmp_path / "cells_ref.json"
        experiments.save_results(str(reference))

        # Calibrate a kill point: enough kernel trips to complete some
        # cells but not all (the simulation is deterministic, so this
        # count replays exactly).
        experiments.clear_cache()
        observer = faults.FaultPlan()
        with faults.injected(observer):
            run_grid()
        kill_at = int(observer.counts["kernel"] * 0.6)

        # Interrupted run: fatal fault (simulated kill) mid-grid.
        experiments.clear_cache()
        journal_path = tmp_path / "journal.jsonl"
        checkpoint.attach(journal_path, fresh=True)
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fatal",
                                                  nth=kill_at)])
        with pytest.raises(faults.FatalFault):
            with faults.injected(plan):
                run_grid()
        experiments.set_journal(None)
        completed = CellJournal(journal_path).load()
        assert 0 < len(completed) < len(GRAPHS) * len(APPS) * len(SYSTEMS)

        # Resumed run: journaled cells recalled, the rest recomputed.
        experiments.clear_cache()
        recovered = checkpoint.resume(journal_path)
        assert recovered == len(completed)
        run_grid()
        experiments.set_journal(None)
        resumed = tmp_path / "cells_resumed.json"
        experiments.save_results(str(resumed))

        assert resumed.read_bytes() == reference.read_bytes()

    def test_resumed_cells_are_recalled_not_rerun(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        marker = fake_cell(system="LS", app="bfs", graph="rmat22",
                           seconds=424242.0)
        CellJournal(journal_path).append(marker)
        assert checkpoint.resume(journal_path) == 1
        result = run_cell("LS", "bfs", "rmat22")
        assert result.seconds == 424242.0  # served from the journal

    def test_journal_records_fresh_cells_during_run(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        checkpoint.attach(journal_path, fresh=True)
        run_cell("LS", "bfs", "rmat22")
        experiments.set_journal(None)
        assert ("LS", "bfs", "rmat22") in CellJournal(journal_path).load()


@pytest.mark.usefixtures("isolated_grid")
class TestOrderedCommitterIdempotence:
    """The at-least-once queue drain must not double-journal a cell.

    A drain mirrors a job only after the queue's fenced commit, and a
    restarted drain replays the result blobs its killed predecessor
    committed to the queue but maybe not to the journal — so duplicate
    results, zombie results and replays must each append a key once.
    """

    def _journal_apps(self, path):
        return [json.loads(line)["cell"]["app"]
                for line in path.read_text().splitlines()]

    def _row(self, app, seconds=1.0):
        return experiments.cell_to_row(fake_cell(app=app, seconds=seconds))

    def _supervisor(self, queue, job_ids, journal=None):
        return QueueSupervisor(queue, 1, FAST, mirror_jobs=job_ids,
                               journal=journal, owner="mirror")

    def test_duplicate_offer_is_noop_and_byte_identical(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "j.jsonl"
        queue = JobQueue(tmp_path / "q.db")
        job_id = queue.submit("SS", "bfs", "rmat22").id
        first, late = self._row("bfs", 1.0), self._row("bfs", 99.0)
        seen = []

        def run_pool(supervisor, _initial_workers):
            payload = supervisor._next_assignment(0)
            supervisor._task_done(payload["id"], first)
            seen.append(path.read_bytes())
            # The same RESULT delivered again, with other bytes.
            supervisor._task_done(payload["id"], late)

        monkeypatch.setattr(QueueSupervisor, "_run_pool", run_pool)
        self._supervisor(queue, [job_id], CellJournal(path)).drain()
        queue.close()
        assert path.read_bytes() == seen[0]
        assert len(self._journal_apps(path)) == 1
        # The memo kept the first commit, not the late duplicate.
        key = ("SS", "bfs", "rmat22")
        assert experiments.all_results()[key].seconds == 1.0

    def test_offer_after_skip_is_noop(self, tmp_path, inline_pool):
        # The predecessor committed bfs to the queue and the journal;
        # the resumed memo holds it, so the restart journals only cc.
        path = tmp_path / "j.jsonl"
        CellJournal(path).append(fake_cell(app="bfs"))
        queue = JobQueue(tmp_path / "q.db")
        done = queue.submit("SS", "bfs", "rmat22").id
        lease = queue.lease(done, "dead")
        assert queue.complete(done, "dead", lease.attempts,
                              self._row("bfs"))
        pending = queue.submit("SS", "cc", "rmat22").id
        assert checkpoint.resume(path) == 1
        self._supervisor(queue, [done, pending]).drain()
        experiments.set_journal(None)
        queue.close()
        assert self._journal_apps(path) == ["bfs", "cc"]

    def test_out_of_order_offers_after_requeue_commit_in_order(
            self, tmp_path, monkeypatch):
        # Our lease is reclaimed and another supervisor commits the job;
        # our zombie attempt's result is fenced out.  A later mirroring
        # drain journals the winner's row, once.
        path = tmp_path / "j.jsonl"
        now = [1000.0]
        queue = JobQueue(tmp_path / "q.db", clock=lambda: now[0])
        job_id = queue.submit("SS", "cc", "rmat22").id
        winner, stale = self._row("cc", 2.0), self._row("cc", 77.0)

        def run_pool(supervisor, _initial_workers):
            payload = supervisor._next_assignment(0)
            queue.requeue_orphans()
            now[0] += 1000.0  # past the retry backoff
            other = queue.lease(job_id, "other")
            assert queue.complete(job_id, "other", other.attempts, winner)
            supervisor._task_done(payload["id"], stale)

        monkeypatch.setattr(QueueSupervisor, "_run_pool", run_pool)
        zombie = self._supervisor(queue, [job_id], CellJournal(path))
        zombie.drain()
        assert zombie.stats["stale"] == 1
        assert not path.exists()  # the zombie journaled nothing
        self._supervisor(queue, [job_id], CellJournal(path)).drain()
        assert self._journal_apps(path) == ["cc"]
        key = ("SS", "cc", "rmat22")
        assert experiments.all_results()[key].seconds == 2.0
        assert [e["kind"] for e in queue.events(job_id)].count("done") == 1
        queue.close()

    def test_commit_after_supervisor_restart_does_not_duplicate(
            self, tmp_path, inline_pool):
        # The dead drain committed bfs to queue and journal, cc to the
        # queue only (the crash window), and never reached pr.
        path = tmp_path / "j.jsonl"
        queue = JobQueue(tmp_path / "q.db")
        ids = [queue.submit("SS", app, "rmat22").id
               for app in ("bfs", "cc", "pr")]
        for job_id, app in zip(ids[:2], ("bfs", "cc")):
            lease = queue.lease(job_id, "dead")
            assert queue.complete(job_id, "dead", lease.attempts,
                                  self._row(app))
        CellJournal(path).append(fake_cell(app="bfs"))

        # Restart against the same queue: resume the journal and drain.
        experiments.clear_cache()
        assert checkpoint.resume(path) == 1
        self._supervisor(queue, ids).drain()
        experiments.set_journal(None)
        queue.close()
        assert self._journal_apps(path) == ["bfs", "cc", "pr"]
        assert {key[1] for key in experiments.all_results()} == \
            {"bfs", "cc", "pr"}


class TestAtomicWriteJson:
    def test_replaces_atomically(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("old")
        checkpoint.atomic_write_json(path, {"v": 1})
        assert json.loads(path.read_text()) == {"v": 1}
        assert not (tmp_path / "data.json.tmp").exists()
