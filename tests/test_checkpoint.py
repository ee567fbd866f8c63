"""Checkpoint journal, atomic snapshots, and kill-and-resume recovery."""

import json
import os

import pytest

from repro import errors, faults
from repro.core import checkpoint, experiments
from repro.core.checkpoint import CellJournal
from repro.core.experiments import CellResult, run_cell

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
    """The at-least-once queue drain must not double-commit a cell.

    A drain supervisor replays result blobs its killed predecessor
    committed to the queue but maybe not to the journal, so the committer
    sees duplicate offers, offers for skipped cells, and offers arriving
    out of order after a lease was requeued — none may append twice.
    """

    def _journal_apps(self, path):
        return [json.loads(line)["cell"]["app"]
                for line in path.read_text().splitlines()]

    def test_duplicate_offer_is_noop_and_byte_identical(self, tmp_path):
        path = tmp_path / "j.jsonl"
        committer = checkpoint.OrderedCommitter(
            2, journal=CellJournal(path))
        first = fake_cell(app="bfs", seconds=1.0)
        committer.offer(0, first)
        before = path.read_bytes()
        committer.offer(0, fake_cell(app="bfs", seconds=99.0))
        committer.offer(0, first)
        assert path.read_bytes() == before
        assert committer.committed == 1
        # The memo kept the first commit, not the late duplicate.
        assert experiments.all_results()[first.key].seconds == 1.0

    def test_offer_after_skip_is_noop(self, tmp_path):
        path = tmp_path / "j.jsonl"
        committer = checkpoint.OrderedCommitter(
            2, journal=CellJournal(path))
        committer.skip(0)
        committer.skip(0)  # skip is idempotent too
        committer.offer(0, fake_cell(app="bfs"))
        committer.offer(1, fake_cell(app="cc"))
        assert committer.done and committer.committed == 1
        assert self._journal_apps(path) == ["cc"]

    def test_out_of_order_offers_after_requeue_commit_in_order(
            self, tmp_path):
        # A requeued cell's second attempt can land before an earlier
        # index commits — and a zombie first attempt can land after it.
        path = tmp_path / "j.jsonl"
        committer = checkpoint.OrderedCommitter(
            2, journal=CellJournal(path))
        committer.offer(1, fake_cell(app="cc", seconds=2.0))
        committer.offer(1, fake_cell(app="cc", seconds=77.0))  # zombie
        assert committer.committed == 0 and committer.pending() == 1
        committer.offer(0, fake_cell(app="bfs"))
        assert committer.done and committer.committed == 2
        assert self._journal_apps(path) == ["bfs", "cc"]
        key = ("SS", "cc", "rmat22")
        assert experiments.all_results()[key].seconds == 2.0

    def test_commit_after_supervisor_restart_does_not_duplicate(
            self, tmp_path):
        # First supervisor commits two cells, then dies.
        path = tmp_path / "j.jsonl"
        cells = [fake_cell(app=app) for app in ("bfs", "cc", "pr")]
        committer = checkpoint.OrderedCommitter(
            3, journal=CellJournal(path))
        committer.offer(0, cells[0])
        committer.offer(1, cells[1])

        # Restart: resume the journal, then settle already-known cells
        # the way QueueSupervisor._seed_mirror does — skip what the memo
        # holds, re-offer the rest — and finish the grid.
        experiments.clear_cache()
        assert checkpoint.resume(path) == 2
        memo = experiments.all_results()
        restarted = checkpoint.OrderedCommitter(
            3, journal=experiments.get_journal())
        for index, cell in enumerate(cells[:2]):
            if memo.get(cell.key) is not None:
                restarted.skip(index)
            else:
                restarted.offer(index, cell)
        restarted.offer(2, cells[2])
        experiments.set_journal(None)
        assert restarted.done
        assert self._journal_apps(path) == ["bfs", "cc", "pr"]


class TestAtomicWriteJson:
    def test_replaces_atomically(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("old")
        checkpoint.atomic_write_json(path, {"v": 1})
        assert json.loads(path.read_text()) == {"v": 1}
        assert not (tmp_path / "data.json.tmp").exists()
