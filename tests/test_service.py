"""The supervised worker pool: crash/hang recovery, breakers, identity.

The expensive guarantees are exercised on a tiny grid (one graph, one or
two apps) so every drill spawns real processes but stays seconds-cheap:

* kill-and-requeue — a worker SIGKILLed mid-cell is reaped and respawned,
  the cell requeued, and the finished grid is byte-identical to a clean
  sequential run;
* poison dead-letter — a cell that kills its worker on *every* attempt
  ends as ``ERR``/``DeadLetter`` after ``REPRO_JOB_MAX_ATTEMPTS`` leases
  without stalling the rest of the pool;
* hang detection — a worker stuck forever blows the per-cell deadline,
  is killed, and the cell completes on requeue;
* circuit breaking — an open breaker only defers its system's cells; a
  system that keeps failing dead-letters its own cells and never borrows
  another system's time.

Every drill runs the grid through :func:`repro.service.run_grid`: the
cells are jobs on an ephemeral queue drained by the worker pool.
"""

import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors, faults
from repro.core import checkpoint, experiments
from repro.core.experiments import ERR, OK, CellResult
from repro.core.runner import main as runner_main
from repro.service import CellTask, ChaosPlan, CircuitBreaker, \
    QueueSupervisor, ServiceConfig, grid_tasks, run_grid
from repro.service.breaker import BreakerBoard, CLOSED, HALF_OPEN, OPEN
from repro.service.chaos import ChaosSpec
from repro.service.chaos import parse_spec as parse_chaos_spec
from repro.service.config import HEARTBEAT_TIMEOUT, validate_env_knobs
from repro.service.heartbeat import WorkerHealth
from repro.service.queue import JobQueue
from repro.service.worker import json_clean_row

GRAPH = "road-USA-W"

#: A ServiceConfig tuned for tests: fast beats, short hang deadline.
FAST = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0)


def snapshot_bytes() -> str:
    """The memo serialized the way ``save_results`` writes cells.json."""
    rows = [experiments.cell_to_row(v)
            for v in experiments.all_results().values()]
    rows.sort(key=lambda r: (r["system"], r["app"], r["graph"]))
    return json.dumps(rows, sort_keys=True, indent=1,
                      default=experiments._jsonify)


def sequential_baseline(apps=("bfs",)):
    """Run the tiny grid in-process and return its snapshot bytes."""
    for app in apps:
        for system in ("SS", "GB", "LS"):
            experiments.run_cell(system, app, GRAPH)
    baseline = snapshot_bytes()
    experiments.clear_cache()
    return baseline


class TestGridTasks:
    def test_canonical_app_major_order(self):
        tasks = grid_tasks(["g1", "g2"], ["bfs", "cc"])
        assert all(isinstance(t, CellTask) for t in tasks)
        keys = [t.key for t in tasks]
        assert keys[0] == ("SS", "bfs", "g1")
        assert keys[1] == ("SS", "bfs", "g2")
        assert keys[2] == ("GB", "bfs", "g1")
        assert keys[6] == ("SS", "cc", "g1")
        assert [t.index for t in tasks] == list(range(12))
        assert not any(t.sweep for t in tasks)

    def test_sweep_corner_marks_gb_ls_only(self):
        tasks = grid_tasks(["g1", "g2"], ["bfs"],
                           sweep_apps=["bfs"], sweep_graphs=["g2"])
        swept = {t.key for t in tasks if t.sweep}
        assert swept == {("GB", "bfs", "g2"), ("LS", "bfs", "g2")}

    def test_sweep_cells_outside_grid_are_appended(self):
        tasks = grid_tasks(["g1"], ["bfs"],
                           sweep_apps=["pr"], sweep_graphs=["g1"])
        assert [t.key for t in tasks[-2:]] == [("GB", "pr", "g1"),
                                               ("LS", "pr", "g1")]
        assert all(t.sweep for t in tasks[-2:])
        assert len({t.key for t in tasks}) == len(tasks)


class TestOrderedCommitter:
    """A drain mirrors each job into the memo and journal the moment the
    queue commits it: completion order, once per job (no workers here —
    ``inline_pool`` completes leased jobs in-process)."""

    def test_commits_in_index_order(self, isolated_grid, tmp_path,
                                    inline_pool):
        # The later job dispatches (priority) and commits first; it
        # reaches the memo at once instead of waiting behind the earlier.
        queue = JobQueue(tmp_path / "q.db")
        earlier = queue.submit("GB", "bfs", GRAPH).id
        later = queue.submit("GB", "cc", GRAPH, priority=1).id
        QueueSupervisor(queue, 1, FAST, mirror_jobs=[earlier, later],
                        owner="t").drain()
        queue.close()
        assert inline_pool == [
            (later, {("GB", "cc", GRAPH)}),
            (earlier, {("GB", "cc", GRAPH), ("GB", "bfs", GRAPH)})]

    def test_skip_unblocks_later_indexes(self, isolated_grid, tmp_path,
                                         inline_pool):
        # A memo-satisfied task (a resumed journal holds it) is recalled,
        # never submitted; the rest run.
        tasks = grid_tasks([GRAPH], ["bfs"])
        recalled = CellResult(system="GB", app="bfs", graph=GRAPH,
                              status=OK, seconds=424242.0, mrss_gb=0.1,
                              counters={}, answer=None)
        experiments.seed_results([recalled])
        results, line = run_grid(tasks, workers=2, config=FAST,
                                 queue_path=tmp_path / "grid.db")
        queue = JobQueue(tmp_path / "grid.db")
        submitted = sorted(job.key for job in queue.jobs())
        queue.close()
        assert submitted == sorted(t.key for t in tasks
                                   if t.key != recalled.key)
        assert results[recalled.key].seconds == 424242.0
        assert line.endswith(", 1 recalled")
        assert all(r.status == OK for r in results.values())

    def test_journal_receives_cells_in_order(self, isolated_grid,
                                             tmp_path, inline_pool):
        # Priorities reverse the dispatch order; the journal follows
        # completion, one line per job.
        queue = JobQueue(tmp_path / "q.db")
        ids = [queue.submit("GB", app, GRAPH, priority=priority).id
               for priority, app in enumerate(("bfs", "cc", "pr"))]
        journal = checkpoint.CellJournal(str(tmp_path / "j.jsonl"))
        QueueSupervisor(queue, 1, FAST, mirror_jobs=ids, journal=journal,
                        owner="t").drain()
        queue.close()
        assert [key[1] for key in journal_keys(tmp_path / "j.jsonl")] \
            == ["pr", "cc", "bfs"]


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("GB", threshold=3, cooldown=2)
        for _ in range(2):
            breaker.record(ok=False)
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record(ok=False)
        assert breaker.state == OPEN and not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("GB", threshold=2, cooldown=2)
        breaker.record(ok=False)
        breaker.record(ok=True)
        breaker.record(ok=False)
        assert breaker.state == CLOSED

    def test_half_open_probe_and_recovery(self):
        breaker = CircuitBreaker("GB", threshold=1, cooldown=3)
        breaker.record(ok=False)
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown ticks down on decisions
        assert not breaker.allow()
        assert breaker.allow()      # the half-open probe
        assert breaker.state == HALF_OPEN
        breaker.record(ok=True)
        assert breaker.state == CLOSED and breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker("GB", threshold=1, cooldown=2)
        breaker.record(ok=False)
        assert not breaker.allow()
        assert breaker.allow()      # the probe
        breaker.record(ok=False)
        assert breaker.state == OPEN and not breaker.allow()

    def test_zero_threshold_never_trips(self):
        breaker = CircuitBreaker("GB", threshold=0, cooldown=1)
        for _ in range(50):
            breaker.record(ok=False)
        assert breaker.state == CLOSED and breaker.allow()

    def test_forced_open_stays_open(self):
        # An open breaker stays open for exactly ``cooldown`` decisions.
        breaker = CircuitBreaker("GB", threshold=1, cooldown=10)
        breaker.record(ok=False)
        for _ in range(9):
            assert not breaker.allow()
            assert breaker.state == OPEN
        assert breaker.allow() and breaker.state == HALF_OPEN

    def test_board_routes_to_compatible_closed_fallback(self):
        # An open board defers; it never names another system.
        board = BreakerBoard(("SS", "GB", "LS"), threshold=1, cooldown=99)
        board.record("GB", ok=False)
        assert board.admit("SS") is True
        assert board.admit("GB") is False
        states = board.states()
        assert states["GB"]["state"] == OPEN and states["GB"]["trips"] == 1
        assert states["SS"]["state"] == states["LS"]["state"] == CLOSED

    def test_board_runs_in_place_without_healthy_fallback(self):
        # With every breaker open, each system's own probe comes after
        # ``cooldown`` decisions on that system.
        board = BreakerBoard(("SS", "GB", "LS"), threshold=1, cooldown=3)
        for code in ("SS", "GB", "LS"):
            board.record(code, ok=False)
        for code in ("SS", "GB", "LS"):
            assert [board.admit(code) for _ in range(3)] \
                == [False, False, True]
            assert board.states()[code]["state"] == HALF_OPEN

    def test_release_hands_the_probe_back(self):
        breaker = CircuitBreaker("GB", threshold=1, cooldown=4)
        breaker.record(ok=False)
        while not breaker.allow():
            pass
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # the probe is out
        breaker.release()           # ... but was never dispatched
        assert breaker.allow() and breaker.state == HALF_OPEN
        closed = CircuitBreaker("GB", threshold=1, cooldown=4)
        assert closed.allow()
        closed.release()            # a closed admission has nothing to give
        assert closed.state == CLOSED


class TestBreakerTermination:
    """Livelock freedom: with nothing in flight, an open breaker admits
    its probe within ``max(cooldown, 1)`` decisions, whatever happened
    before — the argument that lets a deferred queue always drain."""

    @settings(max_examples=300, deadline=None)
    @given(threshold=st.integers(0, 5), cooldown=st.integers(0, 10),
           ops=st.lists(st.sampled_from(("admit", "lost", "ok", "fail")),
                        max_size=60))
    def test_open_breaker_admits_within_cooldown(self, threshold, cooldown,
                                                 ops):
        breaker = CircuitBreaker("GB", threshold=threshold,
                                 cooldown=cooldown)
        in_flight = 0  # admitted and dispatched, outcome not yet recorded
        refused = 0    # consecutive refusals with nothing in flight
        for op in ops:
            if op in ("ok", "fail"):
                if in_flight:  # every recorded outcome is an admitted job's
                    in_flight -= 1
                    breaker.record(ok=op == "ok")
                    refused = 0
                continue
            if breaker.allow():
                refused = 0
                if op == "lost":   # admitted, but the lease was lost
                    breaker.release()
                else:
                    in_flight += 1
                continue
            assert threshold, "threshold=0 must never defer"
            if not in_flight:
                assert breaker.state == OPEN
                refused += 1
                assert refused < max(cooldown, 1)
        for _ in range(in_flight):
            breaker.record(ok=False)
        assert any(breaker.allow() for _ in range(max(cooldown, 1)))


class TestChaosPlan:
    def test_parse_spec_with_attempt(self):
        spec = parse_chaos_spec("GB:bfs:road-USA-W:attempt=2", "kill")
        assert spec == ChaosSpec("GB", "bfs", "road-USA-W", attempt=2,
                                 action="kill")

    def test_parse_rejects_garbage(self):
        with pytest.raises(errors.InvalidValue):
            parse_chaos_spec("GB:bfs", "kill")
        with pytest.raises(errors.InvalidValue):
            parse_chaos_spec("GB:bfs:g:retries=2", "kill")
        with pytest.raises(errors.InvalidValue):
            ChaosSpec("GB", "bfs", "g", action="explode")

    def test_attempt_scoping(self):
        plan = ChaosPlan((parse_chaos_spec("GB:bfs:g:attempt=1", "kill"),
                          parse_chaos_spec("LS:cc:g", "hang")))
        assert plan.action_for("GB", "bfs", "g", 1) == "kill"
        assert plan.action_for("GB", "bfs", "g", 2) is None
        assert plan.action_for("LS", "cc", "g", 7) == "hang"
        assert plan.action_for("SS", "bfs", "g", 1) is None

    def test_random_channel_kills_first_attempt_only(self):
        plan = ChaosPlan(kill_rate=1.0, seed=3)
        assert plan.action_for("GB", "bfs", "g", 1) == "kill"
        assert plan.action_for("GB", "bfs", "g", 2) is None

    def test_random_channel_is_order_independent(self):
        a = ChaosPlan(kill_rate=0.5, seed=11)
        b = ChaosPlan(kill_rate=0.5, seed=11)
        cells = [("GB", app, g) for app in ("bfs", "cc", "pr")
                 for g in ("g1", "g2")]
        forward = [a.action_for(s, ap, g, 1) for s, ap, g in cells]
        backward = [b.action_for(s, ap, g, 1)
                    for s, ap, g in reversed(cells)]
        assert forward == list(reversed(backward))

    def test_from_env_validates(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_KILL_CELLS", "GB:bfs")
        with pytest.raises(errors.InvalidValue):
            ChaosPlan.from_env()
        monkeypatch.setenv("REPRO_CHAOS_KILL_CELLS", "")
        monkeypatch.setenv("REPRO_CHAOS_KILL_RATE", "1.5")
        with pytest.raises(errors.InvalidValue):
            ChaosPlan.from_env()


class TestServiceConfig:
    def test_env_knobs_are_validated(self, monkeypatch):
        for name, bad in [("REPRO_SERVICE_HEARTBEAT", "zero"),
                          ("REPRO_CELL_DEADLINE", "-1"),
                          ("REPRO_BREAKER_THRESHOLD", "-2"),
                          ("REPRO_BREAKER_COOLDOWN", "soon")]:
            monkeypatch.setenv(name, bad)
            with pytest.raises(errors.InvalidValue):
                ServiceConfig.from_env()
            monkeypatch.delenv(name)

    def test_env_knobs_apply(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_DEADLINE", "12.5")
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN", "3")
        config = ServiceConfig.from_env()
        assert config.cell_deadline == 12.5
        assert config.breaker_cooldown == 3

    def test_heartbeat_timeout_must_exceed_interval(self):
        for interval in (HEARTBEAT_TIMEOUT, HEARTBEAT_TIMEOUT + 1, 0.0):
            with pytest.raises(errors.InvalidValue):
                ServiceConfig(heartbeat_interval=interval)
        ServiceConfig(heartbeat_interval=HEARTBEAT_TIMEOUT / 2)


class TestWorkerHealth:
    def test_deadline_applies_only_in_flight(self):
        health = WorkerHealth(0)
        assert not health.over_deadline(0.0, now=1e9)
        health.started(7)
        assert health.over_deadline(0.0, now=health.task_started + 1)
        health.finished()
        assert not health.over_deadline(0.0, now=1e9)

    def test_staleness(self):
        health = WorkerHealth(0)
        assert health.stale(5.0, now=health.last_beat + 6)
        health.beat()
        assert not health.stale(5.0, now=health.last_beat + 4)


class TestRetryKnob:
    """``run_cell`` retries transients under one fixed budget (3 attempts
    in total); tests inject another through ``retry=``."""

    def test_env_overrides_attempts(self):
        # No environment knob sets the budget: the old name is unknown.
        with pytest.raises(errors.InvalidValue, match="REPRO_CELL_RETRIES"):
            validate_env_knobs({"REPRO_CELL_RETRIES": "7"})

    def test_unset_keeps_default(self, isolated_grid, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "1")  # not read
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                                  times=0, transient=True)])
        with faults.injected(plan):
            result = experiments.run_cell("GB", "bfs", GRAPH,
                                          use_cache=False)
        assert experiments.DEFAULT_RETRY.max_attempts == 3
        assert result.status == ERR and result.attempts == 3

    def test_malformed_value_fails_at_install(self, monkeypatch):
        for name, bad in [("REPRO_CELL_WALL_BUDGET", "abc"),
                          ("REPRO_FAULTS_RATE", "lots"),
                          ("REPRO_FAULTS_SEED", "1.5")]:
            monkeypatch.setenv(name, bad)
            with pytest.raises(errors.InvalidValue, match=name):
                faults.install_from_env()
            monkeypatch.delenv(name)

    def test_run_cell_honors_the_knob(self, isolated_grid):
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                                  transient=True)])
        with faults.injected(plan):
            result = experiments.run_cell("GB", "bfs", GRAPH,
                                          use_cache=False,
                                          retry=faults.NO_RETRY)
        assert result.status == ERR  # one attempt: the transient sticks
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                                  nth=1, transient=True)])
        with faults.injected(plan):
            result = experiments.run_cell(
                "GB", "bfs", GRAPH, use_cache=False,
                retry=faults.RetryPolicy(max_attempts=2, backoff_base=0.0))
        assert result.status == OK and result.attempts == 2


class TestJsonCleanRow:
    def test_row_survives_json_round_trip(self, isolated_grid):
        result = experiments.run_cell("GB", "bfs", GRAPH)
        row = json_clean_row(result)
        assert row == json.loads(json.dumps(row))
        rebuilt = experiments.cell_from_row(row)
        assert rebuilt.key == result.key
        assert rebuilt.seconds == result.seconds


@pytest.fixture
def drained(monkeypatch):
    """The QueueSupervisors ``run_grid`` drains through, for their stats."""
    seen = []
    real_drain = QueueSupervisor.drain

    def drain(self):
        seen.append(self)
        return real_drain(self)

    monkeypatch.setattr(QueueSupervisor, "drain", drain)
    return seen


def journal_keys(path):
    return [tuple(json.loads(line)["cell"][f]
                  for f in ("system", "app", "graph"))
            for line in path.read_text().splitlines()]


@pytest.mark.slow
class TestSupervisorDrills:
    """Real multi-process drills; each spawns 2 spawn-context workers."""

    def test_kill_and_requeue_byte_identical(self, isolated_grid,
                                             monkeypatch, tmp_path,
                                             drained):
        baseline = sequential_baseline(apps=("bfs",))

        monkeypatch.setenv("REPRO_CHAOS_KILL_CELLS",
                           f"GB:bfs:{GRAPH}:attempt=1")
        journal = checkpoint.attach(tmp_path / "par.jsonl", fresh=True)
        results, line = run_grid(grid_tasks([GRAPH], ["bfs"]), workers=2,
                                 config=FAST, journal=journal)
        experiments.set_journal(None)

        supervisor, = drained
        assert supervisor.stats["crashes"] >= 1
        assert supervisor.stats["requeued"] >= 1
        assert supervisor.stats["respawns"] >= 1
        assert "crashes" in line and "dead" not in line
        assert all(r.status == OK for r in results.values())
        assert snapshot_bytes() == baseline

        # The journal holds each task's key exactly once despite the chaos.
        assert sorted(journal_keys(tmp_path / "par.jsonl")) == \
            sorted(t.key for t in grid_tasks([GRAPH], ["bfs"]))

    def test_poison_cell_is_quarantined(self, isolated_grid, monkeypatch,
                                        drained):
        monkeypatch.setenv("REPRO_CHAOS_KILL_CELLS", f"LS:bfs:{GRAPH}")
        monkeypatch.setenv("REPRO_JOB_MAX_ATTEMPTS", "2")
        config = ServiceConfig(heartbeat_interval=0.05)
        results, line = run_grid(grid_tasks([GRAPH], ["bfs"]), workers=2,
                                 config=config)

        poisoned = results[("LS", "bfs", GRAPH)]
        assert poisoned.status == ERR
        assert poisoned.error["type"] == "DeadLetter"
        assert poisoned.attempts == 2
        assert drained[0].stats["dead"] == 1
        assert "1 dead" in line
        assert results[("SS", "bfs", GRAPH)].status == OK
        assert results[("GB", "bfs", GRAPH)].status == OK

    def test_hung_worker_blows_deadline_and_recovers(self, isolated_grid,
                                                     monkeypatch, drained):
        monkeypatch.setenv("REPRO_CHAOS_HANG_CELLS",
                           f"SS:bfs:{GRAPH}:attempt=1")
        config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=2.0)
        results, _line = run_grid(grid_tasks([GRAPH], ["bfs"],
                                             systems=("SS",)),
                                  workers=1, config=config)
        assert results[("SS", "bfs", GRAPH)].status == OK
        assert drained[0].stats["crashes"] >= 1

    def test_prewarm_runs_before_cells_and_keeps_identity(
            self, isolated_grid, drained):
        baseline = sequential_baseline(apps=("bfs",))

        results, line = run_grid(grid_tasks([GRAPH], ["bfs"]), workers=2,
                                 config=FAST)

        # Every worker prewarms each graph that still has open jobs
        # exactly once before accepting its first cell, so a worker's
        # first cell deadline never includes dataset generation time.
        assert drained[0].stats["prewarmed"] >= 1
        assert drained[0].stats["prewarmed"] <= 2  # workers x graphs
        assert "prewarmed" in line
        assert all(r.status == OK for r in results.values())
        assert snapshot_bytes() == baseline

    def test_forced_open_breaker_reroutes_with_degraded_flag(
            self, isolated_grid, monkeypatch, drained):
        # GB's cell kills its worker on every attempt, and one failure
        # opens GB's breaker.  The open breaker only defers: each retry
        # is a half-open probe on GB itself, so the cell burns its own
        # attempt budget and dead-letters — no other system runs it.
        monkeypatch.setenv("REPRO_CHAOS_KILL_CELLS", f"GB:bfs:{GRAPH}")
        monkeypatch.setenv("REPRO_JOB_DEFER", "0.05")
        monkeypatch.setenv("REPRO_JOB_BACKOFF", "0.05")
        config = ServiceConfig(heartbeat_interval=0.05,
                               breaker_threshold=1, breaker_cooldown=2)
        results, line = run_grid(grid_tasks([GRAPH], ["bfs"]), workers=2,
                                 config=config)

        dead = results[("GB", "bfs", GRAPH)]
        assert dead.system == "GB" and dead.status == ERR
        assert dead.error["type"] == "DeadLetter"
        assert results[("SS", "bfs", GRAPH)].status == OK
        assert results[("LS", "bfs", GRAPH)].status == OK
        assert not any("degraded" in experiments.cell_to_row(r)
                       for r in results.values())
        supervisor, = drained
        assert supervisor.stats["deferred"] >= 1
        assert supervisor._breakers.states()["GB"]["trips"] >= 1
        assert "deferred" in line and "1 dead" in line

    def test_resume_with_workers_submits_only_missing_cells(
            self, isolated_grid, monkeypatch, tmp_path, drained):
        tasks = grid_tasks([GRAPH], ["bfs"])
        argv = ["table2", "--graphs", GRAPH, "--apps", "bfs"]
        assert runner_main(argv + ["--save", str(tmp_path / "seq.json")]) \
            == 0
        experiments.clear_cache()

        # A killed run's journal: the first k cells, in canonical order.
        k = 2
        journal = tmp_path / "run.jsonl"
        checkpoint.attach(journal, fresh=True)
        for task in tasks[:k]:
            experiments.run_cell(*task.key)
        experiments.set_journal(None)
        experiments.clear_cache()

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        assert runner_main(argv + [
            "--journal", str(journal), "--resume", "--workers", "2",
            "--save", str(tmp_path / "par.json")]) == 0

        supervisor, = drained
        assert supervisor.stats["jobs"] == len(tasks) - k
        keys = journal_keys(journal)
        assert keys[:k] == [t.key for t in tasks[:k]]
        assert sorted(keys) == sorted(t.key for t in tasks)
        assert (tmp_path / "par.json").read_bytes() == \
            (tmp_path / "seq.json").read_bytes()
        # The ephemeral queue lived under the temp dir and is gone.
        assert pathlib.Path(supervisor.queue.path).parent.parent == scratch
        assert list(scratch.iterdir()) == []


@pytest.mark.slow
class TestRunnerServiceCLI:
    def test_workers_flag_matches_sequential(self, isolated_grid,
                                             capsys):
        assert runner_main(["table2", "--graphs", GRAPH, "--apps", "bfs",
                            "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        experiments.clear_cache()
        assert runner_main(["table2", "--graphs", GRAPH, "--apps",
                            "bfs"]) == 0
        assert capsys.readouterr().out == parallel_out

    def test_rejects_nonpositive_workers(self, capsys):
        assert runner_main(["table2", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestRunnerStatusSummary:
    def test_summary_printed_to_stderr(self, isolated_grid, capsys):
        assert runner_main(["table2", "--graphs", GRAPH,
                            "--apps", "bfs"]) == 0
        err = capsys.readouterr().err
        assert "(cells: ok=3 TO=0 OOM=0 ERR=0 CANCELLED=0)" in err

    def test_strict_fails_on_err_cells(self, isolated_grid, monkeypatch,
                                       capsys):
        monkeypatch.setenv("REPRO_FAULTS", "kernel:fault:nth=1:times=0")
        assert runner_main(["table2", "--graphs", GRAPH, "--apps", "bfs",
                            "--strict"]) == 1
        err = capsys.readouterr().err
        assert "--strict" in err and "ERR" in err

    def test_default_still_exits_zero_on_err_cells(self, isolated_grid,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kernel:fault:nth=1:times=0")
        assert runner_main(["table2", "--graphs", GRAPH,
                            "--apps", "bfs"]) == 0


class TestAllTargetIncludesValidate:
    def test_all_renders_every_target(self, monkeypatch, capsys):
        from repro.core import runner as runner_module

        seen = []
        monkeypatch.setattr(
            runner_module, "_render",
            lambda target, graphs, apps: (seen.append(target)
                                          or f"<{target}>"))
        assert runner_main(["all"]) == 0
        assert seen == ["table1", "table2", "table3", "table4", "table5",
                        "figure2", "figure3", "validate"]
        assert "<validate>" in capsys.readouterr().out
