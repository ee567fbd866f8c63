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
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors, faults
from repro.core import experiments
from repro.core.experiments import ERR, OK, CellResult
from repro.core.runner import main as runner_main
from repro.faults.plan import FaultPlan, FaultSpec, parse_spec
from repro.service import CellTask, CircuitBreaker, QueueSupervisor, \
    ServiceConfig, grid_tasks, queue_supervisor, run_grid
from repro.service.breaker import BreakerBoard, CLOSED, HALF_OPEN, OPEN
from repro.service.config import HEARTBEAT_TIMEOUT, validate_env_knobs
from repro.service.heartbeat import WorkerHealth
from repro.service.queue import JobQueue
from repro.service.worker import json_clean_row, run_task

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
    """A drain mirrors each job into the memo the moment the queue
    commits it: completion order, once per job (no workers here —
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
        # A memo-satisfied task (--load put it there) is recalled, never
        # submitted; the rest run.
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
        assert line.endswith(", 1 cells recalled")
        assert all(r.status == OK for r in results.values())

    def test_journal_receives_cells_in_order(self, isolated_grid,
                                             tmp_path, inline_pool):
        # Priorities reverse the dispatch order; the memo follows
        # completion, one commit per job.
        queue = JobQueue(tmp_path / "q.db")
        ids = [queue.submit("GB", app, GRAPH, priority=priority).id
               for priority, app in enumerate(("bfs", "cc", "pr"))]
        QueueSupervisor(queue, 1, FAST, mirror_jobs=ids,
                        owner="t").drain()
        assert [job_id for job_id, _keys in inline_pool] \
            == list(reversed(ids))
        assert all(terminal_events(queue, job_id) == 1 for job_id in ids)
        queue.close()


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


def kill_rate_plan(rate, seed):
    """The drills' seeded random kill channel: first attempts only."""
    return FaultPlan([parse_spec(f"cell:kill:rate={rate}:attempt=1")],
                     seed=seed)


class TestChaosPlan:
    """Worker kill/hang as ``cell``-site fault specs (the chaos drills)."""

    def test_parse_spec_with_attempt(self):
        spec = parse_spec("cell:kill@GB:bfs:road-USA-W:attempt=2")
        assert spec == FaultSpec("cell", "kill",
                                 cell=("GB", "bfs", "road-USA-W"),
                                 attempt=2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(errors.InvalidValue):
            parse_spec("cell:kill@GB:bfs")
        with pytest.raises(errors.InvalidValue):
            parse_spec("cell:kill@GB:bfs:g:retries=2")
        with pytest.raises(errors.InvalidValue):
            FaultSpec("cell", "explode", cell=("GB", "bfs", "g"))
        # kill/hang live at the cell site only, and it counts no trips.
        for bad in ("kernel:kill", "cell:fault", "kernel:fault@GB:bfs:g",
                    "cell:kill:nth=2", "cell:hang:transient",
                    "alloc:oom:attempt=1", "cell:kill:attempt=0"):
            with pytest.raises(errors.InvalidValue):
                parse_spec(bad)

    def test_attempt_scoping(self):
        plan = FaultPlan((parse_spec("cell:kill@GB:bfs:g:attempt=1"),
                          parse_spec("cell:hang@LS:cc:g")))
        assert plan.cell_action("GB", "bfs", "g", 1) == "kill"
        assert plan.cell_action("GB", "bfs", "g", 2) is None
        assert plan.cell_action("LS", "cc", "g", 7) == "hang"
        assert plan.cell_action("SS", "bfs", "g", 1) is None
        # Cell specs never fire at the counted trip points.
        plan.trip("kernel")
        plan.trip("alloc")
        assert plan.fired == []

    def test_random_channel_kills_first_attempt_only(self):
        plan = kill_rate_plan(1.0, seed=3)
        assert plan.cell_action("GB", "bfs", "g", 1) == "kill"
        assert plan.cell_action("GB", "bfs", "g", 2) is None

    def test_random_channel_is_order_independent(self):
        a = kill_rate_plan(0.5, seed=11)
        b = kill_rate_plan(0.5, seed=11)
        cells = [("GB", app, g) for app in ("bfs", "cc", "pr")
                 for g in ("g1", "g2")]
        forward = [a.cell_action(s, ap, g, 1) for s, ap, g in cells]
        backward = [b.cell_action(s, ap, g, 1)
                    for s, ap, g in reversed(cells)]
        assert forward == list(reversed(backward))

    def test_from_env_validates(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cell:kill@GB:bfs")
        with pytest.raises(errors.InvalidValue):
            faults.plan_from_env()
        monkeypatch.setenv("REPRO_FAULTS", "cell:kill:rate=1.5")
        with pytest.raises(errors.InvalidValue):
            faults.plan_from_env()

    @pytest.mark.parametrize("rate,seed,killed", [
        (0.08, 11, [("GB", "ktruss", "rmat22")]),
        (0.25, 3, [("GB", "bfs", "rmat22"), ("GB", "bfs", "road-USA-W"),
                   ("GB", "ktruss", "rmat22"), ("GB", "ktruss", "road-USA-W"),
                   ("GB", "pr", "road-USA-W"), ("GB", "tc", "road-USA-W"),
                   ("SS", "ktruss", "rmat22")]),
    ])
    def test_rate_draw_kills_the_recorded_cells(self, rate, seed, killed):
        # Recorded from the retired REPRO_CHAOS_KILL_RATE/_SEED channel
        # over the CI chaos job's 36-cell grid: the cell-keyed draw keeps
        # its hash, so the same seed kills the same cells.
        plan = kill_rate_plan(rate, seed)
        tasks = grid_tasks(["road-USA-W", "rmat22"],
                           list(experiments.APPLICATIONS))
        assert len(tasks) == 36
        assert sorted(t.key for t in tasks
                      if plan.cell_action(*t.key, 1) == "kill") == killed
        assert not [t for t in tasks if plan.cell_action(*t.key, 2)]

    def test_cell_kill_never_fires_in_process(self, isolated_grid):
        # workers=1 drains in this process: a kill here would take the
        # test runner down with it.
        plan = faults.parse_plan(f"cell:kill@GB:bfs:{GRAPH};cell:kill")
        with faults.injected(plan):
            results, _line = run_grid(grid_tasks([GRAPH], ["bfs"]),
                                      workers=1)
        assert all(r.status == OK for r in results.values())
        assert plan.fired == []


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


class TestSupervisorLoop:
    """The drain's own bookkeeping, driven with stand-in workers (no
    processes)."""

    def _supervisor(self, tmp_path, config=FAST):
        queue = JobQueue(tmp_path / "q.db")
        queue.submit("GB", "bfs", GRAPH)
        return QueueSupervisor(queue, 2, config, owner="test")

    def test_graceful_drain_does_not_respawn(self, tmp_path, monkeypatch):
        # A worker lost during a SIGTERM drain is not replaced: the
        # replacement would never get work.
        supervisor = self._supervisor(tmp_path)
        spawned = []
        monkeypatch.setattr(supervisor, "_spawn", lambda: spawned.append(1))

        class Process:
            def kill(self):
                pass

            def join(self, timeout=None):
                pass

        class Conn:
            def close(self):
                pass

        for worker_id in (0, 1):
            if worker_id == 1:
                supervisor.request_drain()
            handle = WorkerHealth(worker_id, Process(), Conn(), ready=True)
            supervisor._workers[worker_id] = handle
            supervisor._reap(handle, "heartbeat lost")
        assert supervisor.queue.has_open_jobs()
        assert spawned == [1]  # the death before the drain only
        assert supervisor.stats["crashes"] == 2
        assert supervisor.stats["respawns"] == 1
        supervisor.queue.close()

    def test_tick_runs_on_the_clock_not_per_wakeup(self, tmp_path,
                                                   monkeypatch):
        # Renewal, progress events and status snapshots run at most once
        # per heartbeat interval, however often the event loop wakes.
        supervisor = self._supervisor(tmp_path)
        queue = supervisor.queue
        job = queue.lease(queue.peek_ready().id, supervisor.owner)
        supervisor._inflight[job.id] = job
        renewals = []
        renew = queue.renew
        monkeypatch.setattr(queue, "renew", lambda *a: renewals.append(a)
                            or renew(*a))
        now = [100.0]
        monkeypatch.setattr(queue_supervisor, "time",
                            SimpleNamespace(monotonic=lambda: now[0]))
        for _ in range(50):  # one burst of wakeups: one tick
            supervisor._tick()
        assert len(renewals) == 1
        for _ in range(queue_supervisor.HEARTBEAT_EVENT_TICKS - 1):
            now[0] += FAST.heartbeat_interval
            supervisor._tick()
            supervisor._tick()
        assert len(renewals) == queue_supervisor.HEARTBEAT_EVENT_TICKS
        kinds = [e["kind"] for e in queue.events(job.id)]
        assert kinds.count("heartbeat") == 1
        assert queue.get_meta("supervisor")["owner"] == "test"
        queue.close()

    def test_dispatch_reads_the_queue_for_idle_workers_only(
            self, tmp_path, monkeypatch):
        # A busy worker costs no queue read, an idle one the single peek
        # of its assignment, and the first that finds nothing dispatchable
        # ends the pass; a warm-up goes out only while a job is waiting.
        supervisor = self._supervisor(tmp_path)
        supervisor._breakers = BreakerBoard(("GB",), 0, 1.0)
        queue = supervisor.queue
        peeks = []
        peek_ready = queue.peek_ready
        monkeypatch.setattr(queue, "peek_ready",
                            lambda: peeks.append(1) or peek_ready())
        sent = []

        class Conn:
            def send(self, message):
                sent.append(message)

        for worker_id in (0, 1):
            supervisor._workers[worker_id] = WorkerHealth(
                worker_id, conn=Conn(), ready=True)
        supervisor._workers[1].started(99)
        supervisor._dispatch_idle()
        assert [m[1]["system"] for m in sent] == ["GB"]
        assert len(peeks) == 1
        supervisor._dispatch_idle()  # both busy
        assert len(peeks) == 1
        for worker_id in (0, 1):
            supervisor._workers[worker_id].finished()
        supervisor._workers[1].warmup.append(GRAPH)
        supervisor._dispatch_idle()  # two idle workers, nothing queued
        assert len(peeks) == 2 and len(sent) == 1
        queue.close()


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
                          ("REPRO_FAULTS", "kernel:fault:rate=lots"),
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


class TestTaskScope:
    def test_job_faults_replace_the_process_plan(self, isolated_grid):
        # The process-wide plan would fail the cell on its first kernel
        # trip; while the job's own plan is in scope it neither fires nor
        # counts, and it is back in place once the cell ends.
        process_plan = FaultPlan([FaultSpec("kernel", "fault", nth=1)])
        task = {"system": "GB", "app": "bfs", "graph": GRAPH,
                "sweep": False, "faults": "kernel:slow:ms=1:nth=3"}
        with faults.injected(process_plan):
            row = run_task(task)
            assert faults.active_plan() is process_plan
        assert row["status"] == OK
        assert process_plan.counts == {"kernel": 0, "alloc": 0}
        assert process_plan.fired == []


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

    def drain(self, *args, **kwargs):
        seen.append(self)
        return real_drain(self, *args, **kwargs)

    monkeypatch.setattr(QueueSupervisor, "drain", drain)
    return seen


def terminal_events(queue, job_id):
    """How many times the queue recorded ``job_id`` settling."""
    kinds = [e["kind"] for e in queue.events(job_id)]
    return sum(kinds.count(k) for k in ("done", "err", "dead"))


@pytest.mark.slow
class TestSupervisorDrills:
    """Real multi-process drills; each spawns 2 spawn-context workers."""

    def test_kill_and_requeue_byte_identical(self, isolated_grid,
                                             monkeypatch, tmp_path,
                                             drained):
        baseline = sequential_baseline(apps=("bfs",))

        monkeypatch.setenv("REPRO_FAULTS",
                           f"cell:kill@GB:bfs:{GRAPH}:attempt=1")
        results, line = run_grid(grid_tasks([GRAPH], ["bfs"]), workers=2,
                                 config=FAST, queue_path=tmp_path / "q.db")

        supervisor, = drained
        assert supervisor.stats["crashes"] >= 1
        assert supervisor.stats["requeued"] >= 1
        assert supervisor.stats["respawns"] >= 1
        assert "crashes" in line and "dead" not in line
        assert all(r.status == OK for r in results.values())
        assert snapshot_bytes() == baseline

        # The queue settled each task's job exactly once despite the chaos.
        queue = JobQueue(tmp_path / "q.db")
        jobs = queue.jobs()
        assert sorted(job.key for job in jobs) == \
            sorted(t.key for t in grid_tasks([GRAPH], ["bfs"]))
        assert all(terminal_events(queue, job.id) == 1 for job in jobs)
        queue.close()

    def test_poison_cell_is_quarantined(self, isolated_grid, monkeypatch,
                                        drained):
        monkeypatch.setenv("REPRO_FAULTS", f"cell:kill@LS:bfs:{GRAPH}")
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
        monkeypatch.setenv("REPRO_FAULTS",
                           f"cell:hang@SS:bfs:{GRAPH}:attempt=1")
        config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=2.0)
        # workers=1 would run in-process, where cell faults never strike; one
        # task spawns one worker either way.
        results, _line = run_grid(grid_tasks([GRAPH], ["bfs"],
                                             systems=("SS",)),
                                  workers=2, config=config)
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
        monkeypatch.setenv("REPRO_FAULTS", f"cell:kill@GB:bfs:{GRAPH}")
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
            self, isolated_grid, tmp_path, drained):
        tasks = grid_tasks([GRAPH], ["bfs"])
        argv = ["table2", "--graphs", GRAPH, "--apps", "bfs"]
        assert runner_main(argv + ["--save", str(tmp_path / "seq.json")]) \
            == 0
        experiments.clear_cache()

        # A killed run's queue: the first k cells settled, in-process.
        k = 2
        queue_path = tmp_path / "run.db"
        run_grid(tasks[:k], workers=1, config=FAST, queue_path=queue_path)
        experiments.clear_cache()
        drained.clear()

        assert runner_main(argv + [
            "--queue", str(queue_path), "--resume", "--workers", "2",
            "--save", str(tmp_path / "par.json")]) == 0

        supervisor, = drained
        assert supervisor.stats["jobs"] == len(tasks) - k
        assert supervisor.stats["recalled"] == k
        assert (tmp_path / "par.json").read_bytes() == \
            (tmp_path / "seq.json").read_bytes()
        queue = JobQueue(queue_path)
        assert sorted(job.key for job in queue.jobs()) == \
            sorted(t.key for t in tasks)
        queue.close()

    def test_inline_and_pool_drains_write_identical_cells_json(
            self, isolated_grid, tmp_path):
        # workers=1 runs in-process, workers=2 on spawned workers; the
        # snapshot bytes must not tell them apart.
        tasks = grid_tasks([GRAPH], ["bfs", "cc"])
        for workers in (1, 2):
            experiments.clear_cache()
            run_grid(tasks, workers=workers, config=FAST)
            experiments.save_results(str(tmp_path / f"w{workers}.json"))
        assert (tmp_path / "w1.json").read_bytes() == \
            (tmp_path / "w2.json").read_bytes()


@pytest.mark.slow
class TestRunnerServiceCLI:
    def test_workers_flag_matches_sequential(self, isolated_grid,
                                             capsys, monkeypatch,
                                             tmp_path):
        # Both runs drain an ephemeral queue under the temp dir, and
        # leave nothing behind there.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert runner_main(["table2", "--graphs", GRAPH, "--apps", "bfs",
                            "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        experiments.clear_cache()
        assert runner_main(["table2", "--graphs", GRAPH, "--apps",
                            "bfs"]) == 0
        assert capsys.readouterr().out == parallel_out
        assert list(tmp_path.iterdir()) == []

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
        monkeypatch.setattr(runner_module, "_prewarm_grid",
                            lambda *args, **kwargs: None)
        assert runner_main(["all"]) == 0
        assert seen == ["table1", "table2", "table3", "table4", "table5",
                        "figure2", "figure3", "validate"]
        assert "<validate>" in capsys.readouterr().out
