"""Drain the durable job queue, in this process or on supervised workers.

:class:`QueueSupervisor` owns a :class:`repro.service.queue.JobQueue`
and keeps leasing ready jobs until none remain open, either on
spawn-started workers (:mod:`repro.service.worker`) whose pipes it
multiplexes, or, with one worker, in this process.  Every study grid
runs this way: :func:`run_grid` submits its :class:`CellTask` list
(:func:`grid_tasks`) as jobs (to an ephemeral queue unless a path is
given) and drains them.  The queue is the grid's only durable record: a
killed run re-drains the same file.  The robustness contract, layer by
layer:

* **Worker dies / hangs** — a dead worker (SIGKILL, segfault, injected
  :class:`~repro.faults.FatalFault`) surfaces as pipe EOF or a torn
  message; a hung one blows its per-cell deadline or goes
  heartbeat-silent and is SIGKILLed first.  Either way it is reaped, a
  replacement spawns (not during a graceful drain), and the job's lease
  is *failed back* to the queue: requeued with exponential backoff, or
  dead-lettered (an ``ERR``/``DeadLetter`` cell) once ``max_attempts``
  leases have been burned — one poisonous cell cannot stall the pool.
* **Supervisor dies** — leases stop being renewed.  A restarted drain
  calls :meth:`~repro.service.queue.JobQueue.requeue_orphans` (it owns no
  workers, so every lease in the database is an orphan) and takes over;
  a concurrent queue *reader* instead relies on lease expiry.  Either
  way the lease's attempt count fences the dead supervisor's workers:
  their late results no longer match and cannot commit.
* **Exactly-once commit** — a result lands in the queue via
  :meth:`~repro.service.queue.JobQueue.complete` exactly once (state +
  owner + attempts guard); when the drain mirrors results into the
  experiment layer (``mirror_jobs``), each job's cell is seeded into the
  memo right after that fenced commit (or its dead-letter).
  ``cells.json`` is sorted by key, so it is byte-identical whatever the
  completion order.  A restarted drain recalls every job a predecessor
  already settled by replaying its stored result blob.
* **Admission control** — a job that survives the deadline and memory
  checks consults its system's circuit breaker via
  :meth:`~repro.service.breaker.BreakerBoard.admit`: an open breaker
  *defers* the job — pushes its ``not_before`` out and moves on, never
  dropping it and never running it on another system.  Breaker cooldowns
  are counted in admission decisions, and an admission whose lease is
  lost is handed back, so a deferred queue always earns a half-open probe
  and cannot livelock.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import errors, faults
from repro.core import experiments
from repro.core.experiments import CANCELLED, ERR, OK, OOM, CellResult
from repro.service import governor, heartbeat
from repro.service.breaker import BreakerBoard
from repro.service.config import (CANCEL_GRACE, DRAIN_GRACE,
                                  HEARTBEAT_TIMEOUT, ServiceConfig)
from repro.service.heartbeat import WorkerHealth
from repro.service.queue import DEAD, Job, JobQueue
from repro.service.worker import run_task, worker_main

#: Maintenance ticks (one per ``heartbeat_interval`` at most) between
#: per-job "heartbeat" progress events (with the default 0.25 s interval:
#: one event per in-flight job per ~10 s — enough for a progress stream,
#: cheap enough for SQLite).
HEARTBEAT_EVENT_TICKS = 40

#: Maintenance ticks between queue_meta status snapshots (worker RSS,
#: breaker states) — the ``repro-serve status --json`` feed.
STATUS_PUBLISH_TICKS = 8

#: Times a job may be deferred for "does not fit any worker's memory
#: budget" before it is leased and failed toward dead-letter instead —
#: an over-budget job must not livelock the drain.
MAX_MEM_DEFERRALS = 3

#: Task id of every PREBUILD (job ids are >= 1), so a worker dying
#: mid-prewarm hands no job back.
PREBUILD_ID = -1

#: Reap reasons that mean "the worker vanished without a verdict" — the
#: deaths the memory governor runs OOM forensics on.
_SILENT_DEATHS = ("worker died (pipe closed)", "worker died (torn message)",
                  "worker died (process exited)")


class QueueSupervisor:
    """Lease-execute-commit loop over a :class:`JobQueue`.

    Owns the worker pool (spawning, pipe multiplexing, heartbeat/deadline
    health checks, reaping, respawning) and the queue policy (leases,
    retry, dead-letter, admission).  It never raises for worker-level
    failures.  ``mirror_jobs`` (job ids) additionally mirrors those jobs'
    cells into the experiment memo as each one settles — the mode
    :func:`run_grid` uses so a queue-driven study still renders tables
    and writes ``cells.json``.  ``owner`` names this supervisor on its
    leases; it defaults to the pid and only needs overriding in tests.
    """

    def __init__(self, queue: JobQueue, workers: int,
                 config: Optional[ServiceConfig] = None,
                 mirror_jobs: Iterable[int] = (),
                 owner: Optional[str] = None):
        self.config = config if config is not None else \
            ServiceConfig.from_env()
        self.pool_size = max(1, int(workers))
        # Parsed in the supervisor purely to fail fast on malformed specs;
        # the plan itself acts inside the workers (who re-read the env).
        faults.plan_from_env()
        self.queue = queue
        self.owner = owner if owner is not None else f"pid:{os.getpid()}"
        self.stats: Dict[str, int] = {
            "spawned": 0, "respawns": 0, "crashes": 0, "prewarmed": 0,
            "prewarm_generated": 0, "mem_kills": 0, "jobs": 0,
            "reclaimed": 0, "completed": 0, "requeued": 0, "deferred": 0,
            "dead": 0, "stale": 0, "cancelled": 0, "oom_retried": 0,
            "oom_quarantined": 0, "mem_deferred": 0, "failed_back": 0,
            "recalled": 0,
        }
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: Dict[int, WorkerHealth] = {}
        self._next_worker_id = 0
        # Consecutive workers dead before their READY: a startup problem
        # (import error, bad environment), not a poisonous cell — abort
        # instead of respawning forever.
        self._early_deaths = 0
        #: Graceful-drain state: once draining, no new work dispatches,
        #: the loop exits when the last in-flight task settles, and past
        #: the drain deadline the rest are failed back.
        self._draining = False
        self._drain_deadline: Optional[float] = None
        #: job_id -> leased Job snapshot.
        self._inflight: Dict[int, Job] = {}
        self._breakers: Optional[BreakerBoard] = None
        #: job_id -> shard geometry for its post-OOM sharded retry.
        self._shard_retry: Dict[int, int] = {}
        #: job_id -> OOM kills so far (one buys the sharded retry).
        self._oom_kills: Dict[int, int] = {}
        #: job_id -> times deferred for not fitting the memory budget.
        self._mem_deferrals: Dict[int, int] = {}
        #: graph -> artifact manifest (or None), memoized per drain.
        self._manifests: Dict[str, Optional[dict]] = {}
        self._mirror_index: Set[int] = set(mirror_jobs)
        self._ticks = 0
        #: Monotonic instant before which :meth:`_tick` does nothing.
        self._next_tick = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def drain(self, inline: bool = False) -> Dict[str, int]:
        """Run until no job is queued or leased; returns queue counts.

        Safe to call against a queue a dead supervisor left behind (its
        leases are reclaimed first) and safe to re-run after this process
        is itself killed — that is the whole point.  ``inline=True`` runs
        the jobs in this process instead of on worker processes
        (:meth:`_run_inline`).
        """
        from repro.engine.registry import system_codes

        self._breakers = BreakerBoard(
            system_codes(), self.config.breaker_threshold,
            self.config.breaker_cooldown)
        reclaimed = self.queue.requeue_orphans()
        self.stats["reclaimed"] = len(reclaimed)

        self._seed_mirror()

        counts = self.queue.counts()
        open_count = self.stats["jobs"] = counts["queued"] + counts["leased"]
        if open_count and inline:
            self._run_inline()
        elif open_count:
            self._run_pool(min(self.pool_size, open_count))
        self._publish_status()
        return self.queue.counts()

    def describe(self) -> str:
        """One-line drain summary for the CLIs' stderr diagnostics."""
        s = self.stats
        parts = [f"{s['jobs']} jobs", f"{self.pool_size} workers"]
        for key in ("reclaimed", "prewarmed", "prewarm_generated",
                    "crashes", "requeued", "deferred", "dead",
                    "stale", "cancelled", "mem_kills", "oom_retried",
                    "oom_quarantined", "mem_deferred", "failed_back"):
            if s[key]:
                parts.append(f"{s[key]} {key}")
        if s["recalled"]:
            parts.append(f"{s['recalled']} cells recalled")
        return "queue: " + ", ".join(parts)

    def request_drain(self) -> None:
        """Stop taking new work; let in-flight tasks finish.

        Safe to call from a signal handler (it only sets flags): the
        event loop notices on its next pass, stops dispatching, and exits
        once the last in-flight task settles — or, after
        :data:`~repro.service.config.DRAIN_GRACE` seconds, fails the
        stragglers back to the queue.  Idempotent; the first call starts
        the grace clock.
        """
        if not self._draining:
            self._draining = True
            self._drain_deadline = time.monotonic() + DRAIN_GRACE

    def _run_inline(self) -> None:
        """The pool of one, in this process: ``run_grid``'s ``workers=1``.

        Leases and commits exactly like the pool, but runs each cell here
        through :func:`~repro.service.worker.run_task` — no worker, no
        heartbeat, no ``cell`` fault strike.  A
        :class:`~repro.faults.FatalFault` escapes with its job still
        leased; the next drain of the same queue reclaims that lease and
        re-runs the cell.
        """
        while self.queue.has_open_jobs():
            payload = self._next_assignment()
            if payload is None:  # every open job is backing off
                time.sleep(self.config.heartbeat_interval)
            else:
                self._task_done(payload["id"], run_task(payload))
            self._tick()

    # ------------------------------------------------------------------
    # Result mirroring
    # ------------------------------------------------------------------
    def _seed_mirror(self):
        """Recall already-terminal jobs before the loop starts.

        A restarted drain finds jobs a predecessor settled; each is
        replayed from its stored result blob (or its dead-letter) and
        counted as ``recalled``.
        """
        for job_id in sorted(self._mirror_index):
            job = self.queue.get(job_id)
            if job is None or job.state not in ("done", "err", "dead"):
                continue
            if job.result is not None:
                self._mirror(job_id, experiments.cell_from_row(job.result))
            else:  # dead-lettered without ever producing a row
                self._mirror(job_id, _dead_letter_cell(job))
            self.stats["recalled"] += 1

    def _mirror(self, job_id: int, result: CellResult):
        """Seed the memo with one settled job's cell.

        Called only once the queue has settled the job (a fenced
        ``complete`` or its dead-letter), so each job mirrors once.
        """
        if job_id in self._mirror_index:
            experiments.seed_results([result])

    # ------------------------------------------------------------------
    # Dispatch policy
    # ------------------------------------------------------------------
    def _next_assignment(self) -> Optional[dict]:
        """Lease the next dispatchable job; returns its RUN payload
        (``id``/``system``/``app``/``graph``/``sweep``/``attempt``), or
        None when nothing is dispatchable after all.  The job is in
        flight on return — a failed send reaps the worker and hands the
        job back via :meth:`_task_lost`."""
        while True:
            job = self.queue.peek_ready()
            if job is None:
                return None
            now = self.queue.clock()
            if job.deadline is not None and job.deadline <= now:
                # Budget spent while queued: settle as CANCELLED without
                # burning a worker on a job whose caller gave up on it —
                # still through lease -> complete, so a raced writer that
                # leased it first simply wins.
                leased = self.queue.lease(job.id, self.owner)
                if leased is not None:
                    self._settle(leased, _error_cell(
                        leased, CANCELLED, "Cancelled",
                        "deadline expired before dispatch"), "cancelled")
                continue
            verdict, fit_shard_rows = self._fit(job)
            if verdict == "no":
                self._defer_for_memory(job)
                continue
            # The breaker goes last, right before the lease, so an
            # admission (maybe the half-open probe) is always dispatched
            # or handed back.  An open breaker defers the job; every
            # admit() call charges the cooldown, so deferring earns the
            # probe.
            if not self._breakers.admit(job.system):
                self.queue.defer(
                    job.id,
                    note=f"circuit breaker open for {job.system}")
                self.stats["deferred"] += 1
                continue
            leased = self.queue.lease(job.id, self.owner)
            if leased is None:
                # Raced with another writer: hand the admission back
                # and pick again.
                self._breakers.release(job.system)
                continue
            self._inflight[leased.id] = leased
            payload = {"id": leased.id, "system": leased.system,
                       "app": leased.app, "graph": leased.graph,
                       "sweep": bool(leased.params.get("sweep")),
                       "attempt": leased.attempts}
            if leased.deadline is not None:
                # The cell's budget is the job's *remaining* budget,
                # still capped by the static per-cell deadline.
                payload["deadline_seconds"] = min(
                    self.config.cell_deadline, leased.deadline - now)
            if leased.id in self._shard_retry:
                payload["shard_rows"] = self._shard_retry[leased.id]
            elif fit_shard_rows is not None:
                payload["shard_rows"] = fit_shard_rows
            if leased.params.get("faults"):
                payload["faults"] = leased.params["faults"]
            return payload

    def _fit(self, job: Job):
        """Memory-governor admission: (verdict, shard_rows_for_dispatch).

        With a budget configured and artifact metadata available, a cell
        estimated over budget monolithically but fitting shard-wise is
        dispatched sharded up front (``shard_rows`` travels in the
        payload) instead of waiting to OOM; one estimated over budget
        even sharded reports ``"no"``.
        """
        budget = self.config.mem_budget_bytes
        if not budget:
            return "fits", None
        manifest = self._manifest(job.graph)
        verdict = governor.fit_verdict(manifest, budget)
        if verdict == "sharded":
            return verdict, int(manifest["shard_rows"])
        return verdict, None

    def _manifest(self, graph: str) -> Optional[dict]:
        """The graph's artifact manifest (metadata only), memoized; None
        when the store is off or has not published this graph."""
        if graph not in self._manifests:
            from repro.graphs import artifacts

            manifest = None
            store = artifacts.store_from_env()
            if store is not None:
                for variant in ("dir", "sym"):
                    try:
                        manifest = store.read_manifest(graph, variant)
                        break
                    except artifacts.ArtifactError:
                        continue
            self._manifests[graph] = manifest
        return self._manifests[graph]

    def _defer_for_memory(self, job: Job) -> None:
        """Defer an over-budget job, or fail it toward dead-letter after
        :data:`MAX_MEM_DEFERRALS` — it must not livelock the drain."""
        deferrals = self._mem_deferrals.get(job.id, 0) + 1
        self._mem_deferrals[job.id] = deferrals
        if deferrals <= MAX_MEM_DEFERRALS:
            self.queue.defer(job.id, note="exceeds worker memory budget")
            self.stats["mem_deferred"] += 1
            return
        leased = self.queue.lease(job.id, self.owner)
        if leased is not None:
            self._fail_back(leased, "exceeds worker memory budget")

    # ------------------------------------------------------------------
    # Settling: every commit goes through _settle, every give-back
    # through _fail_back
    # ------------------------------------------------------------------
    def _settle(self, job: Job, result, stat: str) -> None:
        """Commit one leased job's result (a cell row or a
        :class:`CellResult`) through the fenced ``complete``, count it
        under ``stat`` and mirror it.  When the fence refuses, the queue
        already settled this job (another supervisor took it over after
        our lease expired): count ``stale`` and commit nothing."""
        cell = result if isinstance(result, CellResult) else None
        row = result if cell is None else experiments.cell_to_row(cell)
        if not self.queue.complete(job.id, self.owner, job.attempts, row):
            self.stats["stale"] += 1
            return
        self.stats[stat] += 1
        self._mirror(job.id, cell if cell is not None
                     else experiments.cell_from_row(row))

    def _fail_back(self, job: Job, reason: str) -> bool:
        """Fail one leased job back to the queue; when that spends its
        attempt budget, count and mirror the dead letter.  Returns True
        when the job was dead-lettered."""
        if self.queue.fail(job.id, self.owner, job.attempts,
                           reason) != DEAD:
            return False
        self.stats["dead"] += 1
        self._mirror(job.id, _dead_letter_cell(self.queue.get(job.id)))
        return True

    def _task_done(self, job_id: int, row: dict):
        """A worker (or the inline loop) returned ``job_id``'s cell row."""
        job = self._inflight.pop(job_id, None)
        if job is None:
            return
        self._breakers.record(job.system, ok=row.get("status") != ERR)
        self._settle(job, row, "completed")

    def _task_lost(self, job_id: int, reason: str, oom: bool = False):
        """The worker holding ``job_id`` died or hung; reclaim the job.

        ``oom=True`` marks a loss the memory governor attributed to an
        out-of-memory kill (budget breach, or silent death with a rising
        RSS history): the job is retried once in sharded mode before it
        is quarantined as ``OOM``."""
        job = self._inflight.pop(job_id, None)
        if job is None:
            return  # a prebuild (negative id); the respawn re-warms
        self._breakers.record(job.system, ok=False)
        if oom:
            kills = self._oom_kills.get(job_id, 0) + 1
            self._oom_kills[job_id] = kills
            if kills == 1:
                # First OOM kill buys one sharded retry: the requeued
                # job redispatches with an O(shard) working set (unless
                # its attempt budget ran out first).
                from repro.sparse.blocked import shard_rows_from_env

                self._shard_retry[job_id] = shard_rows_from_env()
                if not self._fail_back(job, reason):
                    self.stats["oom_retried"] += 1
                return
            # Sharded retry OOMed too: quarantine as an ``OOM`` cell —
            # a *committed result* (the paper's own status for work that
            # cannot fit), not a dead-letter.
            self._settle(job, _error_cell(
                job, OOM, "WorkerOOM",
                f"worker OOM-killed {kills} time(s), including one sharded "
                f"retry; last failure: {reason}", attempts=kills),
                "oom_quarantined")
            return
        if not self._fail_back(job, reason):
            self.stats["requeued"] += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _tick(self):
        """Lease renewal, progress events and status snapshots — at most
        once per ``heartbeat_interval`` of monotonic time, however often
        the loop wakes."""
        now = time.monotonic()
        if now < self._next_tick:
            return
        self._next_tick = now + self.config.heartbeat_interval
        self._ticks += 1
        emit = self._ticks % HEARTBEAT_EVENT_TICKS == 0
        for job_id in list(self._inflight):
            self.queue.renew(job_id, self.owner)
            if emit:
                self.queue.record(job_id, "heartbeat",
                                  {"owner": self.owner})
        if self._ticks % STATUS_PUBLISH_TICKS == 0:
            self._publish_status()

    def _publish_status(self):
        """Snapshot worker RSS/state and breaker states into queue_meta —
        the machine-readable feed ``repro-serve status --json`` reports
        from any process holding the queue path."""
        self.queue.set_meta("workers", [
            {"worker_id": h.worker_id, "ready": h.ready, "rss": h.rss,
             "task": h.task_id}
            for h in self._workers.values()])
        if self._breakers is not None:
            self.queue.set_meta("breakers", self._breakers.states())
        self.queue.set_meta("supervisor", {
            "owner": self.owner, "draining": self._draining,
            "stats": {k: v for k, v in self.stats.items() if v}})

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _run_pool(self, initial_workers: int) -> None:
        """Spawn the pool and run the event loop to completion."""
        try:
            for _ in range(max(1, initial_workers)):
                self._spawn()
            self._event_loop()
        finally:
            self._shutdown()

    def _spawn(self):
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main, args=(child_conn, worker_id),
            name=f"repro-worker-{worker_id}", daemon=True)
        process.start()
        child_conn.close()  # parent keeps one end only, so EOF is real
        self._workers[worker_id] = WorkerHealth(
            worker_id, process, parent_conn,
            warmup=deque(self.queue.open_graphs()))
        self.stats["spawned"] += 1

    def _shutdown(self):
        for handle in list(self._workers.values()):
            try:
                handle.conn.send((heartbeat.STOP,))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for handle in list(self._workers.values()):
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5)
            handle.conn.close()
        self._workers.clear()

    def _reap(self, handle: WorkerHealth, reason: str, oom: bool = False):
        """Kill + account a dead/hung worker; hand its task back.

        ``oom=True`` marks a memory-governor kill outright; a *silent*
        death (SIGKILL leaves only a torn pipe) is additionally run
        through :func:`repro.service.governor.looks_like_oom` — the
        kernel's OOM killer looks exactly like any other SIGKILL except
        for the rising RSS history the heartbeats recorded.  No
        replacement spawns during a graceful drain: it would never get
        work.
        """
        if not oom and reason in _SILENT_DEATHS:
            oom = governor.looks_like_oom(handle.rss_history,
                                          self.config.mem_budget_bytes)
            if oom:
                reason = f"{reason}; RSS history reads as OOM kill"
        handle.process.kill()
        handle.process.join(timeout=5)
        try:
            handle.conn.close()
        except OSError:
            pass
        del self._workers[handle.worker_id]
        self.stats["crashes"] += 1
        if oom:
            self.stats["mem_kills"] += 1
        if handle.ready:
            self._early_deaths = 0
        else:
            self._early_deaths += 1
            if self._early_deaths >= 3:
                raise errors.ReproError(
                    f"{self._early_deaths} workers in a row died before "
                    f"initializing (last: {reason}); the worker "
                    "environment is broken — aborting instead of "
                    "respawning forever")

        if handle.task_id is not None:
            self._task_lost(handle.task_id, reason, oom=oom)

        if not self._draining and self.queue.has_open_jobs():
            self._spawn()
            self.stats["respawns"] += 1

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _event_loop(self):
        tick = self.config.heartbeat_interval
        while self.queue.has_open_jobs():
            if self._draining and not self._inflight:
                break  # drained: nothing in flight, nothing new starts
            conns = {h.conn: h for h in self._workers.values()}
            for conn in _connection_wait(list(conns), timeout=tick):
                handle = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._reap(handle, "worker died (pipe closed)")
                    continue
                except Exception:
                    # A SIGKILL mid-write leaves a torn, unpicklable
                    # message; treat it exactly like a death.
                    self._reap(handle, "worker died (torn message)")
                    continue
                self._handle(handle, message)
            self._tick()
            self._check_health()
            if self._draining:
                if time.monotonic() > self._drain_deadline:
                    # Grace expired: fail every in-flight job back (requeue
                    # or dead-letter) so no lease is left dangling.
                    for job in self._inflight.values():
                        self._fail_back(job, "drain grace expired")
                        self.stats["failed_back"] += 1
                    self._inflight.clear()
                    break
                continue  # no new dispatches while draining
            self._dispatch_idle()

    def _handle(self, handle: WorkerHealth, message: tuple):
        tag = message[0]
        handle.beat()
        if tag == heartbeat.READY:
            handle.ready = True
            self._early_deaths = 0
        elif tag == heartbeat.RESULT:
            _tag, _wid, task_id, row = message
            self._task_done(task_id, row)
            handle.finished()
        elif tag == heartbeat.PREBUILT:
            handle.finished()
            self.stats["prewarmed"] += 1
            # 4th element: did the worker actually run a generator, or did
            # the artifact store satisfy the warm?
            if message[3]:
                self.stats["prewarm_generated"] += 1
        elif tag == heartbeat.HB:
            handle.sample_rss(message[2])
        # START carries no state beyond proof of life.

    def _dispatch_idle(self):
        # Only ready, idle workers cost a queue read; the first one that
        # finds nothing dispatchable ends the pass.
        for handle in [h for h in self._workers.values()
                       if h.ready and h.task_id is None]:
            if handle.warmup:
                # A warm-up goes out only while a job is dispatchable.
                if self.queue.peek_ready() is None:
                    return
                self._dispatch_prebuild(handle)
            else:
                payload = self._next_assignment()
                if payload is None:
                    return
                self._send_run(handle, payload)

    def _dispatch_prebuild(self, handle: WorkerHealth):
        graph = handle.warmup.popleft()
        handle.started(PREBUILD_ID)
        try:
            handle.conn.send((heartbeat.PREBUILD,
                              {"id": PREBUILD_ID, "graph": graph}))
        except (OSError, ValueError, BrokenPipeError):
            self._reap(handle, "worker died (send failed)")

    def _send_run(self, handle: WorkerHealth, payload: dict):
        # A job-propagated deadline becomes the hard-kill backstop:
        # cooperative cancellation gets the budget plus the grace window
        # to exit cleanly before the watchdog falls back to SIGKILL.
        deadline = None
        if payload.get("deadline_seconds") is not None:
            deadline = payload["deadline_seconds"] + CANCEL_GRACE
        handle.started(payload["id"], deadline=deadline)
        try:
            handle.conn.send((heartbeat.RUN, payload))
        except (OSError, ValueError, BrokenPipeError):
            self._reap(handle, "worker died (send failed)")

    def _check_health(self):
        budget = self.config.mem_budget_bytes
        for handle in list(self._workers.values()):
            if budget and handle.rss > budget:
                self._reap(handle, "memory budget exceeded "
                           f"({handle.rss} > {budget} bytes)", oom=True)
            elif handle.over_deadline(self.config.cell_deadline):
                self._reap(handle, "cell deadline exceeded")
            elif handle.stale(HEARTBEAT_TIMEOUT):
                self._reap(handle, "heartbeat lost")
            elif not handle.process.is_alive():
                self._reap(handle, "worker died (process exited)")


# ----------------------------------------------------------------------
# The study grid as jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellTask:
    """One schedulable unit: a (system, app, graph) cell and its options."""

    #: Position in the canonical task list (the submission order).
    index: int
    system: str
    app: str
    graph: str
    #: Record the Figure 2 thread sweep alongside the 56-thread result.
    sweep: bool = False

    @property
    def key(self) -> Tuple[str, str, str]:
        """The experiment-memo key this task computes."""
        return (self.system, self.app, self.graph)


def grid_tasks(graphs: Sequence[str], apps: Sequence[str],
               systems: Optional[Sequence[str]] = None,
               sweep_apps: Sequence[str] = (),
               sweep_graphs: Sequence[str] = ()) -> List[CellTask]:
    """The canonical task list for a grid: app-major, then system, graph.

    The main grid iterates exactly the order the sequential Table II loop
    first touches cells in, and jobs are submitted (so dispatched) in
    that order.  The ``sweep_apps`` ×
    ``sweep_graphs`` corner (Figure 2's panel) is marked ``sweep=True``
    for the GB/LS systems so thread sweeps land in the same run; sweep
    cells outside the main grid (Figure 2 renders its default apps even
    under an ``--apps`` subset, like the sequential path) are appended
    after it, preserving one task per (system, app, graph) key.
    """
    from repro.core.systems import SYSTEMS

    systems = tuple(systems) if systems is not None else tuple(SYSTEMS)
    sweep_flags: Dict[Tuple[str, str, str], bool] = {}
    order: List[Tuple[str, str, str]] = []

    def _add(system, app, graph, sweep):
        key = (system, app, graph)
        if key not in sweep_flags:
            order.append(key)
        sweep_flags[key] = sweep_flags.get(key, False) or sweep

    for app in apps:
        for system in systems:
            for graph in graphs:
                _add(system, app, graph, False)
    for app in sweep_apps:
        for system in ("GB", "LS"):
            for graph in sweep_graphs:
                _add(system, app, graph, True)
    return [CellTask(index, system, app, graph,
                     sweep=sweep_flags[(system, app, graph)])
            for index, (system, app, graph) in enumerate(order)]


def run_grid(tasks: Sequence[CellTask], workers: int,
             config: Optional[ServiceConfig] = None, queue_path=None
             ) -> Tuple[Dict[Tuple[str, str, str], CellResult], str]:
    """Run a study grid as queue jobs; ``workers=1`` drains in-process.

    Returns ``({key: CellResult}, describe line)`` covering every task.
    Cells the memo already holds (``--load``) are recalled, not re-run.
    The rest are submitted in canonical order as idempotent
    ``study:<system>:<app>:<graph>`` jobs to ``JobQueue(queue_path)`` — a
    killed run drains it again and recalls the jobs it settled — or, with
    no path, to a queue in a temporary directory removed on return.  Each
    cell mirrors into the memo as its job settles, so ``cells.json`` is
    byte-identical at every worker count.  Never raises for worker-level
    failures: a cell whose workers keep dying commits as an
    ``ERR``/``DeadLetter`` cell.
    """
    tasks = list(tasks)
    memo = experiments.all_results()
    pending = []
    for task in tasks:
        cached = memo.get(task.key)
        # A sweep task also needs the recorded thread sweep — unless the
        # cell did not end ok, in which case there is nothing to sweep.
        if cached is None or (task.sweep and not cached.thread_sweep
                              and cached.status == OK):
            pending.append(task)
    with contextlib.ExitStack() as stack:
        if queue_path is None:
            queue_path = os.path.join(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-grid-")),
                "grid.db")
        queue = JobQueue(queue_path)
        stack.callback(queue.close)
        job_ids = [
            queue.submit(
                task.system, task.app, task.graph,
                params={"sweep": True} if task.sweep else {},
                tenant="study",
                idem_key=f"study:{task.system}:{task.app}:{task.graph}").id
            for task in pending]
        supervisor = QueueSupervisor(queue, workers, config,
                                     mirror_jobs=job_ids)
        supervisor.stats["recalled"] = len(tasks) - len(pending)
        supervisor.drain(inline=workers == 1)
    results = experiments.all_results()
    return ({task.key: results[task.key] for task in tasks},
            supervisor.describe())


def _error_cell(job: Job, status: str, kind: str, message: str,
                attempts: Optional[int] = None) -> CellResult:
    """The committed record for a job that produced no cell of its own:
    cancelled before dispatch, OOM-killed after its sharded retry, or
    dead-lettered."""
    return CellResult(
        system=job.system, app=job.app, graph=job.graph, status=status,
        seconds=None, mrss_gb=0.0, counters={}, answer=None,
        thread_sweep={},
        attempts=job.attempts if attempts is None else attempts,
        error={"type": kind, "message": message, "traceback": ""})


def _dead_letter_cell(job: Job) -> CellResult:
    """The mirrored record for a job whose attempt budget ran out."""
    return _error_cell(
        job, ERR, "DeadLetter",
        f"job {job.id} dead-lettered after {job.attempts} attempt(s); "
        f"last failure: {job.note or 'unknown'}")
