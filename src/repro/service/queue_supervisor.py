"""Drain the durable job queue through the supervised worker pool.

:class:`QueueSupervisor` is the work source for
:class:`repro.service.supervisor.WorkerPool`: it owns a
:class:`repro.service.queue.JobQueue` and keeps leasing ready jobs until
none remain open.  A study grid runs the same way — :func:`run_grid`
submits its cells as jobs (to an ephemeral queue unless a path is given)
and drains them.  The robustness contract, layer by layer:

* **Worker dies / hangs** — the pool reaps it (pipe EOF, heartbeat
  silence, blown deadline), and the job's lease is *failed back* to the
  queue: requeued with exponential backoff, or dead-lettered (an
  ``ERR``/``DeadLetter`` cell) once ``max_attempts`` leases have been
  burned — one poisonous cell cannot stall the pool.
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
  memo and appended to the journal right after that fenced commit (or
  its dead-letter), in completion order.  ``cells.json`` is sorted by
  key, so it is byte-identical to a sequential clean run's.  The queue
  commit happens *first*; a crash between the two is repaired on
  restart by replaying the stored result blob of every terminal job
  whose key the memo lacks.
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
import os
import tempfile
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.core import experiments
from repro.core.experiments import CANCELLED, ERR, OK, OOM, CellResult
from repro.service import governor
from repro.service.breaker import BreakerBoard
from repro.service.config import ServiceConfig
from repro.service.queue import DEAD, Job, JobQueue
from repro.service.supervisor import CellTask, WorkerPool

#: Event-loop ticks between per-job "heartbeat" progress events (with the
#: default 0.25 s heartbeat interval: one event per in-flight job per
#: ~10 s — enough for a progress stream, cheap enough for SQLite).
HEARTBEAT_EVENT_TICKS = 40

#: Event-loop ticks between queue_meta status snapshots (worker RSS,
#: breaker states) — the ``repro-serve status --json`` feed.
STATUS_PUBLISH_TICKS = 8

#: Times a job may be deferred for "does not fit any worker's memory
#: budget" before it is leased and failed toward dead-letter instead —
#: an over-budget job must not livelock the drain.
MAX_MEM_DEFERRALS = 3


class QueueSupervisor(WorkerPool):
    """Lease-execute-commit loop over a :class:`JobQueue`.

    ``mirror_jobs`` (job ids) additionally mirrors those jobs' cells into
    the experiment memo and ``journal`` (default: the attached one) as
    each one settles — the mode :func:`run_grid` uses so a queue-driven
    study still renders tables and writes ``cells.json``.  ``owner``
    names this supervisor on its leases; it defaults to the pid and only
    needs overriding in tests.
    """

    def __init__(self, queue: JobQueue, workers: int,
                 config: Optional[ServiceConfig] = None,
                 mirror_jobs: Iterable[int] = (),
                 journal=None, owner: Optional[str] = None):
        super().__init__(workers, config)
        self.queue = queue
        self.owner = owner if owner is not None else f"pid:{os.getpid()}"
        self.stats.update({
            "jobs": 0, "reclaimed": 0, "completed": 0, "requeued": 0,
            "deferred": 0, "dead": 0, "stale": 0,
            "cancelled": 0, "oom_retried": 0, "oom_quarantined": 0,
            "mem_deferred": 0, "failed_back": 0,
        })
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
        self._journal = journal if journal is not None else \
            experiments.get_journal()
        self._ticks = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def drain(self) -> Dict[str, int]:
        """Run until no job is queued or leased; returns queue counts.

        Safe to call against a queue a dead supervisor left behind (its
        leases are reclaimed first) and safe to re-run after this process
        is itself killed — that is the whole point.
        """
        from repro.engine.registry import system_codes

        self._breakers = BreakerBoard(
            system_codes(), self.config.breaker_threshold,
            self.config.breaker_cooldown)
        reclaimed = self.queue.requeue_orphans()
        self.stats["reclaimed"] = len(reclaimed)

        self._seed_mirror()

        open_count = sum(
            1 for job in self.queue.jobs(limit=1_000_000)
            if job.state in ("queued", "leased"))
        self.stats["jobs"] = open_count
        if open_count:
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
        return "queue: " + ", ".join(parts)

    # ------------------------------------------------------------------
    # Result mirroring
    # ------------------------------------------------------------------
    def _seed_mirror(self):
        """Mirror already-terminal jobs before the loop starts.

        A restarted drain finds jobs a predecessor committed to the queue
        but maybe not to the journal (the crash window between the two
        commits).  Each terminal job whose key the memo lacks is replayed
        from its stored result blob; a key the memo already holds (a
        resumed journal recalled it) is not journaled twice.
        """
        memo = experiments.all_results()
        for job_id in sorted(self._mirror_index):
            job = self.queue.get(job_id)
            if job is None or job.state not in ("done", "err", "dead") \
                    or job.key in memo:
                continue
            if job.result is not None:
                self._mirror(job_id, experiments.cell_from_row(job.result))
            else:  # dead-lettered without ever producing a row
                self._mirror(job_id, _dead_letter_cell(job))

    def _mirror(self, job_id: int, result: CellResult):
        """Seed the memo and journal with one settled job's cell.

        Called only once the queue has settled the job (a fenced
        ``complete`` or its dead-letter), so each job mirrors once.
        """
        if job_id in self._mirror_index:
            experiments.seed_results([result])
            if self._journal is not None:
                self._journal.append(result)

    # ------------------------------------------------------------------
    # Work-source hooks
    # ------------------------------------------------------------------
    def _finished(self) -> bool:
        return not self.queue.has_open_jobs()

    def _work_remains(self) -> bool:
        return self.queue.has_open_jobs()

    def _has_dispatchable(self) -> bool:
        return self.queue.peek_ready() is not None

    def _graphs_to_warm(self):
        return self.queue.open_graphs()

    def _next_assignment(self, worker_id: int) -> Optional[dict]:
        while True:
            job = self.queue.peek_ready()
            if job is None:
                return None
            now = self.queue.clock()
            if job.deadline is not None and job.deadline <= now:
                # Budget spent while queued: settle as CANCELLED without
                # burning a worker on a job whose caller gave up on it.
                self._cancel_before_dispatch(job)
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

    def _cancel_before_dispatch(self, job: Job) -> None:
        """Settle an already-over-deadline queued job as ``CANCELLED``.

        Still goes through lease -> complete so the commit is fenced like
        any other: a raced writer that leased it first simply wins.
        """
        leased = self.queue.lease(job.id, self.owner)
        if leased is None:
            return
        cell = _cancelled_cell(leased, "deadline expired before dispatch")
        row = experiments.cell_to_row(cell)
        if self.queue.complete(job.id, self.owner, leased.attempts, row):
            self.stats["cancelled"] += 1
            self._mirror(job.id, cell)

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

    def _defer_for_memory(self, job: Job) -> bool:
        """Defer an over-budget job, or fail it toward dead-letter after
        :data:`MAX_MEM_DEFERRALS` — it must not livelock the drain.
        Returns True when the job was deferred (caller keeps scanning)."""
        deferrals = self._mem_deferrals.get(job.id, 0) + 1
        self._mem_deferrals[job.id] = deferrals
        if deferrals <= MAX_MEM_DEFERRALS:
            self.queue.defer(job.id, note="exceeds worker memory budget")
            self.stats["mem_deferred"] += 1
            return True
        leased = self.queue.lease(job.id, self.owner)
        if leased is not None:
            self._fail_back(job.id, leased.attempts,
                            "exceeds worker memory budget")
        return False

    def _fail_back(self, job_id: int, attempts: int, reason: str) -> bool:
        """Fail one leased job back to the queue; when that spends its
        attempt budget, count and mirror the dead letter.  Returns True
        when the job was dead-lettered."""
        if self.queue.fail(job_id, self.owner, attempts, reason) != DEAD:
            return False
        self.stats["dead"] += 1
        dead = self.queue.get(job_id)
        if dead is not None:
            self._mirror(job_id, _dead_letter_cell(dead))
        return True

    def _task_done(self, job_id: int, row: dict):
        job = self._inflight.pop(job_id, None)
        if job is None:
            return
        self._breakers.record(job.system, ok=row.get("status") != ERR)
        if self.queue.complete(job_id, self.owner, job.attempts, row):
            self.stats["completed"] += 1
            self._mirror(job_id, experiments.cell_from_row(row))
        else:
            # Lease fencing: the queue already settled this job (another
            # supervisor took it over after our lease expired) — this
            # result must not commit a second time.
            self.stats["stale"] += 1

    def _task_lost(self, job_id: int, reason: str, oom: bool = False):
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
                if not self._fail_back(job_id, job.attempts, reason):
                    self.stats["oom_retried"] += 1
                return
            # Sharded retry OOMed too: quarantine as an ``OOM`` cell —
            # a *committed result* (the paper's own status for work that
            # cannot fit), not a dead-letter.
            cell = _worker_oom_cell(job, kills, reason)
            row = experiments.cell_to_row(cell)
            if self.queue.complete(job_id, self.owner, job.attempts, row):
                self.stats["oom_quarantined"] += 1
                self._mirror(job_id, cell)
            else:
                self.stats["stale"] += 1
            return
        if not self._fail_back(job_id, job.attempts, reason):
            self.stats["requeued"] += 1

    def _tick(self):
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
            {"worker_id": h.worker_id, "ready": h.ready,
             "rss": h.health.rss, "task": h.health.task_id}
            for h in self._workers.values()])
        if self._breakers is not None:
            self.queue.set_meta("breakers", self._breakers.states())
        self.queue.set_meta("supervisor", {
            "owner": self.owner, "draining": self._draining,
            "stats": {k: v for k, v in self.stats.items() if v}})

    def _drain_timeout(self):
        """Drain grace expired: fail every in-flight job back to the
        queue (requeue with backoff, or dead-letter) so no lease is left
        dangling when the process exits."""
        for job_id in list(self._inflight):
            job = self._inflight.pop(job_id)
            self._fail_back(job_id, job.attempts, "drain grace expired")
            self.stats["failed_back"] += 1


def run_grid(tasks: Sequence[CellTask], workers: int,
             config: Optional[ServiceConfig] = None, queue_path=None,
             journal=None
             ) -> Tuple[Dict[Tuple[str, str, str], CellResult], str]:
    """Run a study grid as queue jobs on the supervised worker pool.

    Returns ``({key: CellResult}, describe line)`` covering every task.
    Cells the experiment memo already satisfies (a resumed journal) are
    recalled, not re-run, exactly like the sequential path.  The rest are
    submitted in canonical order as idempotent
    ``study:<system>:<app>:<graph>`` jobs to ``JobQueue(queue_path)`` — a
    durable queue a killed run can be re-invoked against — or, with no
    path, to a queue in a temporary directory removed on return.  Each
    cell mirrors into the memo and ``journal`` (default: the attached
    one) as its job settles; ``cells.json`` is sorted by key, so it is
    byte-identical to a sequential run's.  Never raises for worker-level
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
                                     mirror_jobs=job_ids, journal=journal)
        supervisor.drain()
    line = supervisor.describe()
    if len(pending) < len(tasks):
        line += f", {len(tasks) - len(pending)} recalled"
    results = experiments.all_results()
    return {task.key: results[task.key] for task in tasks}, line


def _cancelled_cell(job: Job, reason: str) -> CellResult:
    """The committed record for a job cancelled before dispatch (its
    deadline expired while it sat queued) — no partial trace exists."""
    return CellResult(
        system=job.system, app=job.app, graph=job.graph,
        status=CANCELLED, seconds=None, mrss_gb=0.0, counters={},
        answer=None, thread_sweep={}, attempts=job.attempts,
        error={"type": "Cancelled", "message": reason, "traceback": ""})


def _worker_oom_cell(job: Job, kills: int, reason: str) -> CellResult:
    """The committed record for a job whose workers were OOM-killed even
    after the sharded retry."""
    return CellResult(
        system=job.system, app=job.app, graph=job.graph,
        status=OOM, seconds=None, mrss_gb=0.0, counters={}, answer=None,
        thread_sweep={}, attempts=kills,
        error={"type": "WorkerOOM",
               "message": f"worker OOM-killed {kills} time(s), including "
                          f"one sharded retry; last failure: {reason}",
               "traceback": ""})


def _dead_letter_cell(job: Job) -> CellResult:
    """The mirrored record for a job whose attempt budget ran out."""
    return CellResult(
        system=job.system, app=job.app, graph=job.graph,
        status=ERR, seconds=None, mrss_gb=0.0, counters={}, answer=None,
        thread_sweep={}, attempts=job.attempts,
        error={"type": "DeadLetter",
               "message": f"job {job.id} dead-lettered after "
                          f"{job.attempts} attempt(s); last failure: "
                          f"{job.note or 'unknown'}",
               "traceback": ""})
