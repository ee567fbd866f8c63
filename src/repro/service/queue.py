"""Durable SQLite-WAL job queue: crash-safe leases, retry/backoff, tenants.

The supervised worker pool (:mod:`repro.service.supervisor`) survives
*worker* deaths; :class:`JobQueue` keeps the task list itself in a SQLite
database, so work can be submitted, deduplicated, and retried across
process lifetimes.  The queue is the only write-ahead log: every study
grid drains one, and a killed run resumes by draining it again.

* **Jobs** are ``graph x app x system x params`` payloads with a tenant,
  a priority, and an optional idempotency key — resubmitting the same key
  returns the existing job (whatever its state) instead of duplicating
  work across supervisor restarts.
* **State machine** ``queued -> leased -> done | err | dead``.  ``done``
  holds a committed result row (cell status ``ok``/``TO``/``OOM``);
  ``err`` holds a result row whose cell ended ``ERR`` (the harness
  captured the exception); ``dead`` is the dead-letter state for a job
  whose *workers* kept dying — after ``max_attempts`` leases it stops
  being retried but remains visible (``repro-serve status``), never
  silently dropped.
* **Crash-safe leases.**  A dispatched job carries a lease (owner +
  deadline).  The supervisor renews leases while its worker heartbeats;
  a supervisor or worker killed mid-job simply stops renewing, the lease
  expires, and :meth:`expire_leases` (or a restarted supervisor's
  :meth:`requeue_orphans` takeover) requeues the job with exponential
  backoff plus deterministic jitter.  The lease's ``attempts`` counter
  doubles as a fencing token: a result from a worker whose lease was
  already expired and re-issued is rejected by :meth:`complete`, so a
  job's result commits **exactly once** no matter how many times its
  workers or supervisors died.
* **Tenant admission control.**  ``REPRO_TENANT_MAX_ACTIVE`` caps each
  tenant's open (queued + leased) jobs; an over-cap submission raises
  :class:`repro.errors.AdmissionDenied` (HTTP 429 in the front-end)
  instead of letting one tenant starve the pool.
* **Torn-tail durability.**  The database opens with ``journal_mode=WAL``
  and ``synchronous=NORMAL``: a process killed mid-append loses at most
  the uncommitted tail of the WAL, and SQLite's checksummed frames
  recover the longest valid prefix on the next open (drill-tested in
  ``tests/test_jobqueue.py``).  A power loss may also drop the last
  commits; those cells simply run again on resume, deterministically.

Progress is observable: every transition appends to a ``job_events``
table (``submitted``/``leased``/``deferred``/``requeued``/``heartbeat``/
``done``/``err``/``dead``), and the supervisor adds throttled heartbeat
events plus an OpEvent-derived counter summary on completion, which the
HTTP API streams via ``GET /jobs/<id>/events?since=N``.
"""

from __future__ import annotations

import contextlib
import json
import numbers
import os
import sqlite3
import time
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro import errors
from repro.service.config import QueueConfig

#: Job states (the queue-level state machine).
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
ERR = "err"
DEAD = "dead"

STATES = (QUEUED, LEASED, DONE, ERR, DEAD)

#: States with work still owed to the job.
OPEN_STATES = (QUEUED, LEASED)

#: States a job never leaves.
TERMINAL_STATES = (DONE, ERR, DEAD)

#: Version stamp of the jobs schema (rejected when mismatched).  v2 added
#: the ``deadline`` column (absolute wall-clock budget for deadline
#: propagation).
QUEUE_SCHEMA = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS queue_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    idem_key TEXT UNIQUE,
    tenant TEXT NOT NULL,
    system TEXT NOT NULL,
    app TEXT NOT NULL,
    graph TEXT NOT NULL,
    params TEXT NOT NULL,
    priority INTEGER NOT NULL,
    state TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    max_attempts INTEGER NOT NULL,
    lease_owner TEXT,
    lease_deadline REAL,
    deadline REAL,
    not_before REAL NOT NULL,
    note TEXT,
    result TEXT,
    created REAL NOT NULL,
    updated REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_ready
    ON jobs(state, not_before, priority, id);
CREATE INDEX IF NOT EXISTS jobs_tenant ON jobs(tenant, state);
CREATE TABLE IF NOT EXISTS job_events (
    job_id INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    ts REAL NOT NULL,
    kind TEXT NOT NULL,
    detail TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""


def backoff_seconds(job_id: int, attempt: int, base: float,
                    cap: float) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    ``base * 2^(attempt-1)`` capped at ``cap``, stretched by a jitter
    factor in ``[1, 1.5)`` drawn from ``crc32(job_id:attempt)`` — jittered
    so requeued jobs do not stampede, deterministic so drills and tests
    replay identically (no wall-clock or RNG state involved).
    """
    delay = min(cap, base * (2.0 ** max(0, attempt - 1)))
    frac = zlib.crc32(f"{job_id}:{attempt}".encode()) / 2.0 ** 32
    return delay * (1.0 + 0.5 * frac)


def discard(path) -> None:
    """Delete a queue database and its ``-wal``/``-shm`` files, if any —
    how a study run that is not ``--resume`` starts from nothing."""
    for suffix in ("", "-wal", "-shm"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(f"{path}{suffix}")


@dataclass(frozen=True)
class Job:
    """One row of the jobs table, parsed."""

    id: int
    idem_key: Optional[str]
    tenant: str
    system: str
    app: str
    graph: str
    params: Dict
    priority: int
    state: str
    attempts: int
    max_attempts: int
    lease_owner: Optional[str]
    lease_deadline: Optional[float]
    #: Absolute wall-clock instant (queue-clock domain) the job's budget
    #: expires; None = no deadline.
    deadline: Optional[float]
    not_before: float
    note: Optional[str]
    result: Optional[dict]
    created: float
    updated: float

    @property
    def key(self) -> Tuple[str, str, str]:
        """The experiment-cell key this job computes."""
        return (self.system, self.app, self.graph)

    def to_json(self) -> dict:
        """JSON-able public view (result blob elided; fetch it via
        ``result``/``GET /jobs/<id>/result``)."""
        return {
            "id": self.id,
            "idem_key": self.idem_key,
            "tenant": self.tenant,
            "system": self.system,
            "app": self.app,
            "graph": self.graph,
            "params": self.params,
            "priority": self.priority,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "lease_owner": self.lease_owner,
            "lease_deadline": self.lease_deadline,
            "deadline": self.deadline,
            "not_before": self.not_before,
            "note": self.note,
            "has_result": self.result is not None,
        }


def _job_from_row(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"], idem_key=row["idem_key"], tenant=row["tenant"],
        system=row["system"], app=row["app"], graph=row["graph"],
        params=json.loads(row["params"]), priority=row["priority"],
        state=row["state"], attempts=row["attempts"],
        max_attempts=row["max_attempts"], lease_owner=row["lease_owner"],
        lease_deadline=row["lease_deadline"], deadline=row["deadline"],
        not_before=row["not_before"],
        note=row["note"],
        result=json.loads(row["result"]) if row["result"] else None,
        created=row["created"], updated=row["updated"])


def _check_job_faults(text) -> None:
    """Refuse a job ``faults`` parameter its worker could not install —
    at submit (CLI exit 2, HTTP 400), not in every drain that leases the
    job.  ``cell`` specs are refused too: a worker strikes them before
    the job's plan is in scope, so they would never fire."""
    from repro import faults

    try:
        plan = faults.parse_plan(str(text))
        if plan and any(s.site == faults.plan.CELL_SITE for s in plan.specs):
            raise errors.InvalidValue("cell kill/hang specs act on a worker, "
                                      "not on one job; use REPRO_FAULTS")
    except errors.InvalidValue as exc:
        raise errors.InvalidValue(f"params.faults: {exc}") from None


def _integer(name: str, value) -> int:
    """``value`` as an int, or :class:`repro.errors.InvalidValue` when it
    is not an integer (``True``, ``1.5`` and ``"3"`` are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise errors.InvalidValue(f"{name} must be an integer; got {value!r}")
    return int(value)


class JobQueue:
    """One connection to the durable queue (single-writer discipline).

    ``clock`` is injectable for tests; everything time-based (leases,
    backoff, deferral) goes through it.  Multiple processes may hold a
    ``JobQueue`` on the same path (the HTTP front-end submits while a
    drain supervisor executes); SQLite WAL plus a busy timeout arbitrates
    writes.  Only one *supervisor* should drain a queue at a time — a
    second drainer is safe (leases fence commits) but wasteful.
    """

    def __init__(self, path, config: Optional[QueueConfig] = None,
                 clock=time.time):
        self.path = str(path)
        self.config = config if config is not None else \
            QueueConfig.from_env()
        self.clock = clock
        self._conn = sqlite3.connect(self.path, timeout=5.0)
        self._conn.row_factory = sqlite3.Row
        try:
            # The torn-tail discipline (see module docstring): WAL keeps
            # readers unblocked and makes a mid-write kill lose at most
            # the unsynced tail; NORMAL syncs at WAL checkpoints, not
            # once per statement.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=5000")
            self._conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise errors.InvalidValue(
                f"{self.path} is not a job queue: {exc}") from None
        with self._conn:
            row = self._conn.execute(
                "SELECT value FROM queue_meta WHERE key='schema'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO queue_meta(key, value) VALUES('schema', ?)",
                    (str(QUEUE_SCHEMA),))
            elif int(row["value"]) != QUEUE_SCHEMA:
                raise errors.InvalidValue(
                    f"unsupported queue schema {row['value']!r} in "
                    f"{self.path}; this build reads schema {QUEUE_SCHEMA}")

    def close(self) -> None:
        """Close the underlying connection (checkpoints the WAL)."""
        self._conn.close()

    def __repr__(self):
        return f"JobQueue({self.path!r})"

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------
    def submit(self, system: str, app: str, graph: str,
               params: Optional[dict] = None, tenant: str = "default",
               priority: int = 0, idem_key: Optional[str] = None,
               max_attempts: Optional[int] = None,
               deadline_ms: Optional[float] = None) -> Job:
        """Accept one job; returns the (possibly pre-existing) row.

        Validates the payload up front via the engine registry and the
        dataset table (did-you-mean errors, same as the CLIs) and checks
        its fields' types (``params`` an object, ``priority`` an integer,
        ``max_attempts`` a positive integer), enforces
        the per-tenant admission cap, and deduplicates on ``idem_key``:
        resubmitting a key returns the existing job — including one
        already ``done`` — which is what makes a restarted batch submit
        idempotent.

        ``deadline_ms`` is the job's wall-clock budget from *submission*,
        persisted as an absolute instant in the queue-clock domain (so
        the whole deadline path replays under an injected clock); omitted,
        the job has no deadline.
        """
        from repro.core.experiments import validate_selection
        from repro.engine.registry import get_application, get_system

        get_system(system)
        get_application(app)
        validate_selection(graphs=[graph])
        if not tenant or not isinstance(tenant, str):
            raise errors.InvalidValue(
                f"tenant must be a non-empty string; got {tenant!r}")
        if params is not None and not isinstance(params, dict):
            raise errors.InvalidValue(
                f"params must be an object; got {params!r}")
        priority = _integer("priority", priority)
        if max_attempts is not None:
            max_attempts = _integer("max_attempts", max_attempts)
            if max_attempts < 1:
                raise errors.InvalidValue(
                    f"max_attempts must be >= 1; got {max_attempts}")
        params = dict(params or {})
        if params.get("faults"):
            _check_job_faults(params["faults"])
        now = self.clock()

        if deadline_ms is not None:
            try:
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                raise errors.InvalidValue(
                    "deadline_ms wants a number of milliseconds, got "
                    f"{deadline_ms!r}") from None
            if deadline_ms <= 0:
                raise errors.InvalidValue(
                    f"deadline_ms must be > 0; got {deadline_ms}")
        deadline = now + deadline_ms / 1000.0 \
            if deadline_ms is not None else None

        if idem_key is not None:
            existing = self._conn.execute(
                "SELECT * FROM jobs WHERE idem_key=?", (idem_key,)
            ).fetchone()
            if existing is not None:
                return _job_from_row(existing)

        cap = self.config.tenant_max_active
        if cap:
            active = self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE tenant=? AND "
                "state IN (?, ?)", (tenant, QUEUED, LEASED)).fetchone()["n"]
            if active >= cap:
                raise errors.AdmissionDenied(
                    f"tenant {tenant!r} already has {active} open job(s) "
                    f"(cap {cap}, REPRO_TENANT_MAX_ACTIVE); retry after "
                    "some complete")

        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO jobs (idem_key, tenant, system, app, graph, "
                "params, priority, state, attempts, max_attempts, "
                "deadline, not_before, created, updated) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0, ?, ?, 0, ?, ?)",
                (idem_key, tenant, system, app, graph,
                 json.dumps(params, sort_keys=True), priority, QUEUED,
                 max_attempts if max_attempts is not None
                 else self.config.max_attempts, deadline, now, now))
            job_id = cursor.lastrowid
            detail = {"tenant": tenant, "system": system, "app": app,
                      "graph": graph, "priority": priority}
            if deadline_ms is not None:
                detail["deadline_ms"] = deadline_ms
            self._record(job_id, "submitted", detail)
        return self.get(job_id)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, job_id: int) -> Optional[Job]:
        """The job row, or None for an unknown id."""
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE id=?", (job_id,)).fetchone()
        return _job_from_row(row) if row is not None else None

    def find(self, idem_key: str) -> Optional[Job]:
        """The job holding ``idem_key``, or None."""
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE idem_key=?", (idem_key,)).fetchone()
        return _job_from_row(row) if row is not None else None

    def peek_ready(self) -> Optional[Job]:
        """The next dispatchable job (no lease taken): highest priority
        first, then submission order; backoff/deferral windows respected."""
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE state=? AND not_before<=? "
            "ORDER BY priority DESC, id ASC LIMIT 1",
            (QUEUED, self.clock())).fetchone()
        return _job_from_row(row) if row is not None else None

    def jobs(self, tenant: Optional[str] = None,
             state: Optional[str] = None, limit: int = 200) -> List[Job]:
        """Job rows, newest last, optionally filtered."""
        clauses, args = [], []
        if tenant is not None:
            clauses.append("tenant=?")
            args.append(tenant)
        if state is not None:
            if state not in STATES:
                raise errors.InvalidValue(
                    f"unknown job state {state!r}; known states: {STATES}")
            clauses.append("state=?")
            args.append(state)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        args.append(int(limit))
        rows = self._conn.execute(
            f"SELECT * FROM jobs{where} ORDER BY id ASC LIMIT ?",
            args).fetchall()
        return [_job_from_row(r) for r in rows]

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` plus ``deferred`` (queued jobs waiting out
        a backoff/deferral window) — the ``repro-serve status`` summary."""
        counts = {state: 0 for state in STATES}
        for row in self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"):
            counts[row["state"]] = row["n"]
        counts["deferred"] = self._conn.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state=? AND not_before>?",
            (QUEUED, self.clock())).fetchone()["n"]
        return counts

    def tenant_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant ``{state: count}`` maps (admission diagnostics)."""
        tenants: Dict[str, Dict[str, int]] = {}
        for row in self._conn.execute(
                "SELECT tenant, state, COUNT(*) AS n FROM jobs "
                "GROUP BY tenant, state"):
            tenants.setdefault(row["tenant"], {})[row["state"]] = row["n"]
        return tenants

    def has_open_jobs(self) -> bool:
        """True while any job is queued or leased."""
        row = self._conn.execute(
            "SELECT 1 FROM jobs WHERE state IN (?, ?) LIMIT 1",
            (QUEUED, LEASED)).fetchone()
        return row is not None

    def open_graphs(self) -> Tuple[str, ...]:
        """Distinct graphs among open jobs, submission order — the set a
        fresh worker prebuilds."""
        rows = self._conn.execute(
            "SELECT graph FROM jobs WHERE state IN (?, ?) "
            "ORDER BY id ASC", (QUEUED, LEASED)).fetchall()
        return tuple(dict.fromkeys(r["graph"] for r in rows))

    def results(self) -> Iterable[Tuple[Job, dict]]:
        """(job, result row) for every terminal job holding a result."""
        for row in self._conn.execute(
                "SELECT * FROM jobs WHERE state IN (?, ?) AND result IS "
                "NOT NULL ORDER BY id ASC", (DONE, ERR)):
            job = _job_from_row(row)
            yield job, job.result

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def lease(self, job_id: int, owner: str) -> Optional[Job]:
        """Atomically move a queued job to ``leased`` for ``owner``.

        Bumps ``attempts`` (the incremented value is the fencing token
        :meth:`complete`/:meth:`fail` require) and sets the lease
        deadline.  Returns None if the job was not dispatchable anymore —
        the caller just picks another.
        """
        now = self.clock()
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET state=?, attempts=attempts+1, "
                "lease_owner=?, lease_deadline=?, updated=? "
                "WHERE id=? AND state=? AND not_before<=?",
                (LEASED, owner, now + self.config.lease_seconds, now,
                 job_id, QUEUED, now))
            if cursor.rowcount != 1:
                return None
            job = self.get(job_id)
            self._record(job_id, "leased",
                         {"owner": owner, "attempt": job.attempts})
        return job

    def renew(self, job_id: int, owner: str) -> bool:
        """Extend a live lease (the supervisor's heartbeat-driven renewal)."""
        now = self.clock()
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET lease_deadline=?, updated=? "
                "WHERE id=? AND state=? AND lease_owner=?",
                (now + self.config.lease_seconds, now, job_id, LEASED,
                 owner))
        return cursor.rowcount == 1

    def defer(self, job_id: int, seconds: Optional[float] = None,
              note: str = "deferred") -> bool:
        """Push a queued job's earliest dispatch out (no attempt charged).

        The admission path for an open circuit breaker (and for a job
        over the worker memory budget): the job stays queued — visible,
        never dropped, never run on another system — and becomes
        dispatchable again once the window passes.
        """
        now = self.clock()
        seconds = self.config.defer_seconds if seconds is None else seconds
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET not_before=?, note=?, updated=? "
                "WHERE id=? AND state=?",
                (now + seconds, note, now, job_id, QUEUED))
            if cursor.rowcount == 1:
                self._record(job_id, "deferred",
                             {"seconds": seconds, "note": note})
        return cursor.rowcount == 1

    # ------------------------------------------------------------------
    # Completion / failure (exactly-once commit)
    # ------------------------------------------------------------------
    def complete(self, job_id: int, owner: str, token: int,
                 row: dict) -> bool:
        """Commit a finished job's result row — exactly once.

        ``token`` is the ``attempts`` value of the lease that produced
        ``row``.  A duplicate commit (job already terminal) and a stale
        commit (lease expired and re-issued since) both return False and
        change nothing; only the live leaseholder's first commit lands.
        The job ends ``done``, or ``err`` when the cell itself ended
        ``ERR`` (the result row is kept either way).
        """
        now = self.clock()
        state = ERR if row.get("status") == "ERR" else DONE
        blob = json.dumps(row, sort_keys=True)
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET state=?, result=?, lease_owner=NULL, "
                "lease_deadline=NULL, note=NULL, updated=? "
                "WHERE id=? AND state=? AND lease_owner=? AND attempts=?",
                (state, blob, now, job_id, LEASED, owner, token))
            if cursor.rowcount != 1:
                return False
            detail = {"status": row.get("status"),
                      "seconds": row.get("seconds")}
            counters = row.get("counters") or {}
            # The OpEvent-derived run shape, surfaced to the progress
            # stream without shipping the full counter set.
            for key in ("loops", "rounds", "instructions"):
                if key in counters:
                    detail[key] = counters[key]
            self._record(job_id, state, detail)
        return True

    def fail(self, job_id: int, owner: str, token: int, error: str) -> str:
        """Record a failed lease (worker died, lease expired).

        Requeues with exponential backoff + deterministic jitter while
        attempts remain, else dead-letters.  Returns the job's new state
        (``queued``/``dead``), or its current state when the lease was
        already stale (someone else owns the retry).
        """
        now = self.clock()
        job = self.get(job_id)
        if job is None:
            raise errors.InvalidValue(f"unknown job id {job_id}")
        if job.state != LEASED or job.lease_owner != owner \
                or job.attempts != token:
            return job.state
        if job.attempts >= job.max_attempts:
            with self._conn:
                self._conn.execute(
                    "UPDATE jobs SET state=?, lease_owner=NULL, "
                    "lease_deadline=NULL, note=?, updated=? WHERE id=?",
                    (DEAD, error, now, job_id))
                self._record(job_id, DEAD,
                             {"error": error, "attempts": job.attempts})
            return DEAD
        delay = backoff_seconds(job_id, job.attempts,
                                self.config.backoff_base,
                                self.config.backoff_cap)
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state=?, lease_owner=NULL, "
                "lease_deadline=NULL, not_before=?, note=?, updated=? "
                "WHERE id=?",
                (QUEUED, now + delay, error, now, job_id))
            self._record(job_id, "requeued",
                         {"error": error, "attempt": job.attempts,
                          "backoff_seconds": round(delay, 3)})
        return QUEUED

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def expire_leases(self, now: Optional[float] = None) -> List[int]:
        """Requeue (or dead-letter) every job whose lease deadline passed.

        The background safety net: a supervisor killed mid-run stops
        renewing, and whoever next touches the queue reclaims its jobs.
        """
        now = self.clock() if now is None else now
        expired = self._conn.execute(
            "SELECT id, lease_owner, attempts FROM jobs "
            "WHERE state=? AND lease_deadline<?", (LEASED, now)).fetchall()
        reclaimed = []
        for row in expired:
            self.fail(row["id"], row["lease_owner"], row["attempts"],
                      "lease expired")
            reclaimed.append(row["id"])
        return reclaimed

    def requeue_orphans(self) -> List[int]:
        """Immediately reclaim *every* leased job (supervisor takeover).

        A starting supervisor owns no workers, so any lease in the
        database is an orphan of a dead predecessor; waiting out the
        lease deadline would be correct but slow.  Single-supervisor
        deployments (the CLI drain) call this on startup.
        """
        rows = self._conn.execute(
            "SELECT id, lease_owner, attempts FROM jobs WHERE state=?",
            (LEASED,)).fetchall()
        reclaimed = []
        for row in rows:
            self.fail(row["id"], row["lease_owner"], row["attempts"],
                      "orphaned lease (supervisor takeover)")
            reclaimed.append(row["id"])
        return reclaimed

    # ------------------------------------------------------------------
    # Shared metadata (supervisor -> status channel)
    # ------------------------------------------------------------------
    def set_meta(self, key: str, value) -> None:
        """Publish one JSON value into ``queue_meta`` (upsert).

        The drain supervisor uses this as its side of the status channel:
        worker RSS/state and breaker snapshots land here each tick, so
        ``repro-serve status --json`` can report them from any process
        holding the queue path.  The ``schema`` key is reserved.
        """
        if key == "schema":
            raise errors.InvalidValue("queue_meta key 'schema' is reserved")
        with self._conn:
            self._conn.execute(
                "INSERT INTO queue_meta(key, value) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (key, json.dumps(value, sort_keys=True)))

    def get_meta(self, key: str, default=None):
        """Read back one JSON value from ``queue_meta``."""
        row = self._conn.execute(
            "SELECT value FROM queue_meta WHERE key=?", (key,)).fetchone()
        if row is None:
            return default
        return json.loads(row["value"])

    # ------------------------------------------------------------------
    # Progress events
    # ------------------------------------------------------------------
    def record(self, job_id: int, kind: str, detail: dict) -> None:
        """Append one progress event (public hook for the supervisor's
        heartbeat annotations)."""
        with self._conn:
            self._record(job_id, kind, detail)

    def _record(self, job_id: int, kind: str, detail: dict) -> None:
        self._conn.execute(
            "INSERT INTO job_events (job_id, seq, ts, kind, detail) "
            "SELECT ?, COALESCE(MAX(seq), 0) + 1, ?, ?, ? "
            "FROM job_events WHERE job_id=?",
            (job_id, self.clock(), kind, json.dumps(detail, sort_keys=True),
             job_id))

    def events(self, job_id: int, since: int = 0) -> List[dict]:
        """Progress events after sequence number ``since`` — the polling
        cursor behind ``GET /jobs/<id>/events``."""
        rows = self._conn.execute(
            "SELECT seq, ts, kind, detail FROM job_events "
            "WHERE job_id=? AND seq>? ORDER BY seq ASC",
            (job_id, since)).fetchall()
        return [{"seq": r["seq"], "ts": r["ts"], "kind": r["kind"],
                 "detail": json.loads(r["detail"])} for r in rows]
