"""Supervised multi-worker execution of the study grid (``repro.service``).

The sequential study loop (``repro-study all``, ``run_full_study.py``) runs
every cell in one process: a worker-level death — a real SIGKILL/OOM-kill
or an injected :class:`repro.faults.FatalFault` — aborts the whole grid and
only the checkpoint journal survives.  This package keeps the study alive
through such deaths by running cells *out of process* under supervision:

* :mod:`repro.service.supervisor` — the spawn-based worker pool: detects
  dead or hung workers (pipe EOF, missed heartbeats, a blown per-cell
  deadline), respawns them, and hands the in-flight cell back to the work
  source; plus the grid's canonical task list (:func:`grid_tasks`).
* :mod:`repro.service.worker` — the out-of-process worker loop: runs one
  cell at a time via :func:`repro.core.experiments.run_cell` with the
  fault plan installed from the environment, heartbeating throughout.
* :mod:`repro.service.breaker` — per-system circuit breakers (closed →
  open → half-open) that defer a crash-looping system's cells until a
  half-open probe on that same system succeeds; a cell never runs on a
  system other than the one it names.
* :mod:`repro.service.chaos` — deterministic worker-kill/hang schedules
  for drills (the service-level analogue of :mod:`repro.faults`).
* :mod:`repro.service.config` — the ``REPRO_SERVICE_*`` /
  ``REPRO_CELL_*`` / ``REPRO_BREAKER_*`` / ``REPRO_JOB_*`` environment
  knobs, validated up front (see the "Environment knobs" table in
  EXPERIMENTS.md), plus :func:`~repro.service.config.validate_env_knobs`
  rejecting unknown ``REPRO_*`` names.
* :mod:`repro.service.queue` — the durable SQLite-WAL job queue
  (idempotent submission, crash-safe leases, retry with backoff,
  dead-letter state, tenant admission control).
* :mod:`repro.service.queue_supervisor` — drains the queue through the
  worker pool, with exactly-once result commit and breaker-driven
  deferral.  Its :func:`run_grid` runs a study grid: the
  cells become jobs on a queue (ephemeral unless a path is given), and
  a cell whose workers keep dying dead-letters as ``ERR``/``DeadLetter``
  after ``REPRO_JOB_MAX_ATTEMPTS`` leases.  Results mirror into the
  checkpoint cell journal in canonical task order, so a parallel,
  fault-ridden run produces a ``cells.json`` byte-identical to a
  sequential clean run.
* :mod:`repro.service.api` / :mod:`repro.service.serve` — the service
  front-end: a stdlib HTTP JSON API and the ``repro-serve`` CLI
  (``submit``/``status``/``result``/``drain``/``api``).

Both study CLIs expose the pool via ``--workers N``; the default ``N=1``
keeps the existing in-process sequential path byte-for-byte unchanged.
``run_full_study.py --queue PATH`` keeps the grid's queue on disk so a
killed run can be re-invoked against it.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.chaos import ChaosPlan
from repro.service.config import QueueConfig, ServiceConfig, \
    validate_env_knobs
from repro.service.queue import Job, JobQueue
from repro.service.queue_supervisor import QueueSupervisor, run_grid
from repro.service.supervisor import CellTask, WorkerPool, grid_tasks

__all__ = [
    "CellTask",
    "ChaosPlan",
    "CircuitBreaker",
    "Job",
    "JobQueue",
    "QueueConfig",
    "QueueSupervisor",
    "ServiceConfig",
    "WorkerPool",
    "grid_tasks",
    "run_grid",
    "validate_env_knobs",
]
