"""The study grid as a durable job queue, drained in or out of process.

Every study grid (``repro-study``, ``all --out`` included) runs through
:func:`run_grid`: its cells become jobs on a SQLite queue, drained in
this process by default.  There a process death — a real SIGKILL/OOM-kill
or an injected :class:`repro.faults.FatalFault` — aborts the grid, and
the queue is what survives: draining it again resumes the run.  With
``--workers N`` this package also keeps the study alive through such
deaths by running cells *out of process* under supervision:

* :mod:`repro.service.worker` — :func:`~repro.service.worker.run_task`
  (one cell, JSON-clean row — what every drain runs) and the
  out-of-process worker loop around it, with the fault plan installed
  from the environment, heartbeating throughout; the plan's ``cell``
  specs (:mod:`repro.faults`) SIGKILL or hang a worker as a named cell
  starts, which is how the drills murder workers deterministically.
* :mod:`repro.service.breaker` — per-system circuit breakers (closed →
  open → half-open) that defer a crash-looping system's cells until a
  half-open probe on that same system succeeds; a cell never runs on a
  system other than the one it names.
* :mod:`repro.service.config` — the ``REPRO_SERVICE_*`` /
  ``REPRO_CELL_*`` / ``REPRO_BREAKER_*`` / ``REPRO_JOB_*`` environment
  knobs, validated up front (see the "Environment knobs" table in
  EXPERIMENTS.md), plus :func:`~repro.service.config.validate_env_knobs`
  rejecting unknown ``REPRO_*`` names.
* :mod:`repro.service.queue` — the durable SQLite-WAL job queue
  (idempotent submission, crash-safe leases, retry with backoff,
  dead-letter state, tenant admission control).
* :mod:`repro.service.queue_supervisor` — :class:`QueueSupervisor`,
  the one drain: it leases the queue's jobs and runs them in-process or
  on spawned workers, detecting dead or hung workers (pipe EOF, missed
  heartbeats, a blown per-cell deadline), respawning them and failing
  the in-flight job back to the queue, with exactly-once result commit
  and breaker-driven deferral.  Its :func:`run_grid` runs a study grid
  (the canonical task list is :func:`grid_tasks`): the cells become jobs
  on a queue (ephemeral unless a path is given), and a cell whose
  workers keep dying dead-letters as ``ERR``/``DeadLetter`` after
  ``REPRO_JOB_MAX_ATTEMPTS`` leases.  Results mirror into the experiment
  memo as each job settles; ``cells.json`` is sorted by key, so a
  parallel, fault-ridden run produces one byte-identical to a
  sequential clean run's.
* :mod:`repro.service.api` / :mod:`repro.service.serve` — the service
  front-end: a stdlib HTTP JSON API and the ``repro-serve`` CLI
  (``submit``/``status``/``result``/``drain``/``api``).

``repro-study`` exposes the pool via ``--workers N`` (default 1: drain
in-process).  ``repro-study all --out DIR`` keeps the grid's queue at
``DIR/queue.db`` (any target: ``--queue PATH``), so a killed run
re-invoked with ``--resume`` recalls every cell the queue settled.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.queue import JobQueue
from repro.service.queue_supervisor import (CellTask, QueueSupervisor,
                                            grid_tasks, run_grid)

__all__ = [
    "CellTask",
    "CircuitBreaker",
    "JobQueue",
    "QueueSupervisor",
    "ServiceConfig",
    "grid_tasks",
    "run_grid",
]
