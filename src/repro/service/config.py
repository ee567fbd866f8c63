"""Environment knobs for the supervised worker pool, validated up front.

Like the fault knobs (``REPRO_FAULTS``), every service knob is parsed and
range-checked before any worker spawns, so a typo fails the run immediately
with :class:`repro.errors.InvalidValue` instead of surfacing as a confusing
mid-grid stall.  The full knob table lives in EXPERIMENTS.md ("Environment
knobs"); a lint-style test asserts the two stay in sync.

On top of per-knob parsing, :func:`validate_env_knobs` catches the typo
class parsing cannot: a *misspelled knob name* (ATTEMPTS typed ATTEMTPS) is
simply an unread variable, silently reverting the run to defaults.  The
CLIs call the validator at startup; any ``REPRO_``-prefixed variable not
in :data:`KNOWN_KNOBS` fails fast with a did-you-mean suggestion unless
``REPRO_ALLOW_UNKNOWN_KNOBS=1`` downgrades it to a stderr warning.
"""

from __future__ import annotations

import difflib
import os
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import errors

#: Default seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: Seconds of heartbeat silence before a worker counts as hung.
HEARTBEAT_TIMEOUT = 30.0

#: Default wall-clock seconds one cell may occupy a worker.
DEFAULT_CELL_DEADLINE = 600.0

#: Default consecutive per-system failures that open the circuit breaker.
DEFAULT_BREAKER_THRESHOLD = 5

#: Default number of dispatch decisions an open breaker waits before
#: letting one half-open probe through.
DEFAULT_BREAKER_COOLDOWN = 8

#: Default supervisor-level attempts per queued job before dead-letter.
DEFAULT_JOB_MAX_ATTEMPTS = 3

#: Default first-retry backoff in seconds (doubles per attempt).
DEFAULT_JOB_BACKOFF = 0.25

#: Default ceiling on the exponential retry backoff, in seconds.
DEFAULT_JOB_BACKOFF_CAP = 30.0

#: Default seconds a breaker-deferred job waits before redispatch.
DEFAULT_JOB_DEFER = 1.0

#: Default seconds a job lease lasts without renewal before it expires
#: and the job is requeued (crash-safety for a killed supervisor).
DEFAULT_LEASE_SECONDS = 120.0

#: Default per-tenant cap on open (queued + leased) jobs; 0 = unlimited.
DEFAULT_TENANT_MAX_ACTIVE = 0

#: Default per-worker RSS budget in MiB; 0 = memory governor off.
DEFAULT_WORKER_MEM_BUDGET_MB = 0.0

#: Default open-job count (queued + leased) above which the API sheds;
#: 0 = load shedding off.
DEFAULT_QUEUE_HIGH_WATER = 0

#: Grace seconds past a propagated deadline before the supervisor
#: hard-kills a worker that failed to cancel cooperatively.
CANCEL_GRACE = 5.0

#: Seconds a draining supervisor waits for in-flight jobs to finish
#: before failing them back to the queue.
DRAIN_GRACE = 30.0

#: Every complete REPRO_* knob name any part of the harness reads — the
#: source of truth for :func:`validate_env_knobs`.  A lint-style test
#: (tests/test_env_knobs_doc.py) asserts this set matches the knobs the
#: source tree actually mentions, so it cannot rot.
KNOWN_KNOBS = frozenset({
    "REPRO_FAULTS",
    "REPRO_FAULTS_RATE",
    "REPRO_FAULTS_SEED",
    "REPRO_CELL_WALL_BUDGET",
    "REPRO_SERVICE_HEARTBEAT",
    "REPRO_CELL_DEADLINE",
    "REPRO_BREAKER_THRESHOLD",
    "REPRO_BREAKER_COOLDOWN",
    "REPRO_CHAOS_KILL_CELLS",
    "REPRO_CHAOS_HANG_CELLS",
    "REPRO_CHAOS_KILL_RATE",
    "REPRO_CHAOS_KILL_SEED",
    "REPRO_PLAN_CACHE",
    "REPRO_JOB_MAX_ATTEMPTS",
    "REPRO_JOB_BACKOFF",
    "REPRO_JOB_BACKOFF_CAP",
    "REPRO_JOB_DEFER",
    "REPRO_LEASE_SECONDS",
    "REPRO_TENANT_MAX_ACTIVE",
    "REPRO_ALLOW_UNKNOWN_KNOBS",
    "REPRO_BENCH_GRAPHS",
    "REPRO_BENCH_APPS",
    "REPRO_ARTIFACT_DIR",
    "REPRO_SHARD_ROWS",
    "REPRO_WORKER_MEM_BUDGET",
    "REPRO_QUEUE_HIGH_WATER",
    "REPRO_KERNEL_THREADS",
})


def validate_env_knobs(environ: Optional[dict] = None) -> Tuple[str, ...]:
    """Reject (or warn about) unrecognized ``REPRO_*`` environment knobs.

    A typo'd knob name is otherwise *silently ignored* — the most
    dangerous failure mode a knob can have (ATTEMPTS typed ATTEMTPS
    quietly keeps the default attempt budget).  Called by the CLIs before
    any work starts.  Returns the tuple of unknown names (empty when the
    environment is clean); raises :class:`repro.errors.InvalidValue`
    naming each offender with a did-you-mean suggestion, unless
    ``REPRO_ALLOW_UNKNOWN_KNOBS=1`` is set, in which case the offenders
    are listed on stderr and execution continues.
    """
    env = os.environ if environ is None else environ
    unknown = tuple(sorted(
        name for name in env
        if name.startswith("REPRO_") and name not in KNOWN_KNOBS))
    if not unknown:
        return ()
    details = []
    for name in unknown:
        close = difflib.get_close_matches(name, KNOWN_KNOBS, n=1,
                                          cutoff=0.6)
        hint = f" (did you mean {close[0]}?)" if close else ""
        details.append(f"{name}{hint}")
    if env.get("REPRO_ALLOW_UNKNOWN_KNOBS", "").strip() == "1":
        print("warning: ignoring unrecognized REPRO_* knob(s): "
              + ", ".join(details), file=sys.stderr)
        return unknown
    raise errors.InvalidValue(
        "unrecognized REPRO_* environment knob(s): " + ", ".join(details)
        + ". A misspelled knob silently does nothing, so this fails "
        "fast; set REPRO_ALLOW_UNKNOWN_KNOBS=1 to downgrade to a "
        "warning. Known knobs are listed in EXPERIMENTS.md "
        "('Environment knobs').")


def _positive_float(env: dict, name: str, default: float) -> float:
    return errors.env_value(env, name, float, default, low=0, strict=True)


def _nonnegative_float(env: dict, name: str, default: float) -> float:
    return errors.env_value(env, name, float, default, low=0)


def _nonnegative_int(env: dict, name: str, default: int) -> int:
    return errors.env_value(env, name, int, default, low=0)


@dataclass(frozen=True)
class ServiceConfig:
    """Validated supervisor policy (heartbeat, deadline, breaker, budgets).

    Build one with :meth:`from_env` (the CLIs do) or directly in tests.
    """

    #: Seconds between worker heartbeats.
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    #: Wall-clock seconds one cell may occupy a worker before it is killed
    #: and the cell requeued.
    cell_deadline: float = DEFAULT_CELL_DEADLINE
    #: Consecutive per-system crash/ERR outcomes that open its breaker
    #: (0 disables the breaker entirely).
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    #: Dispatch decisions an open breaker waits before one half-open probe.
    breaker_cooldown: int = DEFAULT_BREAKER_COOLDOWN
    #: Per-worker RSS budget in MiB; a worker exceeding it is reaped and
    #: the memory governor classifies the loss as an OOM kill.  0 = off.
    mem_budget_mb: float = DEFAULT_WORKER_MEM_BUDGET_MB

    @property
    def mem_budget_bytes(self) -> int:
        """The worker RSS budget in bytes (0 = governor off)."""
        return int(self.mem_budget_mb * 2**20)

    def __post_init__(self):
        if not 0 < self.heartbeat_interval < HEARTBEAT_TIMEOUT:
            raise errors.InvalidValue(
                "heartbeat interval must be > 0 and below the "
                f"{HEARTBEAT_TIMEOUT:g} s heartbeat timeout; got "
                f"{self.heartbeat_interval}")
        if self.cell_deadline <= 0:
            raise errors.InvalidValue("cell deadline must be > 0")
        if self.mem_budget_mb < 0:
            raise errors.InvalidValue(
                "worker memory budget must be >= 0 (0 = off); got "
                f"{self.mem_budget_mb}")

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> "ServiceConfig":
        """Read and validate every ``REPRO_SERVICE_*``-family knob.

        Raises :class:`repro.errors.InvalidValue` on any malformed value —
        called by the CLIs before the first worker spawns.
        """
        env = os.environ if environ is None else environ
        return cls(
            heartbeat_interval=_positive_float(
                env, "REPRO_SERVICE_HEARTBEAT", DEFAULT_HEARTBEAT_INTERVAL),
            cell_deadline=_positive_float(
                env, "REPRO_CELL_DEADLINE", DEFAULT_CELL_DEADLINE),
            breaker_threshold=_nonnegative_int(
                env, "REPRO_BREAKER_THRESHOLD", DEFAULT_BREAKER_THRESHOLD),
            breaker_cooldown=_nonnegative_int(
                env, "REPRO_BREAKER_COOLDOWN", DEFAULT_BREAKER_COOLDOWN),
            mem_budget_mb=_nonnegative_float(
                env, "REPRO_WORKER_MEM_BUDGET",
                DEFAULT_WORKER_MEM_BUDGET_MB),
        )


@dataclass(frozen=True)
class QueueConfig:
    """Validated durable-queue policy (attempts, backoff, leases, admission).

    Governs :class:`repro.service.queue.JobQueue`; build one with
    :meth:`from_env` (the CLIs do) or directly in tests.
    """

    #: Supervisor-level attempts (leases) per job before dead-letter.
    max_attempts: int = DEFAULT_JOB_MAX_ATTEMPTS
    #: First-retry backoff in seconds; doubles per attempt.
    backoff_base: float = DEFAULT_JOB_BACKOFF
    #: Ceiling on the exponential backoff, in seconds.
    backoff_cap: float = DEFAULT_JOB_BACKOFF_CAP
    #: Seconds a breaker-deferred job waits before redispatch.
    defer_seconds: float = DEFAULT_JOB_DEFER
    #: Seconds a lease lasts without renewal before it expires and the
    #: job is requeued.
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    #: Per-tenant cap on open (queued + leased) jobs; 0 = unlimited.
    tenant_max_active: int = DEFAULT_TENANT_MAX_ACTIVE
    #: Open-job count (queued + leased) above which the API sheds new
    #: submissions with 503 + Retry-After; 0 = shedding off.
    high_water: int = DEFAULT_QUEUE_HIGH_WATER

    def __post_init__(self):
        if self.max_attempts < 1:
            raise errors.InvalidValue(
                f"job max attempts must be >= 1; got {self.max_attempts}")
        if self.backoff_base <= 0 or self.backoff_cap <= 0:
            raise errors.InvalidValue("backoff base/cap must be > 0")
        if self.backoff_cap < self.backoff_base:
            raise errors.InvalidValue(
                "backoff cap must be >= the base "
                f"(got cap={self.backoff_cap}, base={self.backoff_base})")
        if self.defer_seconds <= 0 or self.lease_seconds <= 0:
            raise errors.InvalidValue("defer/lease seconds must be > 0")
        if self.tenant_max_active < 0:
            raise errors.InvalidValue(
                "tenant max active must be >= 0 (0 = unlimited); got "
                f"{self.tenant_max_active}")
        if self.high_water < 0:
            raise errors.InvalidValue(
                "queue high-water must be >= 0 (0 = off); got "
                f"{self.high_water}")

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> "QueueConfig":
        """Read and validate every ``REPRO_JOB_*``/``REPRO_LEASE_*`` knob."""
        env = os.environ if environ is None else environ
        return cls(
            max_attempts=_nonnegative_int(
                env, "REPRO_JOB_MAX_ATTEMPTS", DEFAULT_JOB_MAX_ATTEMPTS),
            backoff_base=_positive_float(
                env, "REPRO_JOB_BACKOFF", DEFAULT_JOB_BACKOFF),
            backoff_cap=_positive_float(
                env, "REPRO_JOB_BACKOFF_CAP", DEFAULT_JOB_BACKOFF_CAP),
            defer_seconds=_positive_float(
                env, "REPRO_JOB_DEFER", DEFAULT_JOB_DEFER),
            lease_seconds=_positive_float(
                env, "REPRO_LEASE_SECONDS", DEFAULT_LEASE_SECONDS),
            tenant_max_active=_nonnegative_int(
                env, "REPRO_TENANT_MAX_ACTIVE", DEFAULT_TENANT_MAX_ACTIVE),
            high_water=_nonnegative_int(
                env, "REPRO_QUEUE_HIGH_WATER", DEFAULT_QUEUE_HIGH_WATER),
        )
