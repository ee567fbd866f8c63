"""Fault specs, the active plan, and the trip points' fast path."""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro import errors

#: Trip-point names compiled into the harness.
SITES = ("kernel", "alloc")

#: Injectable fault kinds.  The first four *raise*; the last two are
#: side-effect kinds that *act* at the trip point and let the cell keep
#: running: ``memhog`` allocates (and pins) ``mb`` MiB of real memory per
#: firing to drive RSS up against ``REPRO_WORKER_MEM_BUDGET``, and
#: ``slow`` sleeps ``ms`` milliseconds per firing to burn wall clock
#: against a job deadline.  Both exist so the governor drills (OOM kill,
#: cooperative cancellation, drain under load) replay deterministically.
KINDS = ("fault", "oom", "timeout", "fatal", "memhog", "slow")

#: Kinds that perform a side effect instead of raising.
ACTING_KINDS = ("memhog", "slow")


class InjectedFault(errors.ReproError):
    """A permanent fault raised by the active :class:`FaultPlan`.

    Cells failing with this land in ``ERR`` (they are not retried).
    """

    def __init__(self, message: str, site: str = "", kind: str = "fault"):
        super().__init__(message)
        self.site = site
        self.kind = kind


class TransientFault(InjectedFault):
    """An injected fault that a retry is expected to clear.

    :func:`repro.core.experiments.run_cell` retries cells failing with this
    under its bounded backoff policy; the fault plan's call counters keep
    advancing across attempts, so an ``nth``-triggered transient fires once
    and the retry passes.
    """


class FatalFault(BaseException):
    """An injected fault that no per-cell handler may absorb.

    Derives from :class:`BaseException` on purpose: it models the process
    being killed mid-run (power loss, OOM-killer), so it must escape
    ``run_cell``'s ``except Exception`` and abort the study run — the
    scenario resuming from the grid's job queue recovers from.
    """

    def __init__(self, message: str, site: str = ""):
        super().__init__(message)
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic injection: fire at the Nth crossing of a site.

    ``site`` is ``"kernel"``, ``"alloc"`` or ``"*"``; ``kind`` one of
    ``"fault"``/``"oom"``/``"timeout"``/``"fatal"``.  The spec fires on
    trips ``nth .. nth + times - 1`` of its site (1-based, counted per site
    across the whole plan lifetime); ``times=0`` means "from ``nth``
    onwards, forever".  ``transient=True`` raises :class:`TransientFault`
    regardless of ``kind`` (the kind is kept in the message and attribute).
    """

    site: str = "*"
    kind: str = "fault"
    nth: int = 1
    times: int = 1
    transient: bool = False
    #: ``memhog`` only: MiB of touched memory pinned per firing.
    mb: int = 16
    #: ``slow`` only: milliseconds slept per firing.
    ms: int = 100

    def __post_init__(self):
        if self.site not in SITES + ("*",):
            raise errors.InvalidValue(
                f"unknown fault site {self.site!r}; known: {list(SITES)} or '*'")
        if self.kind not in KINDS:
            raise errors.InvalidValue(
                f"unknown fault kind {self.kind!r}; known: {list(KINDS)}")
        if self.nth < 1:
            raise errors.InvalidValue("fault nth is 1-based; got "
                                      f"{self.nth}")
        if self.times < 0:
            raise errors.InvalidValue("fault times must be >= 0 "
                                      "(0 = forever)")
        if self.mb < 1 or self.ms < 1:
            raise errors.InvalidValue("fault mb/ms must be >= 1; got "
                                      f"mb={self.mb}, ms={self.ms}")
        if self.transient and self.kind in ACTING_KINDS:
            raise errors.InvalidValue(
                f"fault kind {self.kind!r} acts instead of raising; "
                "'transient' does not apply")

    def matches(self, site: str, count: int) -> bool:
        """Whether this spec fires for the ``count``-th trip at ``site``."""
        if self.site != "*" and self.site != site:
            return False
        if count < self.nth:
            return False
        return self.times == 0 or count < self.nth + self.times


class FaultPlan:
    """A set of :class:`FaultSpec`\\ s plus an optional seeded random rate.

    The plan owns one call counter per site, so trigger points are
    deterministic for a fixed workload; the probabilistic channel draws
    from ``numpy``'s :func:`~numpy.random.default_rng` seeded at
    construction, so it too replays identically.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (),
                 rate: float = 0.0, seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        if not 0.0 <= rate <= 1.0:
            raise errors.InvalidValue("fault rate must be in [0, 1]; got "
                                      f"{rate}")
        self.rate = rate
        self.seed = seed
        self._rng = None
        if rate > 0.0:
            import numpy as np

            self._rng = np.random.default_rng(seed)
        self.counts = {site: 0 for site in SITES}
        #: Faults raised so far, as (site, count, kind, transient) tuples.
        self.fired: List[tuple] = []
        #: ``memhog`` ballast: referenced so the pages stay resident and
        #: the process RSS genuinely rises until the plan is dropped.
        self.ballast: List[object] = []

    def trip(self, site: str, label: str = "") -> None:
        """Advance the site counter; raise or act if any spec (or the
        rate) fires.  Side-effect kinds (``memhog``/``slow``) act and
        fall through so the cell keeps running."""
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        for spec in self.specs:
            if spec.matches(site, count):
                if spec.kind in ACTING_KINDS:
                    self._act(site, count, spec)
                else:
                    self._raise(site, count, spec.kind, spec.transient,
                                label)
        if self._rng is not None and self._rng.random() < self.rate:
            self._raise(site, count, "fault", True, label)

    def _act(self, site: str, count: int, spec: FaultSpec) -> None:
        self.fired.append((site, count, spec.kind, False))
        if spec.kind == "memhog":
            import numpy as np

            block = np.empty(spec.mb << 20, dtype=np.uint8)
            block[::4096] = 1  # touch every page so RSS actually grows
            self.ballast.append(block)
        elif spec.kind == "slow":
            import time

            time.sleep(spec.ms / 1000.0)

    def _raise(self, site: str, count: int, kind: str, transient: bool,
               label: str):
        self.fired.append((site, count, kind, transient))
        where = f"{site} trip #{count}" + (f" ({label})" if label else "")
        if kind == "fatal":
            raise FatalFault(f"injected fatal fault at {where}", site=site)
        if transient:
            raise TransientFault(
                f"injected transient {kind} at {where}", site=site, kind=kind)
        if kind == "oom":
            raise errors.OutOfMemoryError(f"injected OOM at {where}")
        if kind == "timeout":
            raise errors.TimeoutError(f"injected timeout at {where}")
        raise InjectedFault(f"injected fault at {where}",
                            site=site, kind=kind)


#: The installed plan; ``None`` keeps every trip point a cheap no-op.
_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Make ``plan`` the active plan (``None`` disables injection)."""
    global _PLAN
    _PLAN = plan
    return plan


def clear() -> None:
    """Disable fault injection."""
    install(None)


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _PLAN


@contextlib.contextmanager
def injected(plan: FaultPlan):
    """Scope a plan to a ``with`` block, restoring the previous one."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def trip(site: str, label: str = "") -> None:
    """Trip point hook — called from kernel/allocator boundaries."""
    if _PLAN is not None:
        _PLAN.trip(site, label)


# ----------------------------------------------------------------------
# Environment configuration
# ----------------------------------------------------------------------

def parse_spec(text: str) -> FaultSpec:
    """Parse one ``site:kind[:transient][:nth=N][:times=N][:mb=N][:ms=N]``
    spec."""
    parts = [p.strip() for p in text.split(":") if p.strip()]
    if len(parts) < 2:
        raise errors.InvalidValue(
            f"bad fault spec {text!r}: want site:kind[:transient][:nth=N]"
            "[:times=N][:mb=N][:ms=N]")
    site, kind = parts[0], parts[1]
    kwargs = {"site": site, "kind": kind}
    for extra in parts[2:]:
        if extra == "transient":
            kwargs["transient"] = True
        elif (extra.startswith("nth=") or extra.startswith("times=")
              or extra.startswith("mb=") or extra.startswith("ms=")):
            key, _, value = extra.partition("=")
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise errors.InvalidValue(
                    f"bad fault spec {text!r}: {key} wants an integer, "
                    f"got {value!r}") from None
        else:
            raise errors.InvalidValue(
                f"bad fault spec {text!r}: unknown option {extra!r}")
    return FaultSpec(**kwargs)


def plan_from_env(environ=None) -> Optional[FaultPlan]:
    """Build a plan from ``REPRO_FAULTS``/``_RATE``/``_SEED``, or ``None``."""
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_FAULTS", "").strip()
    rate = errors.env_value(env, "REPRO_FAULTS_RATE", float, 0.0)
    seed = errors.env_value(env, "REPRO_FAULTS_SEED", int, 0)
    specs = [parse_spec(p) for p in raw.split(";") if p.strip()]
    if not specs and rate == 0.0:
        return None
    return FaultPlan(specs, rate=rate, seed=seed)


def wall_budget_from_env(environ=None) -> Optional[float]:
    """The ``REPRO_CELL_WALL_BUDGET`` watchdog: real seconds per cell
    attempt, or ``None`` (unset) for no watchdog."""
    env = os.environ if environ is None else environ
    return errors.env_value(env, "REPRO_CELL_WALL_BUDGET", float, None)


def install_from_env(environ=None) -> Optional[FaultPlan]:
    """Install the environment-configured plan; returns it (or ``None``).

    A no-op (keeping any programmatically installed plan) when the
    environment requests nothing.  Also validates the companion
    ``REPRO_CELL_WALL_BUDGET`` knob, so a malformed fault or watchdog
    setting fails the run here, up front, before its first cell.
    """
    wall_budget_from_env(environ)  # validate-only; run_cell reads it live
    plan = plan_from_env(environ)
    if plan is not None:
        install(plan)
    return plan
