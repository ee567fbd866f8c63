"""Fault specs, the active plan, and the trip points' fast path."""

from __future__ import annotations

import contextlib
import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro import errors

#: Counted trip points compiled into the harness (``*`` matches both).
SITES = ("kernel", "alloc")

#: The trip point a pool worker crosses once as each cell attempt starts.
CELL_SITE = "cell"

#: Injectable fault kinds.  The first four *raise*; the rest *act* and
#: let the run go on: ``memhog`` allocates (and pins) ``mb`` MiB of real
#: memory per firing to drive RSS up against ``REPRO_WORKER_MEM_BUDGET``,
#: ``slow`` sleeps ``ms`` milliseconds per firing to burn wall clock
#: against a job deadline, and at the ``cell`` site ``kill`` SIGKILLs the
#: worker (indistinguishable from the OOM killer) and ``hang`` stalls it
#: for the supervisor's deadline to catch — so the drills replay exactly.
KINDS = ("fault", "oom", "timeout", "fatal", "memhog", "slow", "kill",
         "hang")

#: Kinds that perform a side effect at ``kernel``/``alloc`` trips.
ACTING_KINDS = ("memhog", "slow")

#: The kinds of the ``cell`` site, and its only kinds.
CELL_KINDS = ("kill", "hang")


def _stable_unit(key: str) -> float:
    """Deterministic draw in [0, 1) from a hash of ``key`` — no RNG state,
    so a draw depends only on what it is keyed on."""
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


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

    ``site`` is ``"kernel"``, ``"alloc"``, ``"*"`` (either) or ``"cell"``
    (with the :data:`CELL_KINDS`, which go nowhere else).  At
    ``kernel``/``alloc`` the spec fires on trips ``nth .. nth + times -
    1`` of its site (1-based, counted per site across the whole plan
    lifetime); ``times=0`` means "from ``nth`` onwards, forever".
    ``transient=True`` raises :class:`TransientFault` regardless of
    ``kind`` (the kind is kept in the message and attribute).  At the
    ``cell`` site it fires on the ``(system, app, graph)`` it names
    (``None`` = every cell) at supervisor-side attempt ``attempt``
    (``None`` = every attempt: a poison cell).  ``rate`` thins any spec
    to the firings whose stateless hash draw (keyed on the plan's seed
    and the cell, or the site count) falls below it, so the same seed
    strikes the same cells at any worker count or dispatch order.
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
    #: ``cell`` site only: the ``(system, app, graph)`` struck.
    cell: Optional[Tuple[str, str, str]] = None
    #: ``cell`` site only: the 1-based attempt struck.
    attempt: Optional[int] = None
    #: Probability that a matching trip fires (1 = always, no draw).
    rate: float = 1.0

    def __post_init__(self):
        if self.site not in SITES + ("*", CELL_SITE):
            raise errors.InvalidValue(
                f"unknown fault site {self.site!r}; known: "
                f"{list(SITES) + [CELL_SITE]} or '*'")
        if self.kind not in KINDS:
            raise errors.InvalidValue(
                f"unknown fault kind {self.kind!r}; known: {list(KINDS)}")
        on_cell = self.site == CELL_SITE
        if on_cell != (self.kind in CELL_KINDS):
            raise errors.InvalidValue(
                f"fault kinds {list(CELL_KINDS)} go at the {CELL_SITE!r} "
                f"site, which takes no other; got {self.site}:{self.kind}")
        if not on_cell and (self.cell is not None
                            or self.attempt is not None):
            raise errors.InvalidValue(
                "a SYSTEM:app:graph selector and attempt=N apply only at "
                f"the {CELL_SITE!r} site")
        if self.cell is not None and (len(self.cell) != 3
                                      or not all(self.cell)):
            raise errors.InvalidValue(
                f"a cell selector is SYSTEM:app:graph; got {self.cell}")
        if self.attempt is not None and self.attempt < 1:
            raise errors.InvalidValue(
                f"fault attempt is 1-based; got {self.attempt}")
        if not 0.0 <= self.rate <= 1.0:
            raise errors.InvalidValue(
                f"fault rate must be in [0, 1]; got {self.rate}")
        if self.nth < 1:
            raise errors.InvalidValue("fault nth is 1-based; got "
                                      f"{self.nth}")
        if self.times < 0:
            raise errors.InvalidValue("fault times must be >= 0 "
                                      "(0 = forever)")
        if self.mb < 1 or self.ms < 1:
            raise errors.InvalidValue("fault mb/ms must be >= 1; got "
                                      f"mb={self.mb}, ms={self.ms}")
        if self.transient and self.kind in ACTING_KINDS + CELL_KINDS:
            raise errors.InvalidValue(
                f"fault kind {self.kind!r} acts instead of raising; "
                "'transient' does not apply")

    def matches(self, site: str, count: int) -> bool:
        """Whether this spec's window covers the ``count``-th trip at
        ``site`` (``kernel``/``alloc``; before any ``rate`` draw)."""
        if self.site != "*" and self.site != site:
            return False
        if count < self.nth:
            return False
        return self.times == 0 or count < self.nth + self.times


class FaultPlan:
    """A set of :class:`FaultSpec`\\ s and the seed of their ``rate`` draws.

    The plan owns one call counter per site, so trigger points are
    deterministic for a fixed workload; a ``rate`` draw hashes the seed
    with the cell or the site count (``_stable_unit``), so it too
    replays identically.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.counts = {site: 0 for site in SITES}
        #: Firings so far, as (site, count, kind, transient) tuples; a
        #: ``cell`` firing records its attempt as the count.
        self.fired: List[tuple] = []
        #: ``memhog`` ballast: referenced so the pages stay resident and
        #: the process RSS genuinely rises until the plan is dropped.
        self.ballast: List[object] = []

    def _draw(self, spec: FaultSpec, key: str) -> bool:
        return spec.rate >= 1.0 or \
            _stable_unit(f"{self.seed}:{key}") < spec.rate

    def trip(self, site: str, label: str = "") -> None:
        """Advance the site counter; raise or act if any spec fires.
        Side-effect kinds (``memhog``/``slow``) act and fall through so
        the cell keeps running."""
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        for spec in self.specs:
            if spec.matches(site, count) and \
                    self._draw(spec, f"{site}:{count}"):
                if spec.kind in ACTING_KINDS:
                    self._act(site, count, spec)
                else:
                    self._raise(site, count, spec.kind, spec.transient,
                                label)

    def cell_action(self, system: str, app: str, graph: str,
                    attempt: int) -> Optional[str]:
        """The ``cell``-site kind (``kill``/``hang``) that fires for this
        cell attempt, or None; the first firing spec wins."""
        for spec in self.specs:
            if (spec.site == CELL_SITE
                    and spec.cell in (None, (system, app, graph))
                    and spec.attempt in (None, attempt)
                    and self._draw(spec, f"{system}:{app}:{graph}")):
                return spec.kind
        return None

    def strike(self, system: str, app: str, graph: str,
               attempt: int) -> None:
        """Carry out the cell attempt's ``kill``/``hang``, if any.

        ``kill`` raises SIGKILL against this process — a real
        un-catchable kill.  ``hang`` sleeps forever so the supervisor's
        deadline/heartbeat machinery has something to detect.
        """
        kind = self.cell_action(system, app, graph, attempt)
        if kind is None:
            return
        self.fired.append((CELL_SITE, attempt, kind, False))
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        while True:  # hang; pragma: no cover - killed by the supervisor
            time.sleep(3600)

    def _act(self, site: str, count: int, spec: FaultSpec) -> None:
        self.fired.append((site, count, spec.kind, False))
        if spec.kind == "memhog":
            import numpy as np

            block = np.empty(spec.mb << 20, dtype=np.uint8)
            block[::4096] = 1  # touch every page so RSS actually grows
            self.ballast.append(block)
        elif spec.kind == "slow":
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


def strike(system: str, app: str, graph: str, attempt: int) -> None:
    """The ``cell`` trip point — called by a pool worker as each cell
    starts, never by an in-process drain."""
    if _PLAN is not None:
        _PLAN.strike(system, app, graph, attempt)


# ----------------------------------------------------------------------
# Spec strings and environment configuration
# ----------------------------------------------------------------------

#: The ``name=value`` options of a spec and their value parsers; the
#: ``cell`` site counts no trips, so it takes only the last two.
_OPTIONS = {"nth": int, "times": int, "mb": int, "ms": int,
            "attempt": int, "rate": float}
_CELL_OPTIONS = ("attempt", "rate")


def parse_spec(text: str) -> FaultSpec:
    """Parse one spec of the one fault grammar: ``site:kind[@SYSTEM:app:
    graph][:transient][:nth=N][:times=N][:mb=N][:ms=N][:attempt=N]
    [:rate=P]``."""
    parts = [p.strip() for p in text.split(":") if p.strip()]
    if len(parts) < 2:
        raise errors.InvalidValue(
            f"bad fault spec {text!r}: want site:kind[@SYSTEM:app:graph]"
            "[:option]...")
    site, rest = parts[0], parts[2:]
    kind, at, system = parts[1].partition("@")
    kwargs = {"site": site, "kind": kind}
    if at:
        kwargs["cell"], rest = (system, *rest[:2]), rest[2:]
    for extra in rest:
        key, eq, value = extra.partition("=")
        if extra == "transient":
            kwargs["transient"] = True
        elif eq and key in _OPTIONS and (site != CELL_SITE
                                         or key in _CELL_OPTIONS):
            try:
                kwargs[key] = _OPTIONS[key](value)
            except ValueError:
                raise errors.InvalidValue(
                    f"bad fault spec {text!r}: {key} wants "
                    f"{_OPTIONS[key].__name__}, got {value!r}") from None
        else:
            raise errors.InvalidValue(
                f"bad fault spec {text!r}: unknown option {extra!r}"
                + (f" at the {CELL_SITE!r} site" if key in _OPTIONS else ""))
    return FaultSpec(**kwargs)


def parse_plan(text: str, seed: int = 0) -> Optional[FaultPlan]:
    """The plan of semicolon-separated specs, or ``None`` if there are
    none — ``REPRO_FAULTS`` and a job's ``faults`` parameter alike."""
    specs = [parse_spec(p) for p in text.split(";") if p.strip()]
    return FaultPlan(specs, seed=seed) if specs else None


def plan_from_env(environ=None) -> Optional[FaultPlan]:
    """Build a plan from ``REPRO_FAULTS``/``_SEED``, or ``None``."""
    env = os.environ if environ is None else environ
    seed = errors.env_value(env, "REPRO_FAULTS_SEED", int, 0)
    try:
        return parse_plan(env.get("REPRO_FAULTS", ""), seed)
    except errors.InvalidValue as exc:
        raise errors.InvalidValue(f"REPRO_FAULTS: {exc}") from None


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
