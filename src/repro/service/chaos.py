"""Deterministic worker-kill and worker-hang schedules for chaos drills.

:mod:`repro.faults` injects *exceptions* inside the cell computation; this
module injects *worker-level* deaths — the failure mode the supervisor
exists to survive.  A :class:`ChaosPlan` runs inside each worker and, at
the moment a scheduled cell starts, either SIGKILLs the worker's own
process (a real, unhandleable kill — indistinguishable from the OOM
killer) or hangs it forever (to exercise heartbeat/deadline detection).

Schedules are deterministic so drills replay exactly:

* ``REPRO_CHAOS_KILL_CELLS`` / ``REPRO_CHAOS_HANG_CELLS`` — semicolon-
  separated ``SYSTEM:app:graph[:attempt=N]`` specs.  Without ``attempt=N``
  the spec fires on *every* attempt (a poison cell); with it, only on that
  supervisor-side attempt number, so ``attempt=1`` kills once and the
  requeued cell completes.
* ``REPRO_CHAOS_KILL_RATE`` / ``REPRO_CHAOS_KILL_SEED`` — kill a seeded
  pseudo-random subset of cells on their first attempt.  The draw hashes
  ``(seed, system, app, graph)`` — no RNG state — so it is independent of
  worker count, dispatch order, and which worker runs the cell.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import errors

#: What a firing chaos spec does to the worker.
ACTIONS = ("kill", "hang")


@dataclass(frozen=True)
class ChaosSpec:
    """One scheduled worker death: which cell, which attempt, what action."""

    system: str
    app: str
    graph: str
    #: Supervisor-side attempt number this spec fires on; None = every
    #: attempt (a poison cell that crashes its worker forever).
    attempt: Optional[int] = None
    action: str = "kill"

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise errors.InvalidValue(
                f"unknown chaos action {self.action!r}; known: {ACTIONS}")
        if self.attempt is not None and self.attempt < 1:
            raise errors.InvalidValue(
                f"chaos attempt is 1-based; got {self.attempt}")

    def matches(self, system: str, app: str, graph: str,
                attempt: int) -> bool:
        """Whether this spec fires for the given cell attempt."""
        if (system, app, graph) != (self.system, self.app, self.graph):
            return False
        return self.attempt is None or self.attempt == attempt


def parse_spec(text: str, action: str) -> ChaosSpec:
    """Parse one ``SYSTEM:app:graph[:attempt=N]`` spec."""
    parts = [p.strip() for p in text.split(":") if p.strip()]
    if len(parts) not in (3, 4):
        raise errors.InvalidValue(
            f"bad chaos spec {text!r}: want SYSTEM:app:graph[:attempt=N]")
    attempt = None
    if len(parts) == 4:
        key, _, value = parts[3].partition("=")
        if key != "attempt":
            raise errors.InvalidValue(
                f"bad chaos spec {text!r}: unknown option {parts[3]!r}")
        try:
            attempt = int(value)
        except ValueError:
            raise errors.InvalidValue(
                f"bad chaos spec {text!r}: attempt wants an integer, "
                f"got {value!r}") from None
    return ChaosSpec(system=parts[0], app=parts[1], graph=parts[2],
                     attempt=attempt, action=action)


def _stable_unit(seed: int, system: str, app: str, graph: str) -> float:
    """Deterministic draw in [0, 1) from a hash — no RNG state to share."""
    digest = hashlib.sha256(
        f"{seed}:{system}:{app}:{graph}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class ChaosPlan:
    """The kill/hang schedule a worker consults at every cell start."""

    def __init__(self, specs: Tuple[ChaosSpec, ...] = (),
                 kill_rate: float = 0.0, seed: int = 0):
        self.specs = tuple(specs)
        if not 0.0 <= kill_rate <= 1.0:
            raise errors.InvalidValue(
                f"chaos kill rate must be in [0, 1]; got {kill_rate}")
        self.kill_rate = kill_rate
        self.seed = seed

    def __bool__(self):
        return bool(self.specs) or self.kill_rate > 0.0

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> "ChaosPlan":
        """Build (and validate) the plan from the ``REPRO_CHAOS_*`` knobs."""
        env = os.environ if environ is None else environ
        specs = []
        for name, action in (("REPRO_CHAOS_KILL_CELLS", "kill"),
                             ("REPRO_CHAOS_HANG_CELLS", "hang")):
            raw = env.get(name, "").strip()
            specs += [parse_spec(p, action)
                      for p in raw.split(";") if p.strip()]
        rate = errors.env_value(env, "REPRO_CHAOS_KILL_RATE", float, 0.0)
        seed = errors.env_value(env, "REPRO_CHAOS_KILL_SEED", int, 0)
        return cls(tuple(specs), kill_rate=rate, seed=seed)

    def action_for(self, system: str, app: str, graph: str,
                   attempt: int) -> Optional[str]:
        """The scheduled action for this cell attempt, or None.

        Explicit specs win; the seeded random channel only ever kills on
        the *first* attempt, so every randomly killed cell completes on
        requeue and a chaos run converges to the clean run's grid.
        """
        for spec in self.specs:
            if spec.matches(system, app, graph, attempt):
                return spec.action
        if (self.kill_rate > 0.0 and attempt == 1 and
                _stable_unit(self.seed, system, app, graph) < self.kill_rate):
            return "kill"
        return None

    def strike(self, system: str, app: str, graph: str,
               attempt: int) -> None:
        """Carry out the scheduled action, if any (worker-side).

        ``kill`` raises SIGKILL against the worker's own pid — a real
        un-catchable kill.  ``hang`` sleeps forever so the supervisor's
        deadline/heartbeat machinery has something to detect.
        """
        action = self.action_for(system, app, graph, attempt)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "hang":
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(3600)
