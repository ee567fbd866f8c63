"""Per-system circuit breakers: an open breaker defers, it never substitutes.

A system whose cells keep crashing workers (or ending ``ERR``) should stop
receiving fresh cells for a while instead of grinding the whole grid
through its failure mode.  Each registered :class:`~repro.engine.registry.
SystemSpec` gets a :class:`CircuitBreaker` with the classic three states:

* **closed** — normal; cells run on their own system.  ``threshold``
  consecutive failures open the breaker.
* **open** — the system's cells are deferred (they stay queued, nothing
  runs in their place).  After ``cooldown`` dispatch decisions the
  breaker half-opens.
* **half-open** — exactly one probe cell runs on the system itself;
  success closes the breaker, failure re-opens it for another cooldown.

A cell always runs on the system it names: a system that keeps failing
burns its own jobs' attempt budgets and lands them ``ERR``/``DeadLetter``.
The state machine is driven by dispatch decisions and commit outcomes —
counters, not wall clocks — so supervised runs stay deterministic.
"""

from __future__ import annotations

from typing import Dict

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-rate gate for one system (closed → open → half-open)."""

    def __init__(self, code: str, threshold: int, cooldown: int):
        self.code = code
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._cooldown_left = 0

    def __repr__(self):
        return (f"CircuitBreaker({self.code!r}, state={self.state!r}, "
                f"failures={self.consecutive_failures})")

    def allow(self) -> bool:
        """One dispatch decision: may a cell run on this system right now?

        Advances the open-state cooldown; the transition to half-open
        happens here, and the half-open probe is the single dispatch that
        gets a True while not closed.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = HALF_OPEN
                return True  # the probe
            return False
        return False  # HALF_OPEN: probe already in flight

    def release(self) -> None:
        """Hand back an admission that was never dispatched.

        A half-open probe the caller could not dispatch (its lease was
        lost) would otherwise leave the breaker waiting forever for an
        outcome; the next decision hands the probe out again.
        """
        if self.state == HALF_OPEN:
            self.state = OPEN
            self._cooldown_left = 0

    def record(self, ok: bool) -> None:
        """Feed one outcome (committed cell or worker crash) back in.

        ``ok`` means the cell committed without a worker crash and with a
        status other than ``ERR`` — the paper's TO/OOM are *modeled*
        results, not system failures.
        """
        if ok:
            self.consecutive_failures = 0
            if self.state == HALF_OPEN:
                self.state = CLOSED
            return
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
                self.threshold and
                self.consecutive_failures >= self.threshold):
            if self.state != OPEN:
                self.trips += 1
            self.state = OPEN
            self._cooldown_left = self.cooldown


class BreakerBoard:
    """The supervisor's set of breakers, one per system code."""

    def __init__(self, codes, threshold: int, cooldown: int):
        self.breakers: Dict[str, CircuitBreaker] = {
            code: CircuitBreaker(code, threshold, cooldown)
            for code in codes}

    def admit(self, code: str) -> bool:
        """One admission decision for a cell of ``code``: run it now?

        False means the breaker is open and the caller defers the cell.
        Each call is one dispatch decision (it advances the open-state
        cooldown), so the deferrals themselves earn the half-open probe
        after ``cooldown`` decisions — which is what lets a deferred
        queue eventually drain.  A True the caller cannot act on must be
        handed back with :meth:`release`.
        """
        return self.breakers[code].allow()

    def release(self, code: str) -> None:
        """Hand back an admission of ``code`` that was never dispatched."""
        self.breakers[code].release()

    def record(self, code: str, ok: bool) -> None:
        """Feed an outcome to the breaker of the system that ran it."""
        breaker = self.breakers.get(code)
        if breaker is not None:
            breaker.record(ok)

    def states(self) -> Dict[str, dict]:
        """JSON-able per-system snapshot — the ``repro-serve status
        --json`` view the drain supervisor publishes each tick."""
        return {
            code: {"state": b.state, "trips": b.trips,
                   "consecutive_failures": b.consecutive_failures}
            for code, b in self.breakers.items()}
