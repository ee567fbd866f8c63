"""Per-system circuit breakers with capability-aware fallback routing.

A system whose cells keep crashing workers (or ending ``ERR``) should stop
receiving fresh cells for a while instead of grinding the whole grid
through its failure mode.  Each registered :class:`~repro.engine.registry.
SystemSpec` gets a :class:`CircuitBreaker` with the classic three states:

* **closed** — normal; cells run on their own system.  ``threshold``
  consecutive failures open the breaker.
* **open** — cells are rerouted to a capability-compatible fallback system
  (:func:`repro.engine.registry.compatible_fallbacks`) and flagged
  ``degraded`` — never substituted silently — or, with no healthy
  fallback, deferred.  After ``cooldown`` dispatch decisions the breaker
  half-opens.
* **half-open** — exactly one probe cell runs on the original system;
  success closes the breaker, failure re-opens it for another cooldown.

The state machine is driven by dispatch decisions and commit outcomes —
counters, not wall clocks — so supervised runs stay deterministic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.engine.registry import compatible_fallbacks

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-rate gate for one system (closed → open → half-open)."""

    def __init__(self, code: str, threshold: int, cooldown: int,
                 forced_open: bool = False):
        self.code = code
        self.threshold = threshold
        self.cooldown = cooldown
        self.forced_open = forced_open
        self.state = OPEN if forced_open else CLOSED
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
        if self.forced_open:
            return False
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = HALF_OPEN
                return True  # the probe
            return False
        return False  # HALF_OPEN: probe already in flight

    def record(self, ok: bool) -> None:
        """Feed one outcome (committed cell or worker crash) back in.

        ``ok`` means the cell committed without a worker crash and with a
        status other than ``ERR`` — the paper's TO/OOM are *modeled*
        results, not system failures.
        """
        if self.forced_open:
            return
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
    """The supervisor's set of breakers, one per system code, plus routing."""

    def __init__(self, codes, threshold: int, cooldown: int,
                 forced_open=()):
        self.breakers: Dict[str, CircuitBreaker] = {
            code: CircuitBreaker(code, threshold, cooldown,
                                 forced_open=code in tuple(forced_open))
            for code in codes}

    def admit(self, code: str) -> Tuple[str, Optional[str]]:
        """One admission decision for a cell of ``code``.

        Returns one of::

            ("run", None)          # breaker closed (or the half-open probe)
            ("reroute", fallback)  # breaker open; a healthy same-API
                                   # fallback exists — caller must flag
                                   # the cell degraded
            ("defer", None)        # breaker open and no healthy fallback

        Each call is one dispatch decision (it advances the open-state
        cooldown), so a caller that defers must not spin: the cooldown
        guarantees a half-open probe after ``cooldown`` decisions, which
        is what lets a deferred queue eventually drain.
        """
        breaker = self.breakers[code]
        if breaker.allow():
            return ("run", None)
        for fallback in compatible_fallbacks(code):
            other = self.breakers.get(fallback)
            if other is None or other.state == CLOSED:
                return ("reroute", fallback)
        return ("defer", None)

    def record(self, code: str, ok: bool) -> None:
        """Feed an outcome to the breaker of the system that *ran* it."""
        breaker = self.breakers.get(code)
        if breaker is not None:
            breaker.record(ok)

    def open_codes(self):
        """Codes whose breaker is not closed (diagnostics)."""
        return tuple(code for code, b in self.breakers.items()
                     if b.state != CLOSED)

    def states(self) -> Dict[str, dict]:
        """JSON-able per-system snapshot — the ``repro-serve status
        --json`` view the drain supervisor publishes each tick."""
        return {
            code: {"state": b.state, "trips": b.trips,
                   "consecutive_failures": b.consecutive_failures}
            for code, b in self.breakers.items()}
