"""Bounded retry-with-backoff policy for transient per-cell faults."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro import errors


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and with what delays, a failed attempt is retried.

    ``max_attempts`` bounds the *total* number of attempts (first try
    included).  Delays grow geometrically — ``backoff_base *
    backoff_factor**(attempt - 1)`` seconds after the given attempt, capped
    at ``backoff_cap`` — and are real wall-clock sleeps, kept tiny by
    default because the injected faults they answer are simulated too.
    """

    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_cap: float = 0.25
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise errors.InvalidValue("max_attempts must be >= 1; got "
                                      f"{self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise errors.InvalidValue("backoff delays must be >= 0")

    def delay(self, attempt: int) -> float:
        """Seconds to wait after the given (1-based) failed attempt."""
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** (attempt - 1))

    def wait(self, attempt: int) -> float:
        """Sleep out the backoff for ``attempt``; returns the delay used."""
        d = self.delay(attempt)
        if d > 0:
            self.sleep(d)
        return d


#: Retries disabled: one attempt, no sleeping.
NO_RETRY = RetryPolicy(max_attempts=1, backoff_base=0.0)
