"""Cooperative cancellation: the shared flag checked at event boundaries.

The resource governor propagates wall-clock budgets *into* a running
cell instead of SIGKILLing its worker: the worker installs a
:class:`CancelToken` before calling ``run_cell``, and
:class:`~repro.engine.context.ExecutionContext` consults it at every
OpEvent-emission boundary (each charged loop and round marker).  A token
trips either because its monotonic deadline passed or because someone
called :meth:`CancelToken.cancel`; the next boundary then raises
:class:`repro.errors.Cancelled`, the cell unwinds through the emitters'
``finally`` blocks (spans close, the partial trace survives), and
``run_cell`` folds the exception into a ``CANCELLED`` cell instead of a
worker death.

The module mirrors the :mod:`repro.faults` trip-point discipline: one
module-level token, ``None`` by default, so :func:`check` costs a single
attribute test on the hot path when no governor is active — the
cancellation-check overhead :mod:`benchmarks.bench_governor` floor-asserts
stays under 2% of the pagerank hot loop.

Like :mod:`repro.engine.events`, this module sits at the bottom of the
dependency stack (it imports only :mod:`repro.errors`), so
``engine.context`` can call into it without bending the one-way arrow
``perf.machine -> engine.context -> engine.events``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Optional

from repro import errors


class CancelToken:
    """One cell's cancellation scope: an event plus an optional deadline.

    ``deadline`` is a :func:`time.monotonic` instant (None = no deadline);
    ``clock`` is injectable for deterministic tests.  A token is
    single-use: once tripped it stays tripped, and :attr:`reason` records
    why (``expiry`` — default ``"deadline"`` — for an expired budget, or
    the reason passed to :meth:`cancel`).  :meth:`cancel` may be called
    from any thread — the flag is a :class:`threading.Event`, so a
    supervisor-side watchdog thread and the computing thread need no
    further synchronization.

    A token made with a ``parent`` (the token it nests inside) also trips,
    with the parent's reason, as soon as the parent does: a narrower
    budget never shadows a wider scope's deadline or cancellation, and
    tripping the child leaves the parent alone.
    """

    __slots__ = ("deadline", "clock", "reason", "_event", "parent",
                 "expiry")

    def __init__(self, deadline: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 parent: Optional["CancelToken"] = None,
                 expiry: str = "deadline"):
        self.deadline = deadline
        self.clock = clock
        self.reason: Optional[str] = None
        self._event = threading.Event()
        self.parent = parent
        self.expiry = expiry

    def __repr__(self):
        return (f"CancelToken(deadline={self.deadline}, "
                f"tripped={self.tripped()!r})")

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token explicitly (idempotent; first reason wins)."""
        if not self._event.is_set():
            self.reason = reason
            self._event.set()

    def tripped(self) -> Optional[str]:
        """The cancellation reason, or None while the cell may keep going.

        Checks the explicit flag first (cheap), then the parent, then the
        deadline; an expired deadline trips the token permanently with
        reason :attr:`expiry`.
        """
        if self._event.is_set():
            return self.reason or "cancelled"
        if self.parent is not None:
            reason = self.parent.tripped()
            if reason is not None:
                self.cancel(reason)
                return reason
        if self.deadline is not None and self.clock() > self.deadline:
            self.cancel(self.expiry)
            return self.reason
        return None


#: The installed token; ``None`` keeps every check a cheap no-op.
_TOKEN: Optional[CancelToken] = None


def install(token: Optional[CancelToken]) -> Optional[CancelToken]:
    """Make ``token`` the active cancellation scope (``None`` disables)."""
    global _TOKEN
    _TOKEN = token
    return token


def clear() -> None:
    """Remove any active cancellation scope."""
    install(None)


def active_token() -> Optional[CancelToken]:
    """The currently installed token, if any."""
    return _TOKEN


@contextlib.contextmanager
def scope(token: CancelToken):
    """Scope a token to a ``with`` block, restoring the previous one."""
    previous = _TOKEN
    install(token)
    try:
        yield token
    finally:
        install(previous)


def check() -> None:
    """Boundary hook — raise :class:`repro.errors.Cancelled` if tripped.

    Called by :class:`~repro.engine.context.ExecutionContext` on every
    charged loop and round marker; a no-op (one ``is None`` test) unless
    a token is installed.
    """
    if _TOKEN is not None:
        reason = _TOKEN.tripped()
        if reason is not None:
            raise errors.Cancelled(
                f"cell cancelled cooperatively ({reason})", reason=reason)
