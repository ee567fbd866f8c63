"""The execution context: where emitted op events meet charged loops.

Every :class:`~repro.perf.machine.Machine` owns one
:class:`ExecutionContext`.  Emitters (GraphBLAS backends, the Galois
runtime's loop constructs) open a *span*, charge their loops against the
machine as before, and close the span with the :class:`OpEvent` describing
what ran; the context stamps *that object* with the number of parallel loop
nests charged inside the span, whether any ended in a barrier, and the
current round id, and records it — one construction per recorded event.
Parallel loops charged outside any span (graph preprocessing, ad-hoc
passes) are recorded as synthetic ``loop`` events, so

    sum(event.loops for event in context.events) == counters.loops

holds *by construction* — the invariant the cross-stack parity test and
:mod:`repro.engine.analysis` rely on.

Loop and round hooks double as the *cooperative cancellation* boundary:
each calls :func:`repro.engine.cancel.check`, so a cell whose
:class:`~repro.engine.cancel.CancelToken` has tripped unwinds at the next
charged loop with :class:`repro.errors.Cancelled` — emitters close spans
in ``finally`` blocks, so the partial event trace survives.

This module deliberately imports nothing from the rest of ``repro`` except
:mod:`repro.engine.events` and the leaf modules :mod:`repro.engine.cancel`
/ :mod:`repro.errors`, keeping the dependency arrow pointing one way:
``perf.machine`` -> ``engine.context`` -> ``engine.events``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine import cancel
from repro.engine.events import OpEvent, record_stamps
from repro.errors import InvalidValue


class ExecutionContext:
    """Recorder for the op-event stream of one machine."""

    def __init__(self):
        self._events: List[OpEvent] = []
        #: Open spans, innermost last: [parallel_loops, barrier_seen].
        self._spans: List[list] = []
        self._round_id = 0

    # ------------------------------------------------------------------
    # Machine-side hooks
    # ------------------------------------------------------------------
    def on_loop(self, n_items: int, barrier: bool, parallel: bool) -> None:
        """Called by :meth:`Machine.charge_loop` for every charged loop.

        Loops are attributed to the innermost open span; a parallel loop
        charged outside any span becomes a synthetic ``loop`` event.
        Every charged loop is also a cancellation boundary.
        """
        cancel.check()
        if self._spans:
            span = self._spans[-1]
            if parallel:
                span[0] += 1
            if barrier:
                span[1] = True
        elif parallel:
            self._events.append(OpEvent(
                kind="loop", items=int(n_items), loops=1, barrier=barrier,
                round_id=self._round_id))

    def on_round(self, round_id: int) -> None:
        """Called by :meth:`Machine.round`: record the round boundary."""
        cancel.check()
        round_id = int(round_id)
        self._events.append(OpEvent(kind="round", round_id=round_id))
        self._round_id = round_id

    # ------------------------------------------------------------------
    # Emitter-side spans
    # ------------------------------------------------------------------
    def open_span(self) -> None:
        """Start attributing charged loops to the event being emitted."""
        self._spans.append([0, False])

    def close_span(self, event: OpEvent, **emitter_stamps) -> OpEvent:
        """Close the innermost span and record ``event``, stamped in place
        with the span's loop count, barrier flag and the current round id.

        ``emitter_stamps`` are the closing emitter's own late fields (see
        :data:`repro.engine.events.EMITTER_STAMPS`), e.g. a backend's
        ``bytes_materialized=...``.  Returns ``event``.

        Emitters call this in a ``finally`` block so the span stack stays
        balanced when a charge raises (timeout, OOM, injected fault).
        """
        if not self._spans:
            raise InvalidValue("close_span without a matching open_span")
        loops, barrier_seen = self._spans.pop()
        record_stamps(event, loops, barrier_seen, self._round_id,
                      emitter_stamps)
        self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # Reading and resetting
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[OpEvent, ...]:
        """The recorded op-event stream (read-only view)."""
        return tuple(self._events)

    def reset(self) -> None:
        """Clear the recorded stream (measurement reset keeps open spans)."""
        self._events.clear()
        self._round_id = 0
