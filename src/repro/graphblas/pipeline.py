"""Process-wide ledger of GraphBLAS operations written without a merge.

:mod:`repro.graphblas.operations` is the only operator implementation.
An operation whose write-back had nothing to merge (no mask, no
accumulator — or a scalar ``assign`` through a plain mask, written in
place) stamps its :class:`~repro.engine.events.OpEvent` ``fused=True``
with an estimate of the merge temporaries it skipped in
``bytes_not_materialized``.  Both fields are wall-clock attribution only:
no charge handler reads them, so the modeled accounting is the same
whichever exit an operation took.

This module keeps the running totals of those stamps for the benchmarks
(``benchmarks/bench_wallclock.py``, ``perfbench/layers.py``).
``operations._emit`` feeds it every event it records; nothing else does.
"""

from __future__ import annotations

__all__ = ["fusion_stats", "reset_fusion_stats", "note"]

_STATS = {
    # Runs of >= 2 consecutive stamped events within one algorithm round.
    "chains": 0,
    # Events stamped ``fused``.
    "fused_ops": 0,
    # Sum of the stamped events' ``bytes_not_materialized`` estimates.
    "bytes_not_materialized": 0,
}

#: Length and ``round_id`` of the current run of stamped events.
_run = [0, -1]


def fusion_stats() -> dict:
    """Snapshot of the process-wide counters."""
    return dict(_STATS)


def reset_fusion_stats() -> None:
    """Zero the counters (benchmarks reset after warmup)."""
    for key in _STATS:
        _STATS[key] = 0
    _run[:] = [0, -1]


def note(event) -> None:
    """Count one recorded (round-stamped) operation event."""
    if not event.fused:
        _run[0] = 0
        return
    if event.round_id != _run[1]:
        _run[:] = [0, event.round_id]
    _run[0] += 1
    if _run[0] == 2:
        _STATS["chains"] += 1
    _STATS["fused_ops"] += 1
    _STATS["bytes_not_materialized"] += event.bytes_not_materialized
