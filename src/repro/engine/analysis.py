"""Trace-derived differential analysis over recorded op streams.

The tables in :mod:`repro.core.tables` attribute GB/LS performance gaps
with counters *modeled* inside :class:`~repro.perf.Machine`.  This module
re-derives the same quantities independently — from the
:class:`~repro.engine.events.OpEvent` stream every backend and runtime now
emits into the machine's :class:`~repro.engine.context.ExecutionContext` —
and cross-checks the two.  Agreement is the protocol's invariant: every
parallel loop the machine charges is attributed to exactly one recorded
event, and every ``round()`` appends exactly one synthetic ``round`` event,
so the trace-derived loop and round counts must equal
``PerfCounters.loops``/``rounds`` on every (system, app, graph) cell.

On top of the cross-check, :func:`differential_table` renders the paper's
differential-analysis attribution (§V-B): for each application, what the
bulk-synchronous matrix API pays relative to the graph API in extra
parallel loops, materialized bytes, bulk items and rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.events import OpEvent
from repro.errors import ReproError

#: What each trace-derived metric attributes a gap to (§V-B's categories).
ATTRIBUTION = {
    "loops": "lightweight parallel loops (barrier per API call)",
    "bytes_materialized": "operand/result materialization",
    "items": "bulk operations over full frontiers",
    "rounds": "round-based (bulk-synchronous) execution",
}


@dataclass(frozen=True)
class TraceSummary:
    """Aggregates over one cell's recorded op-event stream."""

    loops: int = 0
    barriers: int = 0
    rounds: int = 0
    items: int = 0
    flops: int = 0
    bytes_materialized: int = 0
    #: Events stamped ``fused`` (modeled continuations of the
    #: galoisblas-fused ablation, or GraphBLAS operations written without
    #: the general merge).
    fused_ops: int = 0
    #: Intermediate bytes those events skipped materializing (an estimate).
    bytes_not_materialized: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)


def summarize(events: Iterable[OpEvent]) -> TraceSummary:
    """Fold an op-event stream into one :class:`TraceSummary`.

    ``loops`` sums the per-event loop attributions (every charged parallel
    loop lands on exactly one event); ``rounds`` counts the synthetic
    ``round`` events the context appends on every ``Runtime.round()``.
    """
    loops = barriers = rounds = items = flops = bytes_mat = 0
    fused_ops = bytes_skipped = 0
    by_kind: Dict[str, int] = {}
    for event in events:
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        loops += event.loops
        items += event.items
        flops += event.flops
        bytes_mat += event.bytes_materialized
        if event.fused:
            fused_ops += 1
            bytes_skipped += event.bytes_not_materialized
        if event.barrier:
            barriers += 1
        if event.kind == "round":
            rounds += 1
    return TraceSummary(loops=loops, barriers=barriers, rounds=rounds,
                        items=items, flops=flops,
                        bytes_materialized=bytes_mat, fused_ops=fused_ops,
                        bytes_not_materialized=bytes_skipped,
                        by_kind=by_kind)


@dataclass(frozen=True)
class TracedCell:
    """One (system, app, graph) run with its trace and modeled counters."""

    system: str
    app: str
    graph: str
    answer: object
    summary: TraceSummary
    counters: Dict[str, int]
    events: Tuple[OpEvent, ...]


def run_traced(system: str, app: str, graph: str,
               timeout: Optional[float] = None) -> TracedCell:
    """Run one cell keeping the op-event trace alongside the counters.

    Unlike :func:`repro.core.experiments.run_cell` (which reduces a run to
    a :class:`CellResult` and discards the machine), this builds the
    :class:`~repro.core.systems.SystemInstance` directly and returns the
    recorded event stream.  ``timeout=None`` disables the 2 h cutoff so
    traces can be collected on any graph size.
    """
    from repro.core.systems import SystemInstance
    from repro.graphs.datasets import get_dataset

    instance = SystemInstance(system, get_dataset(graph), timeout=timeout)
    answer = instance.run(app)
    events = instance.machine.context.events
    counters = instance.machine.counters.as_dict()
    return TracedCell(system=system, app=app, graph=graph, answer=answer,
                      summary=summarize(events), counters=counters,
                      events=events)


def crosscheck(cell: TracedCell) -> List[str]:
    """Mismatches between trace-derived and modeled counters (empty = ok)."""
    problems = []
    if cell.summary.loops != cell.counters["loops"]:
        problems.append(
            f"{cell.system}/{cell.app}/{cell.graph}: trace loops "
            f"{cell.summary.loops} != modeled {cell.counters['loops']}")
    if cell.summary.rounds != cell.counters["rounds"]:
        problems.append(
            f"{cell.system}/{cell.app}/{cell.graph}: trace rounds "
            f"{cell.summary.rounds} != modeled {cell.counters['rounds']}")
    return problems


def _geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _ratio(gb: int, ls: int) -> float:
    """GB-over-LS ratio; 1.0 when both sides are zero (no gap)."""
    if ls == 0:
        return 1.0 if gb == 0 else float(gb)
    return gb / ls


def differential_table(graphs: Sequence[str],
                       apps: Sequence[str]) -> str:
    """Render the trace-derived differential-analysis table (§V-B).

    For every application, the geomean over ``graphs`` of the GB/LS ratio
    of each trace-derived metric — how many more parallel loops, bytes
    materialized, bulk items and rounds the matrix API executes for the
    same problem — plus the cross-check verdict against the modeled
    counters on every contributing cell.
    """
    header = (f"{'app':<8}{'loops GB/LS':>14}{'bytes GB/LS':>14}"
              f"{'items GB/LS':>14}{'rounds GB/LS':>14}{'fused GB':>10}"
              f"  crosscheck")
    lines = ["Differential analysis derived from the op-event trace",
             f"graphs: {', '.join(graphs)}", "", header,
             "-" * len(header)]
    for app in apps:
        ratios = {metric: [] for metric in ATTRIBUTION}
        problems: List[str] = []
        skipped: List[str] = []
        fused_cells: List[str] = []
        fused_total = 0
        for graph in graphs:
            try:
                # A cell the modeled machine cannot run (OOM, the same
                # cells Table II reports as OOM) is skipped *visibly*.
                gb = run_traced("GB", app, graph)
                ls = run_traced("LS", app, graph)
            except ReproError as exc:
                skipped.append(f"{graph} ({type(exc).__name__})")
                continue
            problems += crosscheck(gb) + crosscheck(ls)
            for metric in ATTRIBUTION:
                ratios[metric].append(_ratio(
                    getattr(gb.summary, metric),
                    getattr(ls.summary, metric)))
            for cell in (gb, ls):
                fused_total += cell.summary.fused_ops
                if cell.summary.fused_ops:
                    fused_cells.append(
                        f"{cell.system}/{graph}: "
                        f"{cell.summary.fused_ops} fused ops, "
                        f"{cell.summary.bytes_not_materialized:,} B "
                        f"not materialized")
        verdict = "ok" if not problems else f"{len(problems)} MISMATCH"
        if skipped:
            verdict += f" [skipped: {', '.join(skipped)}]"
        lines.append(
            f"{app:<8}"
            f"{_geomean(ratios['loops']):>13.2f}x"
            f"{_geomean(ratios['bytes_materialized']):>13.2f}x"
            f"{_geomean(ratios['items']):>13.2f}x"
            f"{_geomean(ratios['rounds']):>13.2f}x"
            f"{fused_total:>10}"
            f"  {verdict}")
        lines += [f"  fused: {c}" for c in fused_cells]
        lines += [f"  ! {p}" for p in problems]
    lines += ["", "attribution key:"]
    lines += [f"  {metric:<20} -> {meaning}"
              for metric, meaning in ATTRIBUTION.items()]
    return "\n".join(lines)
