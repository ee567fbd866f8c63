"""Renderers for the paper's Figures 2 and 3 (text/CSV series).

Figure 2 — strong scaling of GB and LS, 1 to 56 threads, for bfs/cc/pr/sssp
on the four largest graphs.  One run per cell produces the whole sweep: the
machine model re-evaluates the recorded loop costs at every thread count.

Figure 3 — speedups of the §V-B variants over the "gb" baseline, one panel
per problem (pr, tc, cc, sssp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.experiments import OK, run_cell
from repro.core.variants import VARIANTS, run_problem_variants
from repro.graphs.datasets import LARGEST_FOUR
from repro.perf.costmodel import THREAD_POINTS

FIGURE2_APPS = ("bfs", "cc", "pr", "sssp")


def figure2_panel(graphs: Iterable[str], apps: Iterable[str]):
    """Figure 2's ``(apps, graphs)`` for a study selection: the selected
    apps among :data:`FIGURE2_APPS` and the selected graphs among the four
    largest.  An empty side falls back to the full panel rather than an
    empty figure."""
    return ([a for a in apps if a in FIGURE2_APPS] or list(FIGURE2_APPS),
            [g for g in graphs if g in LARGEST_FOUR] or list(LARGEST_FOUR))


@dataclass
class FigureData:
    title: str
    text: str
    #: {(panel, series): {x: y}} mapping.
    series: dict

    def __str__(self):
        return f"{self.title}\n{self.text}"


def figure2(apps: Iterable[str] = FIGURE2_APPS,
            graphs: Iterable[str] = LARGEST_FOUR) -> FigureData:
    """Strong-scaling series (seconds at each thread count)."""
    apps, graphs = list(apps), list(graphs)
    series = {}
    lines = []
    header = "app,graph,system," + ",".join(f"t{p}" for p in THREAD_POINTS)
    lines.append(header)
    for app in apps:
        for g in graphs:
            for system in ("GB", "LS"):
                cell = run_cell(system, app, g, sweep_threads=True)
                if cell.status != OK:
                    lines.append(f"{app},{g},{system}," +
                                 ",".join([cell.status] * len(THREAD_POINTS)))
                    continue
                sweep = cell.thread_sweep
                series[(app, g, system)] = dict(sweep)
                lines.append(
                    f"{app},{g},{system}," +
                    ",".join(f"{sweep[p]:.4f}" for p in THREAD_POINTS))
    return FigureData(
        title="Figure 2: strong scaling of GB and LS "
              "(simulated seconds, log-log in the paper)",
        text="\n".join(lines),
        series=series,
    )


def figure3(problems: Iterable[str] = ("pr", "tc", "cc", "sssp"),
            graphs: Optional[Iterable[str]] = None) -> FigureData:
    """Variant speedups over the gb baseline, one panel per problem."""
    from repro.core.tables import GRAPH_ORDER

    problems = list(problems)
    graphs = list(graphs) if graphs is not None else list(GRAPH_ORDER)
    series = {}
    lines = ["problem,graph," + "variant:speedup_over_gb..."]
    for problem in problems:
        for g in graphs:
            results = run_problem_variants(problem, g)
            base = results.get("gb")
            row = [problem, g]
            for variant in VARIANTS[problem]:
                r = results[variant]
                if (base is None or base.status != "ok"
                        or r.status != "ok" or not r.seconds):
                    row.append(f"{variant}:{r.status}")
                    continue
                speedup = base.seconds / r.seconds
                series[(problem, g, variant)] = speedup
                row.append(f"{variant}:{speedup:.2f}")
            lines.append(",".join(row))
    return FigureData(
        title="Figure 3: speedups of variants over the gb baseline",
        text="\n".join(lines),
        series=series,
    )
