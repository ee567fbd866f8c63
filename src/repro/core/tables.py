"""Renderers for the paper's five tables.

Each ``tableN`` function runs (or recalls) the experiments it needs and
returns a :class:`TableText` whose ``text`` is a printable table in the
paper's layout and whose ``data`` is the structured content for programmatic
use (tests and benchmarks assert against ``data``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.experiments import GRAPH_ORDER, OK, run_cell
from repro.core.systems import APPLICATIONS, SYSTEMS
from repro.core.variants import run_problem_variants
from repro.graphs.datasets import DATASETS, get_dataset
from repro.graphs.properties import compute_properties

__all__ = ["GRAPH_ORDER", "TableText", "table1", "table2", "table3",
           "table4", "table4_detail", "table5"]


@dataclass
class TableText:
    title: str
    text: str
    data: dict

    def __str__(self):
        return f"{self.title}\n{self.text}"


def _fmt_row(label: str, cells: Sequence[str], width: int = 12) -> str:
    return f"{label:<16s}" + "".join(f"{c:>{width}s}" for c in cells)


# ----------------------------------------------------------------------
# Table I: input graphs and their properties
# ----------------------------------------------------------------------

def table1(graphs: Iterable[str] = GRAPH_ORDER) -> TableText:
    """Input graphs and their properties (paper Table I)."""
    graphs = list(graphs)
    props = {}
    for name in graphs:
        ds = get_dataset(name)
        csr, weights = ds.build()
        sym, _ = ds.build_symmetric()
        props[name] = compute_properties(name, csr, weights, ds.scale, sym)

    rows = []
    rows.append(_fmt_row("", graphs))
    rows.append(_fmt_row("|V|", [f"{props[g].nnodes:,}" for g in graphs]))
    rows.append(_fmt_row("|E|", [f"{props[g].nedges:,}" for g in graphs]))
    rows.append(_fmt_row("|E|/|V|",
                         [f"{props[g].avg_degree:.1f}" for g in graphs]))
    rows.append(_fmt_row("max Dout",
                         [f"{props[g].max_out_degree:,}" for g in graphs]))
    rows.append(_fmt_row("max Din",
                         [f"{props[g].max_in_degree:,}" for g in graphs]))
    rows.append(_fmt_row("approx diam",
                         [f"{props[g].approx_diameter:,}" for g in graphs]))
    rows.append(_fmt_row("CSR GB*",
                         [f"{props[g].paper_scale_csr_gb:.1f}"
                          for g in graphs]))
    rows.append("")
    rows.append("* CSR size extrapolated to paper scale "
                "(ours x dataset scale factor).")
    return TableText(
        title="Table I: input graphs and their properties (scaled twins)",
        text="\n".join(rows),
        data={g: props[g] for g in graphs},
    )


# ----------------------------------------------------------------------
# Table II: 56-thread execution time
# ----------------------------------------------------------------------

def table2(graphs: Iterable[str] = GRAPH_ORDER,
           apps: Iterable[str] = APPLICATIONS) -> TableText:
    """56-thread execution time in seconds, fastest highlighted with '*'."""
    graphs, apps = list(graphs), list(apps)
    cells = {(a, s, g): run_cell(s, a, g)
             for a in apps for s in SYSTEMS for g in graphs}

    rows = [_fmt_row("", graphs)]
    for app in apps:
        for system in SYSTEMS:
            display = []
            for g in graphs:
                r = cells[(app, system, g)]
                text = r.display()
                if r.status == OK and _is_fastest(cells, app, g, system):
                    text += "*"
                display.append(text)
            rows.append(_fmt_row(f"{app} {system}", display))
        rows.append("")
    return TableText(
        title="Table II: 56-thread execution time (simulated seconds, "
              "paper-scale; * = fastest; TO = 2h timeout; OOM = out of "
              "memory; ERR = harness error, see cell.error)",
        text="\n".join(rows),
        data=cells,
    )


def _is_fastest(cells, app, graph, system) -> bool:
    mine = cells[(app, system, graph)]
    if mine.status != OK:
        return False
    for other in SYSTEMS:
        r = cells[(app, other, graph)]
        if r.status == OK and r.seconds < mine.seconds:
            return False
    return True


# ----------------------------------------------------------------------
# Table III: maximum resident set size
# ----------------------------------------------------------------------

def table3(graphs: Iterable[str] = GRAPH_ORDER,
           apps: Iterable[str] = APPLICATIONS) -> TableText:
    """MRSS in GB (paper-scale) per system, application and graph."""
    graphs, apps = list(graphs), list(apps)
    cells = {(a, s, g): run_cell(s, a, g)
             for a in apps for s in SYSTEMS for g in graphs}
    rows = [_fmt_row("", graphs)]
    for app in apps:
        for system in SYSTEMS:
            rows.append(_fmt_row(
                f"{app} {system}",
                [f"{cells[(app, system, g)].mrss_gb:.1f}" for g in graphs]))
        rows.append("")
    return TableText(
        title="Table III: maximum resident set size (GB, paper-scale)",
        text="\n".join(rows),
        data=cells,
    )


# ----------------------------------------------------------------------
# Table IV: GB/LS hardware-counter ratios
# ----------------------------------------------------------------------

COUNTER_COLUMNS = ("instructions", "l1", "l2", "l3", "dram",
                   "memory_accesses")

#: Display labels for the counter columns (kept narrow for the grid).
_COUNTER_LABELS = {"memory_accesses": "mem_total"}


def _counter_header():
    return [_COUNTER_LABELS.get(c, c) for c in COUNTER_COLUMNS]


def _fmt_ratio(value: float) -> str:
    return "-" if value != value else f"{value:.2f}"


def table4(graphs: Iterable[str] = GRAPH_ORDER,
           apps: Iterable[str] = APPLICATIONS) -> TableText:
    """Counter ratios GaloisBLAS / Lonestar (geomean over shared graphs)."""
    graphs, apps = list(graphs), list(apps)
    data = {}
    rows = [_fmt_row("", _counter_header())]
    for app in apps:
        ratios = {c: [] for c in COUNTER_COLUMNS}
        for g in graphs:
            gb_cell = run_cell("GB", app, g)
            ls_cell = run_cell("LS", app, g)
            if gb_cell.status != OK or ls_cell.status != OK:
                continue
            for c in COUNTER_COLUMNS:
                denominator = ls_cell.counters.get(c, 0)
                numerator = gb_cell.counters.get(c, 0)
                if denominator > 0 and numerator > 0:
                    ratios[c].append(numerator / denominator)
        geo = {c: (float(np.exp(np.mean(np.log(v)))) if v else float("nan"))
               for c, v in ratios.items()}
        data[app] = geo
        rows.append(_fmt_row(app, [_fmt_ratio(geo[c])
                                   for c in COUNTER_COLUMNS]))
    return TableText(
        title="Table IV: hardware-counter ratios GB/LS "
              "(geomean over graphs both complete)",
        text="\n".join(rows),
        data=data,
    )


def table4_detail(app: str,
                  graphs: Iterable[str] = GRAPH_ORDER) -> TableText:
    """Per-graph GB/LS counter ratios for one application.

    The paper's prose reads Table IV per cell ("GaloisBLAS makes
    significantly more DRAM accesses than Lonestar for bfs [on road-USA]",
    "tc ... on uk07"); this view exposes those per-graph numbers.
    """
    graphs = list(graphs)
    data = {}
    rows = [_fmt_row("", _counter_header())]
    for g in graphs:
        gb_cell = run_cell("GB", app, g)
        ls_cell = run_cell("LS", app, g)
        if gb_cell.status != OK or ls_cell.status != OK:
            rows.append(_fmt_row(g, [gb_cell.status if gb_cell.status != OK
                                     else ls_cell.status]
                                 * len(COUNTER_COLUMNS)))
            continue
        ratios = {}
        for c in COUNTER_COLUMNS:
            denom = ls_cell.counters.get(c, 0)
            numer = gb_cell.counters.get(c, 0)
            ratios[c] = numer / denom if denom else float("nan")
        data[g] = ratios
        rows.append(_fmt_row(g, [_fmt_ratio(ratios[c])
                                 for c in COUNTER_COLUMNS]))
    return TableText(
        title=f"Table IV detail: GB/LS counter ratios for {app}, per graph",
        text="\n".join(rows),
        data=data,
    )


# ----------------------------------------------------------------------
# Table V: variant counter ratios
# ----------------------------------------------------------------------

#: The variant pairs §V-B discusses against Table V.
TABLE5_PAIRS = (
    ("pr", "gb-res", "ls-soa"),
    ("tc", "gb-ll", "ls"),
    ("cc", "gb", "ls-sv"),
)


def table5(graphs: Optional[Iterable[str]] = None) -> TableText:
    """Counter ratios between §V-B variant pairs (geomean over graphs)."""
    graphs = list(graphs) if graphs is not None else list(GRAPH_ORDER)
    data = {}
    rows = [_fmt_row("", _counter_header())]
    for problem, numer, denom in TABLE5_PAIRS:
        ratios = {c: [] for c in COUNTER_COLUMNS}
        for g in graphs:
            results = run_problem_variants(problem, g)
            a, b = results.get(numer), results.get(denom)
            if a is None or b is None or a.status != "ok" or b.status != "ok":
                continue
            for c in COUNTER_COLUMNS:
                if b.counters.get(c, 0) > 0 and a.counters.get(c, 0) > 0:
                    ratios[c].append(a.counters[c] / b.counters[c])
        geo = {c: (float(np.exp(np.mean(np.log(v)))) if v else float("nan"))
               for c, v in ratios.items()}
        label = f"{problem} {numer}/{denom}"
        data[label] = geo
        rows.append(_fmt_row(label,
                             [_fmt_ratio(geo[c]) for c in COUNTER_COLUMNS]))
    return TableText(
        title="Table V: variant hardware-counter ratios (geomean)",
        text="\n".join(rows),
        data=data,
    )
