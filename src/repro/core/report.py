"""EXPERIMENTS.md generator: measured vs published, claim by claim.

Builds the paper-vs-measured record for every table and figure from a
completed cell grid — run ``scripts/make_experiments_md.py`` after
``repro-study all --out benchmarks/results``.  The comparisons are
*ratio-based*: this reproduction's absolute seconds come from a machine
model on 1/1000-scale inputs, so the meaningful fidelity measure is
whether each cell's system-vs-system ratio (and each failure annotation)
matches the paper's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core import paper
from repro.core.experiments import OK, CellResult, run_cell
from repro.core.systems import APPLICATIONS, SYSTEMS


def _measured(app: str, system: str, graph: str) -> CellResult:
    return run_cell(system, app, graph)


def _fmt(cell) -> str:
    if cell is None:
        return "?"
    if isinstance(cell, str):
        return cell
    return f"{cell:.2f}"


def _geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v and v > 0]
    return float(np.exp(np.mean(np.log(values)))) if values else float("nan")


def collect_ratios(apps=APPLICATIONS, graphs=paper.GRAPHS) -> Dict[str, list]:
    """Measured system-pair time ratios over all completed cells."""
    out = {"SS/LS": [], "SS/GB": [], "GB/LS": []}
    per_app: Dict[str, list] = {a: [] for a in apps}
    for app in apps:
        for g in graphs:
            cells = {s: _measured(app, s, g) for s in SYSTEMS}
            if all(c.status == OK for c in cells.values()):
                out["SS/LS"].append(cells["SS"].seconds / cells["LS"].seconds)
                out["SS/GB"].append(cells["SS"].seconds / cells["GB"].seconds)
                out["GB/LS"].append(cells["GB"].seconds / cells["LS"].seconds)
                per_app[app].append(cells["GB"].seconds / cells["LS"].seconds)
    out["per_app_GB/LS"] = per_app
    return out


def table2_comparison_md(apps=APPLICATIONS, graphs=paper.GRAPHS) -> str:
    """Per-cell markdown: measured, published, and the GB/LS & SS/LS ratio
    fidelity where both sides are numeric."""
    lines = [
        "| app | graph | SS meas/paper | GB meas/paper | LS meas/paper | "
        "GB/LS meas (paper) | SS/LS meas (paper) |",
        "|---|---|---|---|---|---|---|",
    ]
    for app in apps:
        for g in graphs:
            cells = {s: _measured(app, s, g) for s in SYSTEMS}
            cols = []
            for s in SYSTEMS:
                meas = cells[s].display()
                pub = _fmt(paper.paper_cell(app, s, g))
                cols.append(f"{meas} / {pub}")
            ratios = []
            for numer, denom in (("GB", "LS"), ("SS", "LS")):
                a, b = cells[numer], cells[denom]
                if a.status == OK and b.status == OK and b.seconds:
                    mine = a.seconds / b.seconds
                    pub = paper.paper_ratio(app, g, numer, denom)
                    ratios.append(f"{mine:.1f} ({_fmt(pub) if pub else '-'})")
                else:
                    ratios.append("-")
            lines.append(f"| {app} | {g} | " + " | ".join(cols + ratios)
                         + " |")
    return "\n".join(lines)


def headline_md(apps=APPLICATIONS, graphs=paper.GRAPHS) -> str:
    """The §I/§V headline claims, measured against this reproduction."""
    ratios = collect_ratios(apps, graphs)
    lines = ["| claim | paper | measured | holds |", "|---|---|---|---|"]
    for desc, checker, expected in paper.HEADLINE_CLAIMS:
        measured = _evaluate_checker(checker, ratios)
        holds = "yes" if measured is not None and measured > 1.0 and (
            measured >= expected / 4) else "partially"
        lines.append(f"| {desc} | {expected:g}x | "
                     f"{measured:.1f}x | {holds} |"
                     if measured is not None else
                     f"| {desc} | {expected:g}x | n/a | - |")
    return "\n".join(lines)


def _evaluate_checker(checker: str, ratios) -> Optional[float]:
    kind, *rest = checker.split(":")
    if kind == "geomean":
        return _geomean(ratios[rest[0]])
    if kind == "app-geomean":
        app, pair = rest
        return _geomean(ratios[f"per_app_{pair}"][app])
    if kind == "cell":
        app, graph, pair = rest
        numer, denom = pair.split("/")
        a = _measured(app, numer, graph)
        b = _measured(app, denom, graph)
        if a.status == OK and b.status == OK and b.seconds:
            return a.seconds / b.seconds
    return None


def failure_annotation_md(apps=APPLICATIONS, graphs=paper.GRAPHS) -> str:
    """Where the paper reports TO/OOM/C, what did this reproduction see?"""
    lines = ["| app | graph | system | paper | measured |",
             "|---|---|---|---|---|"]
    for app in apps:
        for g in graphs:
            for s in SYSTEMS:
                pub = paper.paper_cell(app, s, g)
                if isinstance(pub, str):  # TO / OOM / C
                    meas = _measured(app, s, g).display()
                    lines.append(f"| {app} | {g} | {s} | {pub} | {meas} |")
    return "\n".join(lines)
