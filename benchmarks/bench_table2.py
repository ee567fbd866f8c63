"""Regenerate Table II: 56-thread execution times for every cell.

This is the paper's main result: 6 applications x 9 graphs x 3 systems,
fastest highlighted, TO/OOM annotated.  One benchmark per application times
that application's row block; the final test renders the assembled table.
"""

import pytest

from repro.core.experiments import OK, run_cell
from repro.core.systems import SYSTEMS

from benchmarks.conftest import bench_apps, bench_graphs, render


@pytest.mark.parametrize("app", bench_apps())
def test_table2_row(benchmark, app):
    graphs = bench_graphs()

    def run_row():
        return [run_cell(s, app, g) for s in SYSTEMS for g in graphs]

    cells = benchmark.pedantic(run_row, rounds=1, iterations=1)
    assert all(c.status in ("ok", "TO", "OOM") for c in cells)
    # Lonestar holds the majority of fastest cells (the paper's headline).
    by_graph = {}
    for c in cells:
        if c.status == OK:
            by_graph.setdefault(c.graph, []).append(c)
    ls_wins = sum(1 for graph_cells in by_graph.values()
                  if min(graph_cells, key=lambda c: c.seconds).system == "LS")
    assert ls_wins >= len(by_graph) // 2


def test_table2_render(benchmark):
    render(benchmark, "table2")
